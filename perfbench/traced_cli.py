"""Run one hbwave CLI verb with span tracing installed.

    python3 perfbench/traced_cli.py SPANS.json RUN_ID VERB CONFIG -o OUTDIR

The spans are written to SPANS.json after the verb returns; the exit code
is the verb's.  Needs the package on PYTHONPATH (PYTHONPATH=src).
"""
import sys

from tracing import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    import hbwave.cli
    try:
        return hbwave.cli.run_command(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
