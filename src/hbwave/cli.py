"""Command-line front end.

    hbwave <verb> <config.ini> --output-dir DIR [--set section.key=value]...

Verbs: solve, sweep-tau, energy, deriv-check, converge, oracle-compare,
validate.  Exit codes: 0 success, else the failing error class's
`exit_code` (1 validation/config error, 2 numerical failure) or 2 for an
unexpected error; failures leave a machine-readable error.json in the
output dir.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, nonlinear, oracle, studies
from .errors import ConfigError, HbwaveError
from .io import (
    apply_overrides,
    build_setup,
    parse_config,
    write_csv,
    write_error_record,
    write_run_info,
    write_solution_csv,
)

VERBS = ("solve", "sweep-tau", "energy", "deriv-check", "converge",
         "oracle-compare", "validate")

# the characters str.splitlines breaks at, escaped in the one stderr line
# of a failure, whose message may quote them from the input
_LINE_BREAKS = {ord(c): repr(c)[1:-1]
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hbwave",
        description="Harmonic-balance solver for periodic nonlinear "
                    "acoustic waves with relaxation.")
    p.add_argument("verb", choices=VERBS)
    p.add_argument("config", help="path to the INI config file")
    p.add_argument("-o", "--output-dir", default=".",
                   help="directory for result files (default: cwd)")
    p.add_argument("-s", "--set", dest="overrides", action="append",
                   default=[], metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")
    return p


def _json_number(v):
    """v, or None where it is not finite: JSON has no infinity."""
    return v if np.isfinite(v) else None


def _solve(setup, extra: dict):
    """Solve the configured problem; its report's figures go to `extra`,
    as run_info.json's `metrics`."""
    report = nonlinear.solve(setup.f, setup.model, setup.solver_kind,
                             setup.options)
    # the margin is -inf where alpha changes sign, which a
    # degeneracy_floor <= 0 lets through, and is written as null
    extra["metrics"] = {
        "iterations": report.iterations,
        "final_residual": _json_number(report.final_residual),
        "alpha_min": _json_number(report.alpha_min),
        "stability_margin": _json_number(report.stability_margin),
        "update_norms": [_json_number(v) for v in report.update_norms],
        "contraction_ratios": [_json_number(v)
                               for v in report.contraction_ratios]}
    return report.u


def _run_verb(verb: str, setup, out: str) -> dict:
    extra = {}
    if verb == "validate":
        print("config valid")
        return extra

    if verb in ("solve", "energy"):
        u = _solve(setup, extra)
        report = diagnostics.compute_energies(u, setup.model)
        # first: its terms square u, so a non-finite u or energy fails
        # there, in write_csv, before any file is written
        write_csv(os.path.join(out, "energy.csv"),
                  ("term_name", "level", "value"), report.rows())
        if verb == "solve":
            write_solution_csv(os.path.join(out, "solution.csv"), u,
                               setup.model.grid)
        extra["E_lo"] = report.lo_total
        print(f"wrote {'solution.csv and ' if verb == 'solve' else ''}"
              f"energy.csv (E_lo = {report.lo_total:.6e})")
        return extra

    if verb == "sweep-tau":
        # tau_sweep's own default taus hold when the config sets none
        given = {"taus": setup.study["taus"]} if "taus" in setup.study else {}
        result = studies.tau_sweep(setup.f, setup.model,
                                   kind=setup.solver_kind,
                                   opts=setup.options, **given)
        header = ("tau", "d_lo", "d_me", "rate", "E_lo_ratio", "ratio_me",
                  "ratio_hi")
        write_csv(os.path.join(out, "tau_sweep.csv"), header,
                  ([r[key] for key in header] for r in result.rows))
        print(f"wrote tau_sweep.csv ({len(result.rows)} rows)")
        return extra

    if verb == "deriv-check":
        if setup.solver_kind == "linear":
            raise ConfigError(
                "deriv-check needs [solver] kind = westervelt or kuznetsov")
        # taylor_test's own default eps hold when the config sets none
        given = ({"eps_list": setup.study["eps"]} if "eps" in setup.study
                 else {})
        result = studies.taylor_test(setup.f, setup.f, setup.model,
                                     setup.solver_kind, opts=setup.options,
                                     **given)
        write_csv(os.path.join(out, "taylor.csv"),
                  ("eps", "remainder", "slope"),
                  [(r["eps"], r["remainder"], r["slope"])
                   for r in result.rows])
        extra["picard_iterations"] = result.metadata["picard_iterations"]
        slopes = [r["slope"] for r in result.rows if r["slope"] is not None]
        print(f"wrote taylor.csv (slopes: "
              f"{', '.join('%.3f' % s for s in slopes)})")
        return extra

    if verb == "converge":
        # the configured model's manufactured solution; [forcing] is unused
        result = studies.convergence_study(setup.model, setup.solver_kind,
                                           setup.options)
        header = ("nx", "h", "err_l2l2", "err_u0lo", "order_l2l2",
                  "order_u0lo")
        rows = [(r["nx"], r["h"], r["err_l2l2"], r["err_u0lo"],
                 r.get("order_l2l2"), r.get("order_u0lo"))
                for r in result.rows]
        write_csv(os.path.join(out, "convergence.csv"), header, rows)
        print(f"wrote convergence.csv (orders: "
              f"{result.metadata['orders_l2l2']})")
        return extra

    if verb == "oracle-compare":
        n_steps = setup.study.get("dt_divisor", oracle.ORACLE_STEPS)
        # too few oracle steps fail here, before the solve and the march
        oracle.check_oracle_steps(n_steps, setup.model.M)
        u = _solve(setup, extra)
        # the oracle's own defaults hold for what the config leaves out
        given = {k: setup.study[k] for k in ("max_periods", "period_tol")
                 if k in setup.study}
        samples, gap, counts = oracle.time_stepping_oracle(
            setup.f, setup.model, setup.solver_kind, n_steps, **given)
        extra["metrics"].update(
            {f"oracle_{k}": v for k, v in counts.items()})
        d = oracle.oracle_discrepancy(u, samples, setup.model)
        write_csv(os.path.join(out, "oracle.csv"), ("metric", "value"),
                  sorted({"discrepancy": d, "periodicity_gap": gap,
                          "dt": setup.model.params.T / n_steps}.items()))
        print(f"wrote oracle.csv (discrepancy = {d:.6e})")
        return extra

    raise ConfigError(f"unknown verb {verb!r}")


def run_command(argv) -> int:
    args = _parser().parse_args(argv)
    out = args.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        # numpy stays quiet: a non-finite value fails the finiteness check
        # of a solve or a result file, whose error is the one stderr line
        with np.errstate(all="ignore"):
            raw = apply_overrides(parse_config(args.config), args.overrides)
            setup = build_setup(raw, args.config)
            extra = _run_verb(args.verb, setup, out)
    except Exception as exc:
        # an error outside the taxonomy is a bug: its record keeps the
        # traceback for a bug report instead of printing it on stderr;
        # traceback is imported only here, as it loads several modules
        details = {}
        if not isinstance(exc, HbwaveError):
            import traceback
            details["traceback"] = traceback.format_exc()
        if os.path.isdir(out):      # else there is nowhere to leave it
            write_error_record(out, exc, **details)
        print(f"error: {type(exc).__name__}: {exc}".translate(_LINE_BREAKS),
              file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    write_run_info(out, args.verb, args.config, args.overrides, extra)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
