"""The command line as a process: the exit hook that freezes the heap, the
same results from every way of launching a verb, a console or error line
whose reader has gone, and the modes of the result files."""
import gc
import json
import os
import stat
import subprocess
import sys

import pytest

import hbwave
from hbwave.cli import run_command
from test_cli import CONFIG

SRC = os.path.dirname(os.path.dirname(hbwave.__file__))
# perfbench/run.py's launch line
LAUNCH = ("import sys; from hbwave.cli import run_command; "
          "sys.exit(run_command(sys.argv[1:]))")
# one run for each exit code: a solve, a validation failure (taubar above
# min b/c2) and a numerical failure (the Picard iterate leaves its ball)
RUNS = {
    0: ["solve"],
    1: ["solve", "-s", "physics.taubar=2.0"],
    2: ["solve", "-s", "forcing.amplitude_1=1e6",
        "-s", "solver.ball_radius=1.0"],
}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def child(args, tmp_path, *, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
          unbuffered=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=stderr, text=True, timeout=120, cwd=tmp_path)


def closed_pipe_child(args, tmp_path, stream, unbuffered):
    """Run a child whose `stream`, "stdout" or "stderr", is a pipe whose
    reader has gone: a write to it raises EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return child(args, tmp_path, unbuffered=unbuffered,
                     **{stream: write_end})
    finally:
        os.close(write_end)


def argv(code, config, out):
    verb, *extra = RUNS[code]
    return [verb, config, "-o", str(out), *extra]


def results(out):
    """The files of an output directory, run_info.json without its
    timestamp."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    if "run_info.json" in files:
        info = json.loads(files["run_info.json"])
        del info["timestamp"]
        files["run_info.json"] = info
    return files


@pytest.mark.parametrize("code", sorted(RUNS))
def test_exit_freezes_the_heap_after_every_exit_code(config, tmp_path, code):
    # this handler is registered first, so it runs after cli's freeze
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print('freeze',"
              " gc.get_freeze_count()))\n"
              "from hbwave.cli import run_command\n"
              "sys.exit(run_command(sys.argv[1:]))\n")
    proc = child(["-c", script, *argv(code, config, tmp_path / "out")],
                 tmp_path)
    assert proc.returncode == code, proc.stderr
    word, count = proc.stdout.splitlines()[-1].split()
    assert word == "freeze"
    assert int(count) > 0


@pytest.mark.parametrize("embedder, calls", [("keeps", 1), ("removes", 0)])
def test_the_hook_runs_once_unless_removed(tmp_path, embedder, calls):
    # gc.freeze is wrapped to count its calls before cli registers it; a
    # reload of cli must not register it twice
    script = ("import atexit, gc, importlib, sys\n"
              "calls, freeze = [], gc.freeze\n"
              "gc.freeze = lambda: calls.append(freeze())\n"
              "atexit.register(lambda: print(len(calls),"
              " gc.get_freeze_count() > 0))\n"
              "import hbwave.cli\n"
              "hbwave.cli.run_command\n"       # runs the lazy module
              "importlib.reload(hbwave.cli)\n"
              "if sys.argv[1] == 'removes':\n"
              "    atexit.unregister(gc.freeze)\n")
    proc = child(["-c", script, embedder], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(calls), str(calls > 0)]


def test_an_in_process_run_leaves_the_collector_alone(config, tmp_path):
    before = gc.get_freeze_count()
    assert run_command(argv(0, config, tmp_path / "out")) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("code", sorted(RUNS))
def test_every_launch_gives_the_in_process_results(config, tmp_path, capsys,
                                                   code):
    assert run_command(argv(code, config, tmp_path / "in")) == code
    captured = capsys.readouterr()
    expected = results(tmp_path / "in")
    assert ("error.json" in expected) == (code != 0)
    for name, launch in (("launch", ["-c", LAUNCH]),
                         ("module", ["-m", "hbwave"])):
        out = tmp_path / name
        proc = child([*launch, *argv(code, config, out)], tmp_path)
        assert proc.returncode == code, (name, proc.stderr)
        assert proc.stdout == captured.out, name
        assert proc.stderr == captured.err, name
        assert results(out) == expected, name


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("verb", ["validate", "solve"])
def test_a_closed_stdout_does_not_fail_a_finished_run(config, tmp_path, verb,
                                                      unbuffered):
    out = tmp_path / "out"
    proc = closed_pipe_child(["-m", "hbwave", verb, config, "-o", str(out)],
                             tmp_path, "stdout", unbuffered)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    names = set(os.listdir(out))
    assert "run_info.json" in names
    assert "error.json" not in names
    if verb == "solve":
        assert {"solution.csv", "energy.csv"} <= names


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("code", [1, 2])
def test_a_closed_stderr_keeps_a_failed_run_exit_code(config, tmp_path, code,
                                                      unbuffered):
    # the error line is lost with its reader; the exit code and error.json
    # still carry the failure
    out = tmp_path / "out"
    proc = closed_pipe_child(["-m", "hbwave", *argv(code, config, out)],
                             tmp_path, "stderr", unbuffered)
    assert proc.returncode == code
    assert proc.stdout == ""
    with open(out / "error.json") as fh:
        record = json.load(fh)
    assert record["kind"] == {1: "InvalidModel", 2: "NonContraction"}[code]


def test_the_error_line_escapes_what_is_not_printable(tmp_path):
    # a NUL in a nodal path reached the terminal raw; the line is the one
    # error.json's message gives, as repr escapes it
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace("b = 1.0", "b = a\0b"))
    out = tmp_path / "out"
    proc = child(["-m", "hbwave", "validate", str(config), "-o", str(out)],
                 tmp_path)
    assert proc.returncode == 1
    with open(out / "error.json") as fh:
        message = json.load(fh)["message"]
    assert message == (f"[physics] b: cannot read {tmp_path / 'a'}\0b: "
                       "embedded null byte")
    assert proc.stderr == "error: TypeMismatch: " + message.replace(
        "\0", "\\x00") + "\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_result_files_take_the_process_umask(config, tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert run_command(argv(0, config, tmp_path / "ok")) == 0
        assert run_command(argv(1, config, tmp_path / "bad")) == 1
    finally:
        os.umask(old)
    paths = [tmp_path / "ok" / name for name in
             ("solution.csv", "energy.csv", "run_info.json")]
    paths.append(tmp_path / "bad" / "error.json")
    assert {p.name: stat.S_IMODE(os.stat(p).st_mode) for p in paths} == {
        p.name: mode for p in paths}
