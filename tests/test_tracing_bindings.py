"""The benchmark's tracer wraps hbwave functions by name; a rename or a move
would make `perfbench/run.py --trace 1` fail.  These tests load the tracer
without installing it and check that every name it binds still exists, and
that `import hbwave` registers every module it rebinds names in; one
installs it in a child process and checks that every function is wrapped
where it is defined, which module-style callers read."""
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracing().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_is_bound_in_its_layer(layer):
    module = importlib.import_module(f"hbwave.{layer}")
    missing = [name for name in LAYERS[layer]
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_traced_solve_keeps_the_argument_its_note_reads():
    # NOTES["linear.solve_linear_mgt"] reads the bound argument "f"
    from hbwave.linear import solve_linear_mgt

    assert "f" in inspect.signature(solve_linear_mgt).parameters


def test_importing_the_package_loads_every_traced_layer():
    # Tracer.install rebinds names only in the modules `import hbwave` has
    # registered; a layer it did not register would silently read 0 under
    # --trace 1
    import hbwave

    script = ("import sys, hbwave\n"
              "print(' '.join(l for l in sys.argv[1:]\n"
              "               if 'hbwave.' + l not in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    proc = subprocess.run([sys.executable, "-c", script, *sorted(LAYERS)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_install_wraps_every_traced_function_where_it_is_defined():
    # the registered modules are lazy: Tracer.install's getattr and vars
    # run each one before it rebinds names in it
    import hbwave

    assert [f"{layer}.{name}" for layer, names in LAYERS.items()
            for name in names if hasattr(getattr(importlib.import_module(
                f"hbwave.{layer}"), name), "__wrapped__")] == []
    script = ("import importlib\n"
              "from tracing import LAYERS, Tracer\n"
              "Tracer('check').install()\n"
              "print(*(f'{layer}.{name}'\n"
              "        for layer, names in LAYERS.items() for name in names\n"
              "        if not hasattr(getattr(importlib.import_module(\n"
              "            'hbwave.' + layer), name), '__wrapped__')))\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((src, str(TRACING.parent))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
