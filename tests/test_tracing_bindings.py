"""The benchmark's tracer wraps hbwave functions by name; a rename or a move
would make `perfbench/run.py --trace 1` fail.  These tests load the tracer
without installing it and check that every name it binds still exists."""
import importlib
import importlib.util
import inspect
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
