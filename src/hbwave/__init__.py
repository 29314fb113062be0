"""Harmonic-balance solver and verification suite for time-periodic
nonlinear acoustic wave equations with relaxation.

Import from the submodules (`hbwave.linear`, `hbwave.nonlinear`, ...); the
console script is `hbwave.cli:main`.
"""
import importlib.util
import sys

__version__ = "0.1.0"

# Importing the package registers every submodule, in sys.modules and on
# the package, through importlib.util.LazyLoader: a module's source is
# compiled and run on the first read of one of its attributes.  cli, io,
# linear and studies reach the layers a verb may not need module-style
# (`studies.taylor_test(...)`, `oracle.time_stepping_oracle(...)`), so a
# verb runs only the modules it calls.
# The benchmark's span tracer (perfbench/tracing.py) reads each registered
# module, which runs it, and wraps the functions it finds there.
for _name in ("cli", "diagnostics", "errors", "io", "linear", "model",
              "nonlinear", "norms", "oracle", "spatial", "studies"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module
