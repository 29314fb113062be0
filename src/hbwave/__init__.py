"""Harmonic-balance solver and verification suite for time-periodic
nonlinear acoustic wave equations with relaxation.

Import from the submodules (`hbwave.linear`, `hbwave.nonlinear`, ...); the
console script is `hbwave.cli:main`.
"""

# importing the package loads every submodule: the benchmark's span tracer
# (perfbench/tracing.py) finds the functions it wraps in the loaded modules
from . import (cli, diagnostics, errors, io, linear, model,  # noqa: F401
               nonlinear, norms, spatial, studies)

__version__ = "0.1.0"
