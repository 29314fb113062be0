"""Reading solution.csv back, for the tests: the inverse of
`hbwave.io.write_solution_csv`."""
import numpy as np

from hbwave.errors import ConfigError
from hbwave.io import SOLUTION_HEADER


def read_solution_csv(path: str) -> np.ndarray:
    """Inverse of write_solution_csv (17-digit round trip is bit exact).

    Every (m, node_index) of the (M + 1) x nx field must appear exactly
    once; the x column is not read back.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh.read().splitlines()
    if header != list(SOLUTION_HEADER):
        raise ConfigError(f"{path}: unexpected header {header}")
    if not any(line.strip() for line in lines):
        raise ConfigError(f"{path}: no rows")
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=1, dtype=[
            ("m", np.int64), ("j", np.int64), ("x", float), ("re", float),
            ("im", float)])
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed row: {exc}")
    m, j = rows["m"], rows["j"]
    M, nx = int(m.max()), int(j.max()) + 1
    if (m.min() < 0 or j.min() < 0 or len(rows) != (M + 1) * nx
            or np.unique(m * nx + j).size != len(rows)):
        raise ConfigError(f"{path}: the rows do not hold each (m, "
                          f"node_index) of a {M + 1} x {nx} field once")
    u = np.zeros((M + 1, nx), complex)
    u.real[m, j] = rows["re"]
    u.imag[m, j] = rows["im"]
    return u
