"""Command-line front end.

    hbwave <verb> <config.ini> --output-dir DIR [--set section.key=value]...

Verbs: solve, sweep-tau, energy, deriv-check, converge, oracle-compare,
validate.  Exit codes: 0 success, 1 validation/config error, 2 solver
failure; failures leave a machine-readable error.json in the output dir.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diagnostics import compute_energies
from .errors import ConfigError, HbwaveError, InvalidModel, SolverFailure
from .io import (
    apply_overrides,
    build_setup,
    parse_config,
    write_csv,
    write_energy_csv,
    write_error_record,
    write_oracle_csv,
    write_run_info,
    write_solution_csv,
    write_tau_sweep_csv,
    write_taylor_csv,
)
from .nonlinear import solve
from .studies import (
    convergence_study,
    oracle_discrepancy,
    tau_sweep,
    taylor_test,
    time_stepping_oracle,
)

VERBS = ("solve", "sweep-tau", "energy", "deriv-check", "converge",
         "oracle-compare", "validate")


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


def _run_verb(verb: str, setup, out: str) -> dict:
    extra = {}
    if verb == "validate":
        print("config valid")
        return extra

    if verb in ("solve", "energy"):
        u = solve(setup.f, setup.model, setup.solver_kind, setup.options)
        report = compute_energies(u, setup.model)
        if verb == "solve":
            write_solution_csv(os.path.join(out, "solution.csv"), u,
                               setup.model.grid)
        write_energy_csv(os.path.join(out, "energy.csv"), report)
        extra["E_lo"] = report.lo_total
        print(f"wrote {'solution.csv and ' if verb == 'solve' else ''}"
              f"energy.csv (E_lo = {report.lo_total:.6e})")
        return extra

    if verb == "sweep-tau":
        taus = setup.study.get("taus", [0.4, 0.2, 0.1, 0.05, 0.0])
        result = tau_sweep(setup.f, setup.model, taus,
                           kind=setup.solver_kind, opts=setup.options)
        write_tau_sweep_csv(os.path.join(out, "tau_sweep.csv"), result)
        print(f"wrote tau_sweep.csv ({len(result.rows)} rows)")
        return extra

    if verb == "deriv-check":
        if setup.solver_kind == "linear":
            raise ConfigError(
                "deriv-check needs [solver] kind = westervelt or kuznetsov")
        eps = setup.study.get("eps", [1e-1, 1e-2, 1e-3])
        result = taylor_test(setup.f, setup.f, setup.model,
                             setup.solver_kind, eps, opts=setup.options)
        write_taylor_csv(os.path.join(out, "taylor.csv"), result)
        slopes = [r["slope"] for r in result.rows if r["slope"] is not None]
        print(f"wrote taylor.csv (slopes: "
              f"{', '.join('%.3f' % s for s in slopes)})")
        return extra

    if verb == "converge":
        case = setup.study.get("case", "linear-dirichlet")
        grids = setup.study.get("grids", [65, 129, 257])
        p = setup.model.params
        coeffs = {k: float(np.asarray(getattr(p, k)).reshape(-1)[0])
                  for k in ("tau", "taubar", "b", "c2", "eta", "eta_tilde")}
        coeffs["T"] = p.T
        result = convergence_study(case, coeffs, setup.model.grid.L, grids)
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
        u = solve(setup.f, setup.model, setup.solver_kind, setup.options)
        T = setup.model.params.T
        dt = T / setup.study.get("dt_divisor", 512)
        tf, gap = time_stepping_oracle(
            setup.f, setup.model, setup.solver_kind, dt=dt,
            max_periods=setup.study.get("max_periods", 200),
            period_tol=setup.study.get("period_tol", 1e-8))
        d = oracle_discrepancy(u, tf, setup.model)
        write_oracle_csv(os.path.join(out, "oracle.csv"),
                         {"discrepancy": d, "periodicity_gap": gap,
                          "dt": dt})
        print(f"wrote oracle.csv (discrepancy = {d:.6e})")
        return extra

    raise ConfigError(f"unknown verb {verb!r}")


def run_command(argv) -> int:
    args = _parser().parse_args(argv)
    out = args.output_dir
    os.makedirs(out, exist_ok=True)
    try:
        raw = apply_overrides(parse_config(args.config), args.overrides)
        setup = build_setup(raw, args.config)
        extra = _run_verb(args.verb, setup, out)
    except SolverFailure as exc:
        write_error_record(out, exc)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidModel, HbwaveError) as exc:
        write_error_record(out, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_run_info(out, args.verb, args.config, args.overrides, extra)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
