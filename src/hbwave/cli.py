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
import traceback

import numpy as np

from .diagnostics import compute_energies
from .errors import ConfigError, HbwaveError
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
    ORACLE_STEPS,
    check_oracle_steps,
    convergence_study,
    oracle_discrepancy,
    tau_sweep,
    taylor_test,
    time_stepping_oracle,
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


def _solve(setup, extra: dict):
    """Solve the configured problem; its report's figures go to `extra`,
    as run_info.json's `metrics`."""
    report = solve(setup.f, setup.model, setup.solver_kind, setup.options)
    metrics = {"iterations": report.iterations,
               "final_residual": report.final_residual,
               "alpha_min": report.alpha_min,
               "stability_margin": report.stability_margin}
    # JSON has no infinity: the margin is -inf where alpha changes sign,
    # which a degeneracy_floor <= 0 lets through, and is written as null
    extra["metrics"] = {k: v if np.isfinite(v) else None
                        for k, v in metrics.items()}
    return report.u


def _run_verb(verb: str, setup, out: str) -> dict:
    extra = {}
    if verb == "validate":
        print("config valid")
        return extra

    if verb in ("solve", "energy"):
        u = _solve(setup, extra)
        report = compute_energies(u, setup.model)
        # first: its terms square u, so a non-finite u or energy fails
        # there, in write_csv, before any file is written
        write_energy_csv(os.path.join(out, "energy.csv"), report)
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
        result = tau_sweep(setup.f, setup.model, kind=setup.solver_kind,
                           opts=setup.options, **given)
        write_tau_sweep_csv(os.path.join(out, "tau_sweep.csv"), result)
        print(f"wrote tau_sweep.csv ({len(result.rows)} rows)")
        return extra

    if verb == "deriv-check":
        if setup.solver_kind == "linear":
            raise ConfigError(
                "deriv-check needs [solver] kind = westervelt or kuznetsov")
        # taylor_test's own default eps hold when the config sets none
        given = ({"eps_list": setup.study["eps"]} if "eps" in setup.study
                 else {})
        result = taylor_test(setup.f, setup.f, setup.model,
                             setup.solver_kind, opts=setup.options, **given)
        write_taylor_csv(os.path.join(out, "taylor.csv"), result)
        extra["picard_iterations"] = result.metadata["picard_iterations"]
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
        n_steps = setup.study.get("dt_divisor", ORACLE_STEPS)
        # too few oracle steps fail here, before the solve and the march
        check_oracle_steps(n_steps, setup.model.M)
        u = _solve(setup, extra)
        # the oracle's own defaults hold for what the config leaves out
        given = {k: setup.study[k] for k in ("max_periods", "period_tol")
                 if k in setup.study}
        samples, gap, counts = time_stepping_oracle(
            setup.f, setup.model, setup.solver_kind, n_steps, **given)
        extra["metrics"].update(
            {f"oracle_{k}": v for k, v in counts.items()})
        d = oracle_discrepancy(u, samples, setup.model)
        write_oracle_csv(os.path.join(out, "oracle.csv"),
                         {"discrepancy": d, "periodicity_gap": gap,
                          "dt": setup.model.params.T / n_steps})
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
        # traceback for a bug report instead of printing it on stderr
        details = ({} if isinstance(exc, HbwaveError)
                   else {"traceback": traceback.format_exc()})
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
