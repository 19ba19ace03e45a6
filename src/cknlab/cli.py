"""Batch front door: every computation as a subcommand with file output.

Outputs are deterministic for a fixed configuration: JSON payloads are
written with sorted keys and repr floats, CSV rows with repr floats, and the
resolved configuration is embedded in every file so a run can be reproduced
from its own output.  The only field allowed to differ between identical
runs is the timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CknError, DecayWindowTooShort, ParameterError
from .params import check_radial_bounds, derive, kappa, validate

SCHEMA = "ckn/1"

_SUBCOMMANDS = ("params", "profile", "shoot", "minimize", "spectrum", "flow",
                "selection", "sweep")


def _resolved_config(args: argparse.Namespace) -> dict:
    # paths (--out, --initial) are echoed as strings
    return {k: str(v) if isinstance(v, Path) else v
            for k, v in vars(args).items()
            if k not in ("func", "config") and v is not None}


def _emit(args: argparse.Namespace, result: dict, header: list[str], rows,
          meta: dict | None = None) -> None:
    """Write the JSON payload of result, or the CSV of header and rows with
    the optional meta line; rows are read only for CSV."""
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    config = _resolved_config(args)
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "version": __version__,
                           "timestamp": timestamp, "config": config,
                           "result": result},
                          sort_keys=True, indent=2, default=float) + "\n"
    else:
        lines = [f"# schema={SCHEMA}",
                 "# config=" + json.dumps(config, sort_keys=True, default=float),
                 f"# timestamp={timestamp}"]
        if meta:
            lines.append("# meta=" + json.dumps(meta, sort_keys=True,
                                                default=float))
        lines.append(",".join(header))
        lines += (",".join(repr(float(x)) if isinstance(x, (int, float, np.floating))
                           else str(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def parse_config_echo(text: str) -> dict:
    """Recover the resolved configuration from an output file."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)["config"]
    for line in text.splitlines():
        if line.startswith("# config="):
            return json.loads(line[len("# config="):])
    raise ValueError("no embedded configuration found")


# -- subcommand handlers --------------------------------------------------------

def _cmd_params(args) -> None:
    pp = validate(args.d, args.gamma, args.p)
    ex = derive(pp)
    result = {"d": pp.d, "gamma": pp.gamma, "p": pp.p, "p_max": pp.p_max,
              "kappa": kappa(pp)}
    result.update(dataclasses.asdict(ex))
    keys = sorted(result)
    _emit(args, result, keys, [[result[k] for k in keys]])


def _cmd_profile(args) -> None:
    from .profiles import default_grid, el_residual, w_gamma_star, w_star

    pp = validate(args.d, args.gamma, args.p)
    prof_fn = w_star(pp) if args.kind == "wstar" else w_gamma_star(pp)
    grid = default_grid(args.r_min, args.r_max, args.points_per_decade)
    prof = prof_fn.sample(grid)
    meta = {"el_residual": el_residual(prof_fn, pp, radii=grid),
            "kind": args.kind}
    _emit(args, dict(meta, profile=json.loads(prof.to_json())),
          ["r", "w", "dw"], zip(prof.radii, prof.values, prof.derivs), meta)


def _cmd_shoot(args) -> None:
    from .shooting import find_ground_state

    res = find_ground_state(validate(args.d, args.gamma, args.p), tol=args.tol)
    meta = res.profile.meta
    result = {
        "v0": res.v0,
        "classification": res.classification.value,
        "d_gamma": meta["d_gamma"],
        "log_c_map": meta["log_c_map"],
        "bisection_steps": len(res.bisection_history),
        "s_max": res.s_max,
    }
    _emit(args, result, ["r", "v"], zip(res.profile.radii, res.profile.values),
          result)


def _cmd_minimize(args) -> None:
    from .minimizer import best_constant_radial, minimize_radial

    pp = validate(args.d, args.gamma, args.p)
    rep = minimize_radial(pp, args.grid, solver_tol=args.solver_tol,
                          start=args.start)
    c_star, J_closed = best_constant_radial(pp)
    result = {
        "best_quotient": rep.best_quotient,
        "reference_quotient": rep.reference,
        "closed_form_quotient": 1.0 / c_star,
        "J": rep.J,
        "J_closed_form": J_closed,
        "C_star": c_star,
        "mass": rep.mass,
        "iterations": rep.iterations,
        "gradient_norm": rep.gradient_norm,
        "dilation_balance": rep.dilation_balance,
        "err_estimate": rep.err_estimate,
        "grid_n": args.grid,
        "s_min": rep.s_min,
        "s_max": rep.s_max,
        "d_gamma": derive(pp).d_gamma,
    }
    _emit(args, result, ["d", "gamma", "p", "CStar", "J", "gridN", "errEst"],
          [[pp.d, pp.gamma, pp.p, c_star, rep.J, args.grid, rep.err_estimate]],
          result)


def _cmd_spectrum(args) -> None:
    from .spectral import assemble, lowest_eigenvalue

    pp = validate(args.d, args.gamma, args.p)
    op = assemble(pp, args.ell, args.n)
    lam = lowest_eigenvalue(op)[0]
    result = {"ell": args.ell, "lambda_min": lam, "n": args.n,
              "s_min": float(op.grid[0]), "s_max": float(op.grid[-1]),
              "d_gamma": derive(pp).d_gamma, "constrained": args.ell == 0}
    keys = sorted(result)
    _emit(args, result, keys, [[result[k] for k in keys]])


def _cmd_flow(args) -> None:
    from .flow import fit_decay_rate, run_decay, stationary_profile
    from .profiles import RadialProfile

    if args.initial is not None:
        try:
            text = Path(args.initial).read_text()
            if text.lstrip().startswith("{"):
                obj = json.loads(text)
                # a ckn profile export nests the profile under result.profile
                obj = obj.get("result", {}).get("profile", obj)
                datum = RadialProfile.from_json(json.dumps(obj))
            else:
                datum = RadialProfile.from_csv("\n".join(
                    line for line in text.splitlines()
                    if not line.startswith("#")))
        except (OSError, KeyError, ValueError) as exc:
            raise ParameterError(f"cannot read initial datum: {exc}") from exc
    else:
        base = stationary_profile(args.m, args.gamma, args.d, args.mass)
        alpha = 1.0 - args.gamma / 2.0

        # cos(alpha log r) = cos(log s): smooth in the flow's variable s = r^alpha
        def datum(r):
            return base(r) * (1.0 + args.amplitude *
                              np.cos(alpha * np.log(np.maximum(r, 1e-12))))

    series = run_decay(datum, args.m, args.gamma, T=args.T, d=args.d,
                       n_cells=args.cells, r_out=args.r_out,
                       record_every=args.record_every)
    meta = {
        "rate_bound": (2.0 - args.gamma) ** 2,
        "stationary_C": series.stationary.b,
        "max_identity_residual": float(np.max(series.identity_residuals())),
    }
    try:
        meta["fitted_rate"] = fit_decay_rate(series)
    except DecayWindowTooShort:
        meta["fitted_rate"] = None
    _emit(args, dict(meta, t=series.t.tolist(), F=series.F.tolist(),
                     I=series.I.tolist(), mass=series.mass.tolist()),
          ["t", "F", "I", "mass", "dt"],
          zip(series.t, series.F, series.I, series.mass, series.dt), meta)


def _cmd_selection(args) -> None:
    from .selection import (SelectionContext, F_selection, G_prime, ell,
                            inverse_square_integral, isotropy_matrix, m3_closed,
                            m_d, total_K_integral)

    check_radial_bounds(args.s_min, args.s_max)
    if args.s_points < 1:
        raise ParameterError(f"--s-points must be >= 1, got {args.s_points}")
    ctx = SelectionContext(args.d, args.p)
    quad_val, closed = total_K_integral(ctx)
    inv2 = inverse_square_integral(ctx)
    T = isotropy_matrix(ctx)
    result = {
        "crossing_radius": ctx.crossing_radius,
        "total_K_quadrature": quad_val,
        "total_K_closed_form": closed,
        "inverse_square_integral": inv2,
        "isotropy_diagonal_factor": float(T[0, 0] / inv2),
    }
    if args.curve == "angular":
        s_grid = np.geomspace(args.s_min, args.s_max, args.s_points)
        header = ["s", "ell", "m_d"]
        rows = [[float(s), ell(float(s), args.d), m_d(float(s), args.d)]
                for s in s_grid]
        if args.d == 3:
            header.append("m3_closed")
            for row, s in zip(rows, s_grid):
                row.append(m3_closed(float(s)))
    elif args.curve == "gprime":
        t_grid = np.geomspace(args.s_min, args.s_max, args.s_points)
        header = ["t", "G_prime"]
        rows = [[float(t), G_prime(float(t), ctx)] for t in t_grid]
    elif args.curve == "fmap":
        y_grid = np.linspace(0.0, args.s_max, args.s_points)
        header = ["y", "F"]
        rows = [[float(y), F_selection(float(y), ctx)] for y in y_grid]
    else:
        raise ValueError(f"unknown curve {args.curve!r}")
    _emit(args, dict(result, curve=args.curve, columns=header, rows=rows),
          header, rows, result)


def _cmd_sweep(args) -> None:
    from .spectral import gamma_sweep

    if args.gamma_points < 1:
        raise ParameterError(f"--gamma-points must be >= 1, got {args.gamma_points}")
    gammas = np.linspace(args.gamma_start, args.gamma_stop, args.gamma_points)
    sweep = partial(gamma_sweep, args.d, args.p, ell=args.ell, n=args.n)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            points = [pt for chunk in pool.map(sweep, [[g] for g in gammas])
                      for pt in chunk]
    else:
        points = sweep(gammas)
    _emit(args, {"points": [{"gamma": g, "lambda_min": lam} for g, lam in points],
                 "ell": args.ell, "n": args.n},
          ["gamma", "ell", "lambdaMin", "gridN"],
          ([g, args.ell, lam, args.n] for g, lam in points))


# -- argument plumbing -------------------------------------------------------------

def _add_common(sp, *, need_p=True):
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--gamma", type=float, default=0.0)
    if need_p:
        sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--config", type=Path, default=None,
                    help="key=value file; command-line flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckn",
        description="numerical laboratory for weighted interpolation "
                    "inequalities and the associated fast-diffusion flow")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("params", help="validated parameters and derived exponents")
    _add_common(sp)
    sp.set_defaults(func=_cmd_params)

    sp = sub.add_parser("profile", help="sample an explicit optimizer profile")
    _add_common(sp)
    sp.add_argument("--kind", choices=("wstar", "optimizer"), default="optimizer")
    sp.add_argument("--r-min", type=float, default=1e-4)
    sp.add_argument("--r-max", type=float, default=1e4)
    sp.add_argument("--points-per-decade", type=int, default=64)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("shoot", help="ground state by bisection shooting")
    _add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_shoot)

    sp = sub.add_parser("minimize", help="radial best constant by descent; "
                       "J is two-grid extrapolated")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=1024)
    sp.add_argument("--solver-tol", type=float, default=1e-4)
    sp.add_argument("--start", choices=("warm", "cold"), default="warm")
    sp.set_defaults(func=_cmd_minimize)

    sp = sub.add_parser("spectrum", help="lowest sector eigenvalue")
    _add_common(sp)
    sp.add_argument("--ell", type=int, default=1)
    sp.add_argument("--n", type=int, default=2000)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("flow", help="weighted fast-diffusion decay run")
    _add_common(sp, need_p=False)
    sp.add_argument("--m", type=float, default=0.75)
    sp.add_argument("--T", type=float, default=3.0)
    sp.add_argument("--cells", type=int, default=400)
    sp.add_argument("--r-out", type=float, default=25.0)
    sp.add_argument("--mass", type=float, default=50.0)
    sp.add_argument("--amplitude", type=float, default=0.1)
    sp.add_argument("--record-every", type=int, default=10)
    sp.add_argument("--initial", type=Path, default=None,
                    help="initial datum as a profile file (JSON or CSV)")
    sp.set_defaults(func=_cmd_flow)

    sp = sub.add_parser("selection", help="selection-principle integrals")
    _add_common(sp)
    sp.add_argument("--curve", choices=("angular", "gprime", "fmap"),
                    default="angular")
    sp.add_argument("--s-min", type=float, default=1e-2)
    sp.add_argument("--s-max", type=float, default=1e2)
    sp.add_argument("--s-points", type=int, default=50)
    sp.set_defaults(func=_cmd_selection)

    sp = sub.add_parser("sweep", help="lowest eigenvalue along a gamma grid")
    _add_common(sp)
    sp.add_argument("--gamma-start", type=float, default=0.0)
    sp.add_argument("--gamma-stop", type=float, default=0.1)
    sp.add_argument("--gamma-points", type=int, default=20)
    sp.add_argument("--ell", type=int, default=1)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=_cmd_sweep)

    return ap


def _apply_config_file(argv: list[str], ap: argparse.ArgumentParser) -> list[str]:
    """Insert key=value pairs from --config as defaults before the flags."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ParameterError("--config needs a file path")
    try:
        text = Path(argv[idx + 1]).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file: {exc}") from exc
    extra: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    # subcommand first, then config-derived values, then explicit flags
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            argv = _apply_config_file(argv, ap)
        args = ap.parse_args(argv)
        args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except CknError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
