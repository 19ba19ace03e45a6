"""The four workloads: seeded inputs, the jobs that run them, their checks.

Jobs enter the way users run them: through ``cknlab.cli.main([...])``
in-process where a ``ckn`` subcommand covers the job, through the library
otherwise.  Every package function is looked up on its module at call time,
so a traced run sees the wrapped names.  Each job's result is checked against
``oracles``, which never calls cknlab.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cknlab.cli
from cknlab import flow, params, profiles, spectral

import oracles


class CliFailure(Exception):
    """A ckn subcommand exited with a nonzero code."""


@dataclass
class CliResult:
    stdout: str

    def json(self) -> dict:
        return json.loads(self.stdout)["result"]


@dataclass
class Job:
    label: str
    run: Callable[[], object]              # timed
    check: Callable[[object], list[str]]   # untimed; failure messages
    known_fault: str | None = None         # exception class it raises today
    flow: bool = False                     # result is a flow DecaySeries


def ckn(*argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cknlab.cli.main([str(a) for a in argv])
    if rc != 0:
        raise CliFailure(f"ckn {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return CliResult(out.getvalue())


# -- flow-decay -----------------------------------------------------------------

FLOW = dict(d=3, m=0.75, mass=50.0, T=2.0, cells=200, r_out=25.0)


def flow_dt_range(series) -> tuple[float, float]:
    """Smallest and largest recorded step, leaving out the initial row and
    the final step, which is cut short to land on T."""
    dt = series.dt[1:-1]
    return float(dt.min()), float(dt.max())


def flow_decay(rng: random.Random) -> list[Job]:
    """One decay run per gamma from the stationary profile times
    (1 + a cos(log r + phi)), a and phi seeded.

    These jobs do what ckn flow does, through the library: ckn flow takes no
    phase, and its --initial route to any other datum fails on every input.
    The phase stays within 0.4 of 0 or pi.  Near pi/2 the datum barely
    excites the slowest radial mode, so faster modes still dominate the fit
    window F/F(0) in [1e-3, 1e-1] and the fitted rate reads up to 5.75, where
    the radial gap is 5; the rate check speaks of the asymptotic regime only.
    """
    d, m = FLOW["d"], FLOW["m"]
    jobs = []
    for gamma in (0.0, 0.5):
        a = rng.uniform(0.05, 0.15)
        phi = rng.choice((0.0, math.pi)) + rng.uniform(-0.4, 0.4)

        def run(gamma=gamma, a=a, phi=phi):
            base = flow.stationary_profile(m, gamma, d, FLOW["mass"])

            def datum(r):
                return base(r) * (1.0 + a * np.cos(np.log(np.maximum(r, 1e-12)) + phi))

            return flow.run_decay(datum, m, gamma, T=FLOW["T"], d=d,
                                  n_cells=FLOW["cells"], r_out=FLOW["r_out"],
                                  record_every=10)

        def check(s, gamma=gamma):
            return oracles.check_flow(s.t, s.F, s.I, s.mass, d, m, gamma)

        jobs.append(Job(f"run_decay gamma={gamma} a={a:.4f} phi={phi:.4f}",
                        run, check, flow=True))
    return jobs


# -- spectral-gap ---------------------------------------------------------------

def _gap_check(d, p, reference=None):
    """Check a hardy_poincare_gap result; reference holds the radial sector
    of the same (d, p) at twice the grid size, once it has been solved."""
    def check(res):
        gap_value, info = res
        radial = info["by_sector"][0]
        out = oracles.check_gap(gap_value, radial, d, p)
        if reference:
            out += oracles.check_rel("radial sector n vs n/2", radial,
                                     reference[0], 1e-3)
        return out
    return check


def spectral_gap(rng: random.Random) -> list[Job]:
    """Constrained radial-sector solves on n = 2000 grids, the d = 3 gap and
    the gamma > 0 spectrum cross-checked at n = 1000, plus one call that
    fails today for a grid-size reason."""
    p3 = rng.uniform(1.7, 2.5)
    p4 = rng.uniform(1.6, 1.9)
    gamma = rng.uniform(0.1, 0.5)
    ps = rng.uniform(1.8, 2.2)
    fine_radial: list[float] = []
    fine_lam: list[float] = []

    def gap_job(d, p, n):
        return lambda: spectral.hardy_poincare_gap(d, p, n=n)

    def keep_radial(res):
        fine_radial[:] = [res[1]["by_sector"][0]]
        return _gap_check(3, p3)(res)

    def spectrum(n):
        return lambda: ckn("spectrum", "--d", 3, "--gamma", gamma, "--p", ps,
                           "--ell", 0, "--n", n, "--format", "json")

    def check_fine(res):
        lam = res.json()["lambda_min"]
        fine_lam[:] = [lam]
        return [] if lam > 0 else [f"constrained lambda {lam!r} <= 0"]

    def check_coarse(res):
        lam = res.json()["lambda_min"]
        out = [] if lam > 0 else [f"constrained lambda {lam!r} <= 0"]
        if not fine_lam:
            return out + ["no n = 2000 value to compare with"]
        return out + oracles.check_rel("spectrum n vs n/2", lam, fine_lam[0], 1e-3)

    return [
        Job(f"hardy_poincare_gap(3, {p3:.4f}, n=2000)", gap_job(3, p3, 2000),
            keep_radial),
        Job(f"hardy_poincare_gap(4, {p4:.4f}, n=2000)", gap_job(4, p4, 2000),
            _gap_check(4, p4)),
        Job(f"hardy_poincare_gap(3, {p3:.4f}, n=1000)", gap_job(3, p3, 1000),
            _gap_check(3, p3, fine_radial)),
        Job(f"ckn spectrum --ell 0 gamma={gamma:.4f} p={ps:.4f} n=2000",
            spectrum(2000), check_fine),
        Job(f"ckn spectrum --ell 0 gamma={gamma:.4f} p={ps:.4f} n=1000",
            spectrum(1000), check_coarse),
        Job("hardy_poincare_gap(5, 1.2, n=1000)", gap_job(5, 1.2, 1000),
            _gap_check(5, 1.2), known_fault="EigenSolverFailure"),
    ]


# -- gamma-sweep ----------------------------------------------------------------

def gamma_sweep(rng: random.Random) -> list[Job]:
    """ckn sweep --workers 1 along gamma in [0, stop] at two d and two ell on
    n = 2000, and at n = 1000 on every sixth point of the ell = 1 grids.

    The 1e-5 zero-mode check runs at d = 3, as in the acceptance suite: at
    d = 4 the n = 2000 grid itself leaves the translation mode at about 1e-5
    (0.85e-5 at p = 1.3, 1.4e-5 at p = 1.8).
    """
    stop = rng.uniform(0.09, 0.11)
    cases = [(3, rng.uniform(1.9, 2.1)), (4, rng.uniform(1.45, 1.55))]
    curves: dict = {}
    jobs = []

    def sweep(d, p, ell, n, points):
        return lambda: ckn("sweep", "--d", d, "--p", p, "--gamma-start", 0.0,
                           "--gamma-stop", stop, "--gamma-points", points,
                           "--ell", ell, "--n", n, "--workers", 1,
                           "--format", "json")

    def points(res):
        pts = res.json()["points"]
        return [pt["gamma"] for pt in pts], [pt["lambda_min"] for pt in pts]

    def keep(key):
        def check(res):
            curves[key] = points(res)
            return []
        return check

    for d, p in cases:
        def check(res, d=d):
            if (d, 1) not in curves or (d, 2) not in curves:
                return ["no n = 2000 curves to compare with"]
            g_coarse, lam_coarse = points(res)
            gammas, lam1 = curves[(d, 1)]
            _, lam2 = curves[(d, 2)]
            probes = {g: (lam1[6 * k], lam) for k, (g, lam)
                      in enumerate(zip(g_coarse, lam_coarse))}
            return oracles.check_sweep(gammas, lam1, lam2, probes,
                                       zero_mode=(d == 3))

        for ell in (1, 2):
            jobs.append(Job(f"ckn sweep d={d} p={p:.4f} ell={ell} n=2000",
                            sweep(d, p, ell, 2000, 19), keep((d, ell))))
        jobs.append(Job(f"ckn sweep d={d} p={p:.4f} ell=1 n=1000",
                        sweep(d, p, 1, 1000, 4), check))
    return jobs


# -- variational ----------------------------------------------------------------

def variational(rng: random.Random) -> list[Job]:
    """Best constant by minimisation, ground state by shooting, norms of the
    explicit optimizer, the selection integrals, and one norm that fails today."""
    gm, pm = rng.uniform(0.1, 0.2), rng.uniform(1.95, 2.05)
    gs, ps = rng.uniform(0.2, 0.3), rng.uniform(1.95, 2.05)
    psel = rng.uniform(1.9, 2.1)
    triples = []
    for d in (3, 4, 5):
        gamma = rng.uniform(0.0, 0.5)
        p_max = (d - gamma) / (d - 2)
        triples.append((d, gamma, 1.0 + rng.uniform(0.25, 0.75) * (p_max - 1.0)))

    def check_minimize(res):
        r = res.json()
        return (oracles.check_rel("best quotient", r["best_quotient"],
                                  oracles.quotient(3, gm, pm), 1e-4)
                + oracles.check_rel("J", r["J"],
                                    oracles.energy_constant(3, gm, pm), 1e-4))

    def check_shoot(res):
        return oracles.check_rel("v0", res.json()["v0"],
                                 oracles.shooting_v0(3, gs, ps), 1e-6)

    def norms(d, gamma, p):
        def run():
            pp = params.validate(d, gamma, p)
            w = profiles.w_gamma_star(pp)
            return (profiles.weighted_norm(w, 2.0 * p, gamma, pp),
                    profiles.weighted_norm(w, p + 1.0, gamma, pp),
                    profiles.gradient_norm(w, pp),
                    profiles.quotient(w, pp))

        def check(res):
            n2p, np1, grad, quot = res
            return (oracles.check_rel("L^2p norm", n2p,
                                      oracles.weighted_norm(d, gamma, p, 2 * p), 1e-10)
                    + oracles.check_rel("L^(p+1) norm", np1,
                                        oracles.weighted_norm(d, gamma, p, p + 1), 1e-10)
                    + oracles.check_rel("gradient norm", grad,
                                        oracles.gradient_norm(d, gamma, p), 1e-10)
                    + oracles.check_rel("quotient", quot,
                                        oracles.quotient(d, gamma, p), 1e-10))
        return run, check

    def check_selection_common(r, d, p):
        return (oracles.check_rel("total K", r["total_K_quadrature"],
                                  oracles.total_K(d, p), 1e-8)
                + oracles.check_rel("isotropy factor", r["isotropy_diagonal_factor"],
                                    (d - 2) / d, 1e-12))

    def check_angular(res):
        r = res.json()
        rows = np.array(r["rows"])
        s, ell, md = rows[:, 0], rows[:, 1], rows[:, 2]
        out = check_selection_common(r, 3, psel)
        if not (np.all(ell > 0) and np.all(np.diff(ell) < 0)):
            out.append("ell not positive and decreasing")
        worst = max(abs(a - oracles.m3(si)) / max(1.0, abs(oracles.m3(si)))
                    for si, a in zip(s, md))
        if not worst <= 1e-10:
            out.append(f"m_3 off its arctanh closed form by {worst:.2e}")
        return out

    def check_gprime(res):
        r = res.json()
        out = check_selection_common(r, 3, psel)
        if not all(row[1] > 0 for row in r["rows"]):
            out.append("G' not positive")
        return out

    def failing_norm():
        pp = params.validate(3, 0.0, 1.04)
        return profiles.gradient_norm(profiles.w_gamma_star(pp), pp)

    jobs = [
        Job(f"ckn minimize d=3 gamma={gm:.4f} p={pm:.4f}",
            lambda: ckn("minimize", "--d", 3, "--gamma", gm, "--p", pm,
                        "--format", "json"), check_minimize),
        Job(f"ckn shoot d=3 gamma={gs:.4f} p={ps:.4f}",
            lambda: ckn("shoot", "--d", 3, "--gamma", gs, "--p", ps,
                        "--tol", 1e-8, "--format", "json"), check_shoot),
    ]
    for d, gamma, p in triples:
        run, check = norms(d, gamma, p)
        jobs.append(Job(f"norms d={d} gamma={gamma:.4f} p={p:.4f}", run, check))
    jobs += [
        Job(f"ckn selection --curve angular p={psel:.4f}",
            lambda: ckn("selection", "--d", 3, "--p", psel, "--curve", "angular",
                        "--s-points", 40, "--format", "json"), check_angular),
        Job(f"ckn selection --curve gprime p={psel:.4f}",
            lambda: ckn("selection", "--d", 3, "--p", psel, "--curve", "gprime",
                        "--s-points", 6, "--format", "json"), check_gprime),
        Job("gradient_norm(w_gamma_star(3, 0, 1.04))", failing_norm,
            lambda g: oracles.check_rel("gradient norm", g,
                                        oracles.gradient_norm(3, 0.0, 1.04), 1e-10),
            known_fault="NaNEncountered"),
    ]
    return jobs


BUILDERS = {"flow-decay": flow_decay, "spectral-gap": spectral_gap,
            "gamma-sweep": gamma_sweep, "variational": variational}


def make(name: str, seed: int) -> list[Job]:
    """Generate the workload's inputs from the seed and return its jobs."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
