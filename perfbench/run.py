"""Benchmark cknlab end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload flow-decay --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's fixed batch of jobs until --seconds have
passed, checks every result against the oracles in ``oracles.py``, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  BLAS is pinned to one thread before numpy is imported; see
README.md for why.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one


def load(workload: str, seed: int):
    """Import cknlab and its scipy modules and build the workload's jobs.

    This is the timed set-up.  The package must come from this checkout's
    src/, never from anywhere else on the path.
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cknlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cknlab from {ROOT / 'src'}: {exc}")
    if Path(cknlab.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: cknlab imported from {cknlab.__file__}, "
                 f"not from {ROOT / 'src'}")
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    import cknlab.minimizer  # noqa: F401
    import cknlab.selection  # noqa: F401
    import cknlab.shooting  # noqa: F401
    import workloads

    return workloads, workloads.make(workload, seed)


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(jobs, workloads, tracer, log) -> tuple[float, int, list[str]]:
    """Run every job once; return (job seconds, failed count, check failures)."""
    busy = 0.0
    failed = 0
    problems = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failed operation; the round goes on
            busy += time.perf_counter() - t0
            failed += 1
            kind = type(exc).__name__
            if kind != job.known_fault:
                log(f"unexpected failure in {job.label}: {kind}: {exc}")
            continue
        busy += time.perf_counter() - t0
        problems += [f"{job.label}: {msg}" for msg in job.check(result)]
        if tracer is not None:
            if isinstance(result, workloads.CliResult):
                tracer.note_output(len(result.stdout.encode()))
            if job.flow:
                tracer.note_dt(*workloads.flow_dt_range(result))
    return busy, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("flow-decay", "spectral-gap", "gamma-sweep",
                             "variational"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the set-up only and print it (used internally)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    workloads, jobs = load(args.workload, args.seed)
    setup = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup))
        return 0
    setups = [setup] + [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_PROBES)]

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    walls, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        busy, n_failed, round_problems = run_round(jobs, workloads, tracer, log)
        walls.append(busy)
        attempted += len(jobs)
        failed += n_failed
        problems += round_problems
        if time.perf_counter() - start >= args.seconds:
            break
    for msg in problems:
        log(f"check failed: {msg}")

    setup_s = statistics.median(setups)
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    else:
        layer = tracer.metrics(len(walls))
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]}
                   for k, v in layer.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(walls), "round_wall_s": walls, "setup_samples_s": setups,
              "peak_rss_mb": peak_rss_mb, "jobs": [j.label for j in jobs],
              "problems": problems, "result": result}
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    else:
        # wall_s under tracing, against the untraced wall_s, is the overhead
        detail["traced_wall_s"] = wall_s
        tracer.write(OUT / f"trace-{stem}.json", detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
