"""Benchmark runner for varns: one command, three workloads.

    python3 bench/run.py --workload thm1-calibrated --seed 1 --seconds 40 --trace 0
    python3 bench/run.py            # every workload in turn, seed 0

Each workload runs in a child process of its own, one after another, so its
peak RSS is its own.  Before that, a few set-up-only children import varns
and build the workload's inputs from scratch; ``setup_s`` is the median of
their set-up times and the workload child's own.  The child repeats whole
rounds of the workload until another round would overrun ``--seconds`` and
reports the median round.  ``VARNS_THREADS`` is removed from the children's
environment, so the library's default FFT worker count is what is measured.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the library's layers are wrapped
(see ``tracing.py``) and the per-layer metrics are reported instead.  A
record of the machine, the inputs, the metrics and a digest of the outputs
is written to ``bench/_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
WORKLOADS = ("thm1-calibrated", "thm2-horizon-scan", "campaign-sweep")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170

# end-to-end metrics: (name, unit); every workload reports all of them
END_TO_END = (("setup_s", "s"), ("time_to_result_s", "s"), ("peak_rss_mb", "MB"))


# ------------------------------------------------------------------ child side

def _import_library():
    """Import varns from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(BENCH))
    import varns  # noqa: F401  (PYTHONPATH points at this checkout's src)
    where = Path(varns.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"varns imported from {where}, not from {ROOT / 'src'}")


def _child(args) -> dict:
    start = time.perf_counter()
    _import_library()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    workdir = tempfile.mkdtemp(prefix=f"work-{os.getpid()}-", dir=RUNS)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.role == "setup":
            return {"setup_s": setup_s}
        return _measure(args, wl, workloads, tracer) | {"setup_s": setup_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, workloads, tracer) -> dict:
    import resource
    import traceback

    import numpy
    import scipy

    if tracer is not None:
        tracer.phase = "round"
    attempted = failed = 0
    problems: list[str] = []
    phases: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        ops = workloads.Ops(None if tracer is None else
                            lambda phase: setattr(tracer, "phase", phase))
        try:
            times = wl.round(ops)
        except Exception:  # the round stops; its remaining operations count as failed
            traceback.print_exc()
            times = None
        attempted += wl.ops_per_round
        failed += wl.ops_per_round - ops.succeeded
        problems += ops.problems
        if times is not None:
            for key, value in times.items():
                phases.setdefault(key, []).append(value)
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > args.seconds:
            break
    rounds = attempted // wl.ops_per_round
    if not phases:
        raise SystemExit("no round of the workload completed")
    per_round = [sum(vals) for vals in zip(*phases.values())]
    out = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "phases": {k: statistics.median(v) for k, v in phases.items()},
        "phase_samples": phases,
        "time_to_result_s": statistics.median(per_round),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": wl.workers,
        "digest": wl.digest.hexdigest(),
        "probe_failures": getattr(wl, "probe_failures", []),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        import tracing
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        out["per_layer"] = {name: {"value": value, "unit": units[name]} for name, value
                            in tracer.metrics(rounds, out["time_to_result_s"]).items()}
        tracer.write(RUNS / f"TRACE_{args.workload}_seed{args.seed}.jsonl")
    return out


# ----------------------------------------------------------------- parent side

def _spawn(role: str, args, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VARNS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} {role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "platform": platform.platform(),
    }


def run_workload(args, workload: str) -> dict:
    setups = []
    if not args.trace:
        setups = [_spawn("setup", args, workload)["setup_s"] for _ in range(SETUP_CHILDREN)]
    work = _spawn("work", args, workload)
    setups.append(work["setup_s"])
    ok = not work["problems"]
    if args.trace:
        metrics = work["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "time_to_result_s": work["time_to_result_s"],
                  "peak_rss_mb": work["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for problem in work["problems"]:
        print(f"{workload}: CHECK FAILED {problem}")
    print(f"{workload}: seed {args.seed}, {work['rounds']} round(s), "
          f"{work['attempted']} operations attempted, {work['failed']} failed, "
          f"FFT workers {work['workers']}, checks {'passed' if ok else 'FAILED'}")
    if work["probe_failures"]:
        print(f"{workload}: Luxemburg scale probes failing at 10^k for k in "
              f"{work['probe_failures']}")
    if not args.trace:
        # the parts of time_to_result_s, by name
        for name, value in work["phases"].items():
            print(f"{workload}: {name} {value:.4f} s")
    for name, m in metrics.items():
        print(f"{workload}: {name} {m['value']:.6g} {m['unit']}")

    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), "versions": work["versions"],
        "fft_workers": work["workers"], "rounds": work["rounds"],
        "attempted": work["attempted"], "failed": work["failed"],
        "probe_failures": work["probe_failures"], "problems": work["problems"],
        "setup_samples_s": setups, "phases_s": work["phase_samples"],
        "metrics": metrics, "output_digest": work["digest"],
    }
    with open(RUNS / f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return {"correct": ok, "attempted": work["attempted"], "failed": work["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--role", default="main", choices=("main", "setup", "work"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    RUNS.mkdir(exist_ok=True)
    if args.role != "main":
        print(json.dumps(_child(args)))
        return 0

    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload)))
        return 0
    results = {wl: run_workload(args, wl) for wl in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{name}": m for wl, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
