#!/usr/bin/env python3
"""Stage and layer benchmark of the confgen pipeline.

    python3 perfbench/run.py --workload toy10-fit --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports confgen from ./src,
reads ./benchmarks/toy10.json and takes metric names and units from
./BENCHMARK.json. Scratch files go to ./.bench_work and are removed at exit;
a traced run keeps its spans in ./.bench_out.

A run sets its workload up several times and reports the median set-up time,
then repeats the workload's measured stages (a round) for at least
`--seconds` and at least three rounds, and reports medians over rounds. Stage
times are scaled to a reference machine speed measured around each stage
(see speed.py); raw seconds are printed beside them. With `--trace 1` the
untraced rounds are followed by one traced round, whose spans give the
per-layer metrics. Every stage's output is checked, and the quality figures
of every round must be identical.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit codes: 0 all checks passed, 1 a check failed,
2 the checkout or the arguments are incomplete.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy loads, and numpy loads only after this.
# Under CPU contention, default BLAS threading made the model's small matmuls
# about 80x slower.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0  # a set-up of milliseconds repeats until this is spent
SETUP_MAX_REPEATS = 200
MIN_ROUNDS = 3


def _fingerprint(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rate(log, stage: str) -> float:
    """Median work per second of `stage` over its entries in `log`."""
    rates = [r.work / r.seconds for r in log if r.stage == stage]
    return statistics.median(rates) if rates else 0.0


def _seconds(log) -> float:
    return sum(r.seconds for r in log)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
    }


def measure(workload, p, seconds: float, trace: bool) -> dict:
    """Set up, run the rounds and, if asked, the traced round; returns raw results."""
    from workloads import CheckFailed

    setup_times: list[float] = []
    fingerprints = set()
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS
            and len(setup_times) < SETUP_MAX_REPEATS):
        p.log = []
        workload.setup(p)
        setup_times.append(_seconds(p.log))
        fingerprints.add(_fingerprint(p.dir))
        if trace:
            break
    if len(fingerprints) != 1:
        raise CheckFailed("repeated set-up wrote different files")

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        p.log = []
        quality = workload.round(p)
        rounds.append((p.log, quality))
    if len({json.dumps(q, sort_keys=True) for _, q in rounds}) != 1:
        raise CheckFailed(f"quality differs between rounds: {[q for _, q in rounds]}")

    traced = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        p.log, p.tracer = [], tracer
        tracer.install()
        try:
            quality = workload.round(p)
        finally:
            tracer.uninstall()
            p.tracer = None
        if quality != rounds[0][1]:
            raise CheckFailed(f"tracing changed the results: {quality} != {rounds[0][1]}")
        traced = (p.log, tracer)
    return {"setup_times": setup_times, "rounds": rounds, "traced": traced}


def end_to_end(raw: dict) -> dict:
    return {
        "setup_s": statistics.median(raw["setup_times"]),
        "wall_s": statistics.median(_seconds(log) for log, _ in raw["rounds"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(raw: dict) -> dict:
    from tracing import layer_metrics

    log, tracer = raw["traced"]
    # span times get the traced round's own machine-speed scale
    out = layer_metrics(tracer, _seconds(log) / sum(r.raw_seconds for r in log))
    measured = [entry for log_, _ in raw["rounds"] for entry in log_]
    quality = raw["rounds"][0][1]
    out["cli.make_data.steps_per_s"] = _rate(measured, "make-data")
    out["cli.train.records_per_s"] = _rate(measured, "train")
    out["cli.generate.samples_per_s"] = _rate(measured, "generate")
    out["cli.generate.attempted"] = next(
        (r.work for r in measured if r.stage == "generate"), 0)
    out["cli.generate.success_rate"] = quality.get("generate.success_rate", 0.0)
    out["cli.train.best_val_elbo"] = quality.get("train.best_val_elbo", 0.0)
    out["cli.evaluate.mmd2_joint_median"] = quality.get("evaluate.mmd2_joint_median", 0.0)
    untraced = statistics.median(_seconds(log_) for log_, _ in raw["rounds"])
    traced = _seconds(log)
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "confgen" / "cli.py", ROOT / "benchmarks" / "toy10.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a confgen checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, CheckFailed, Pipeline

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    p = Pipeline(ROOT, workdir, args.seed)
    env = _environment(args.seed)
    print(json.dumps({"environment": env}))
    try:
        raw = measure(WORKLOADS[args.workload], p, args.seconds, bool(args.trace))
    except CheckFailed as e:
        print(f"check failed: {e}")
        print(json.dumps({"correct": False, "attempted": max(1, len(p.log)),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    for k, (log, _) in enumerate(raw["rounds"], 1):
        print(f"round {k}: " + ", ".join(
            f"{r.stage} {r.seconds:.3f} s (raw {r.raw_seconds:.3f} s)" for r in log))
    print(json.dumps({"quality": raw["rounds"][0][1]}))
    values = per_layer(raw) if args.trace else end_to_end(raw)
    if set(values) != {m["name"] for m in listed}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in listed})} "
              f"are not both computed and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        raw["traced"][1].write(out_dir / f"trace-{args.workload}-s{args.seed}.json",
                               {"workload": args.workload, "environment": env,
                                "metrics": values})
    attempted = sum(len(log) for log, _ in raw["rounds"])
    if raw["traced"]:
        attempted += len(raw["traced"][0])
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
