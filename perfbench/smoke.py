"""Smoke test of the benchmark itself, at tiny sizes (about a minute on 2 cores).

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, for every workload; that the outputs pass their
checks; and that traced span trees are well formed: every span starts and
ends on one thread and lies inside its parent, including work the Monte
Carlo pool runs on its worker threads.  Exits 1 on the first failure.
"""

import json
import math
import os
import sys

import run

run.activate()

import spans  # noqa: E402  (needs the checkout's package on sys.path)
import workloads  # noqa: E402

from subweibull import concentration, dist, montecarlo  # noqa: E402


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_metrics(kind: str, workload: str, metrics: dict, named: list) -> None:
    names = [m["name"] for m in named]
    if sorted(metrics) != sorted(names):
        fail(f"{workload} {kind}: emitted {sorted(set(metrics) ^ set(names))} "
             "differently from BENCHMARK.json")
    for entry in named:
        value = metrics[entry["name"]]
        if entry["unit"] != run.unit_of(entry["name"]):
            fail(f"{entry['name']}: BENCHMARK.json unit {entry['unit']!r}, "
                 f"emitted {run.unit_of(entry['name'])!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload} {entry['name']} = {value!r} is not a finite number")
        if kind == "end_to_end" and not value > 0:
            fail(f"{workload} {entry['name']} = {value!r} is not positive")


def check_runs(workload: str, runs: list) -> None:
    for r in runs:
        if r["failed"] or r["tree_problems"]:
            fail(f"{workload}: {r['problems'][:3]} {r['tree_problems'][:3]}")


def check_pool_spans() -> None:
    """Spans on pool threads must hang under the span that submitted the work."""
    plan = montecarlo.ExperimentPlan(
        concentration.VectorModel(dist.DistributionSpec.exponential(), 16, 1.0), 4_096, 1
    )
    tracer = spans.Tracer()
    tracer.install()
    saved = os.environ[run.ENV_THREADS]
    os.environ[run.ENV_THREADS] = "2"
    try:
        montecarlo.deviations(plan)
    finally:
        os.environ[run.ENV_THREADS] = saved
        tracer.uninstall()
    problems = spans.tree_problems(tracer.spans)
    if problems:
        fail(f"span tree: {problems[:3]}")
    root = [s for s in tracer.spans if s.parent is None]
    if [s.name for s in root] != ["montecarlo.deviations"]:
        fail(f"expected one root span montecarlo.deviations, got {[s.name for s in root]}")
    pooled = [s for s in tracer.spans if s.name == "dist.sample_streams"]
    if not pooled or any(s.parent is not root[0] for s in pooled):
        fail("pool-thread sample_streams spans are not children of deviations")
    if any(s.tid == root[0].tid for s in pooled):
        fail("expected sample_streams spans on pool threads only")
    if montecarlo.deviations(plan).tobytes() != montecarlo.deviations(plan).tobytes():
        fail("deviations differ between calls")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    os.environ[run.ENV_THREADS] = str(len(os.sched_getaffinity(0)))
    out_dir = run.WORK_DIR / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    check_pool_spans()
    print("smoke: pool spans ok")
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, workloads.DEFAULT_SEED, str(out_dir),
                                   workloads.SMOKE_SIZES)
        metrics, detail = run.measure_end_to_end(workload, 0.0, workloads.DEFAULT_SEED)
        check_runs(name, detail["runs"])
        check_metrics("end_to_end", name, metrics, spec["end_to_end"])
        metrics, detail = run.measure_layers(workload, 0.0)
        check_runs(name, detail["runs"])
        check_metrics("per_layer", name, metrics, spec["per_layer"])
        digests = [d for r in detail["runs"] for d in r["digests"]]
        if any(d != digests[0] for d in digests):
            fail(f"{name}: traced, untraced and 1-thread digests differ")
        print(f"smoke: {name} ok, top self times {detail['top_self_s'][:3]}")
    os.rmdir(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
