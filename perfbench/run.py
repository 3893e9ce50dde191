"""Benchmark driver for the subweibull package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload growth --seed 20240817 --seconds 18 --trace 0

One closed-loop client in one process: the next call starts when the previous
one returns.  ``SUBWEIBULL_THREADS`` is pinned to the number of cores this
process may run on.  The package is imported from the checkout's ``src``
directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs untraced passes, then the same passes with every public entry point
wrapped in spans (see ``spans.py``), and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with an
environment block, goes to ``.perfbench/results/`` in the checkout.

``--seed heldout`` selects the held-out seed (``workloads.HELD_OUT_SEED``),
reserved for confirming a claimed gain on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "subweibull"
WORK_DIR = ROOT / ".perfbench"
RESULTS_DIR = WORK_DIR / "results"
ENV_THREADS = "SUBWEIBULL_THREADS"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def activate() -> None:
    """Make ``import subweibull`` load the checkout's own source tree."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(HERE))
    import subweibull

    if Path(subweibull.__file__).resolve().parent != PACKAGE.resolve():
        raise SetupError(f"imported subweibull from {subweibull.__file__}, not {PACKAGE}")


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".draws", ".rows")):
        return "count"
    return "ratio"


def parse_seed(raw: str) -> int:
    from workloads import HELD_OUT_SEED

    if raw == "heldout":
        return HELD_OUT_SEED
    try:
        seed = int(raw)
    except ValueError:
        raise SetupError(f"seed must be an integer or 'heldout', got {raw!r}") from None
    if not 0 <= seed < 2**63:
        raise SetupError(f"seed must be in [0, 2**63), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# measurement


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def call_percentile(call_ms: list[list[float]], q: int) -> float:
    """The q-th percentile over a pass's calls of each call's mean latency.

    ``call_ms`` holds one list per pass, in call order.  Averaging each call
    over the passes first keeps one slow pass from moving the percentile: a
    percentile pooled over few calls per run is close to the slowest of them,
    and over calls of very different costs it jumps from one to the next.
    """
    return percentile([statistics.mean(column) for column in zip(*call_ms)], q)


def run_passes(workload, seconds: float, tracer=None) -> dict:
    """Repeat passes of ``workload`` while the next one fits in ``seconds``.

    At least one pass runs.  Calls are timed one by one; outputs are checked
    after the pass, outside the timed region.  With a tracer, spans are
    summarized per pass before the checks run.

    A single-threaded workload runs pass i on the i-th allowed core, in turn.
    The cores of a shared host slow down and recover independently, for
    seconds at a time, and a lone thread otherwise stays on one of them for
    the whole run.
    """
    import spans

    out = {"walls": [], "call_ms": [], "attempted": 0, "failed": 0,
           "problems": [], "digests": [], "summaries": [], "tree_problems": []}
    cores = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        while True:
            if workload.single_threaded:
                os.sched_setaffinity(0, {cores[len(out["walls"]) % len(cores)]})
            if tracer is not None:
                tracer.reset()
            results, pass_ms = [], []
            pass_start = perf_counter()
            for call in workload.calls:
                error = None
                with redirect_stderr(StringIO()):
                    t0 = perf_counter()
                    try:
                        result = call.invoke()
                    except Exception:  # a failed call is counted, not fatal
                        result, error = None, traceback.format_exc()
                    t1 = perf_counter()
                pass_ms.append((t1 - t0) * 1e3)
                results.append((call, result, error))
            wall = perf_counter() - pass_start
            out["walls"].append(wall)
            out["call_ms"].append(pass_ms)
            if tracer is not None:
                out["summaries"].append(spans.summarize(tracer.spans))
                out["tree_problems"] += spans.tree_problems(tracer.spans)
                tracer.reset()
            errors = [error for _, _, error in results if error]
            outputs = [result for _, result, _ in results]
            checked = [[] for _ in results] if errors else workload.check(outputs)
            for (call, _, error), problems in zip(results, checked):
                problems = [error] if error else problems
                out["attempted"] += 1
                if problems:
                    out["failed"] += 1
                    out["problems"].append({"call": call.label, "problems": problems})
            if not errors:
                digest = workload.digest(outputs)
                if digest is not None:
                    out["digests"].append(digest)
            if perf_counter() - start + wall > seconds:
                return out
    finally:
        os.sched_setaffinity(0, cores)


def setup_times(workload: str, seed: int) -> list[float]:
    """Process start to inputs built, in fresh interpreters, one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise SetupError(f"set-up probe failed (exit {rc}, said {line.strip()!r})")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def measure_end_to_end(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    probes = setup_times(workload.name, seed)
    run = run_passes(workload, seconds)
    metrics = {
        "setup_s": statistics.median(probes),
        # means, not medians: a shared host runs in fast and slow phases that
        # last seconds; a median over passes jumps between them, a mean weighs them
        "wall_s": statistics.mean(run["walls"]),
        "call_p50_ms": call_percentile(run["call_ms"], 50),
        "call_p95_ms": call_percentile(run["call_ms"], 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"setup_probes_s": probes, "runs": [run]}
    return metrics, detail


def measure_layers(workload, seconds: float) -> tuple[dict, dict]:
    import spans

    untraced = run_passes(workload, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    saved = os.environ[ENV_THREADS]
    try:
        traced = run_passes(workload, seconds / 2, tracer)
        single = None
        if workload.name in ("growth", "tail_small_n"):
            os.environ[ENV_THREADS] = "1"
            single = run_passes(workload, 0.0, tracer)
    finally:
        os.environ[ENV_THREADS] = saved
        tracer.uninstall()
    runs = [untraced, traced] + ([single] if single else [])
    metrics = spans.median_metrics([spans.layer_metrics(s) for s in traced["summaries"]])
    speedup = 0.0
    if single is not None:
        one_thread = spans.layer_metrics(single["summaries"][0])["montecarlo.deviations.busy_s"]
        speedup = one_thread / metrics["montecarlo.deviations.busy_s"]
    metrics["montecarlo.pool_speedup"] = speedup
    metrics["trace.overhead_frac"] = statistics.mean(traced["walls"]) / statistics.mean(untraced["walls"]) - 1.0
    detail = {
        "runs": runs,
        "top_self_s": spans.top_self_times(traced["summaries"][-1]),
        "single_thread_pass": single is not None,
    }
    return metrics, detail


def code_digest() -> str:
    """sha256 over the package's source files, so results name the code they timed."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        ENV_THREADS: os.environ[ENV_THREADS],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "code_sha256": code_digest(),
        "seed": seed,
    }


def session_digest_problems(record: dict) -> list[str]:
    """Digest disagreements within this run and with earlier runs of the same code."""
    key = ("workload", "seed", "sizes")
    digests = [d for run in record["detail"]["runs"] for d in run["digests"]]
    problems = [f"pass digests differ: {d}" for d in digests if d != digests[0]]
    if not digests:
        return problems
    for path in sorted(RESULTS_DIR.glob("*.json")):
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        same = all(earlier.get(k) == record[k] for k in key) and (
            earlier.get("environment", {}).get("code_sha256")
            == record["environment"]["code_sha256"]
        )
        if same and earlier.get("digest") not in (None, digests[0]):
            problems.append(f"digest differs from {path.name}")
    return problems


def reference_digest(workload: str, seed: int, sizes: dict):
    """This commit's recorded digest for the inputs, or None if none is recorded."""
    table = json.loads((HERE / "reference_digests.json").read_text())
    entry = table.get(workload, {}).get(str(seed))
    if entry is None or entry.get("sizes") != sizes:
        return None
    return entry["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="20240817",
                        help="workload seed, or 'heldout' for the held-out seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    try:
        activate()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}")
        seed = parse_seed(args.seed)
        os.environ[ENV_THREADS] = str(len(os.sched_getaffinity(0)))
        tmp.mkdir(parents=True, exist_ok=True)
        workload = workloads.build(args.workload, seed, str(tmp))
        if args.trace:
            metrics, detail = measure_layers(workload, args.seconds)
        else:
            metrics, detail = measure_end_to_end(workload, args.seconds, seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if tmp.is_dir():
            for leftover in tmp.iterdir():
                leftover.unlink()
            tmp.rmdir()

    record = {
        "workload": args.workload,
        "seed": seed,
        "sizes": workloads.SIZES[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(seed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "detail": detail,
    }
    if args.workload == "verify":
        record["note"] = ("check_reproducibility sets SUBWEIBULL_THREADS to 1, then 4, "
                          "for its own two short reports, and restores it")
    runs = detail["runs"]
    # a pass whose digest disagrees counts as one more failed operation
    digest_problems = session_digest_problems(record)
    tree_problems = [p for r in runs for p in r["tree_problems"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(digest_problems)
    correct = failed == 0 and not tree_problems
    first = next((d for r in runs for d in r["digests"]), None)
    reference = reference_digest(args.workload, seed, record["sizes"])
    record.update({
        "digest": first,
        "digest_matches_reference": None if reference is None else first == reference,
        "fail_frac": failed / attempted,
        "digest_problems": digest_problems,
        "span_tree_problems": tree_problems[:20],
    })
    for run in runs:
        del run["summaries"], run["tree_problems"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{seed}-trace{args.trace}-{time.time_ns()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    problems = [p for r in runs for p in r["problems"]]
    for problem in (digest_problems + tree_problems + problems)[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
