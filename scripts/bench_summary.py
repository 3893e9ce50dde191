#!/usr/bin/env python3
"""Summarize the benchmark runs of two checkouts into one ``BENCH_<n>.json``.

Usage, after running ``perfbench/run.py`` in both checkouts:

    python3 scripts/bench_summary.py PARENT_CHECKOUT CHANGE_CHECKOUT --number 10 \\
        --summary "what the change does" [--note TEXT ...] [--extra BLOCK.json]

Every ``.perfbench/results/*.json`` of each checkout is read, and they must
all be runs of one code: a checkout whose results carry more than one
``code_sha256`` (runs left from an earlier revision) is refused, with each
hash and its run count, rather than pooled.  Runs are
grouped by workload and seed; the default seed keeps the workload's name,
any other seed is named ``<workload>_seed_<seed>`` (``_heldout_seed_`` for
the held-out one).  Within a group, each side's runs are taken in the order
they were written, so when the sides ran alternately the i-th parent run and
the i-th change run form a pair.

Untraced runs (``--trace 0``) give ``end_to_end``: per metric of
``BENCHMARK.json``, each side's median and quartiles, the change's median
over the parent's, the pairs the change wins, whether the median gap
exceeds the parent's interquartile range, and ``claim_rule_met``: whether a
gain may be claimed, which needs the change to win at least 9 of 10 pairs
(a tie is a win for neither side) and that median gap.  Traced runs
(``--trace 1``) give ``per_layer``: each side's median of every metric that
is nonzero on either side.  ``--extra`` merges a JSON object's keys into the
output, for measurements made outside the benchmark.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

DEFAULT_SEED = 20_240_817
HELD_OUT_SEED = 19_090_677
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"


def load_runs(checkout: Path) -> list[dict]:
    """The checkout's results records, oldest first (file names end in a ns time stamp)."""
    results = checkout / ".perfbench" / "results"
    paths = sorted(results.glob("*.json"), key=lambda path: int(path.stem.rsplit("-", 1)[1]))
    if not paths:
        raise SystemExit(f"no benchmark results under {results}")
    records = [json.loads(path.read_text()) for path in paths]
    runs = collections.Counter(r["environment"]["code_sha256"] for r in records)
    if len(runs) > 1:
        listed = ", ".join(
            f"{code}: {n} run{'s' if n > 1 else ''}" for code, n in sorted(runs.items())
        )
        raise SystemExit(f"{results} holds runs of {len(runs)} code hashes ({listed}); "
                         "keep the runs of one")
    return records


def group_name(record: dict) -> str:
    seed = record["seed"]
    if seed == DEFAULT_SEED:
        return record["workload"]
    kind = "heldout_seed" if seed == HELD_OUT_SEED else "seed"
    return f"{record['workload']}_{kind}_{seed}"


def grouped(records: list[dict], trace: int) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for record in records:
        if record["trace"] == trace:
            groups.setdefault(group_name(record), []).append(record)
    return groups


def spread(values: list[float]) -> dict:
    q1, q3 = (values[0], values[0]) if len(values) == 1 else statistics.quantiles(
        values, n=4, method="inclusive"
    )[::2]
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def one_value(records: list[dict], key: str):
    """The environment field shared by every record, or the sorted distinct values."""
    values = sorted({r["environment"][key] for r in records}, key=str)
    return values[0] if len(values) == 1 else values


def side_summary(records: list[dict], metrics: list[str]) -> dict:
    runs = [run for r in records for run in r["detail"]["runs"]]
    out = {
        "runs": len(records),
        "failed_ops": sum(run["failed"] for run in runs)
        + sum(len(r["digest_problems"]) for r in records),
        "attempted_ops": sum(run["attempted"] for run in runs),
        "passes_per_run": [sum(len(run["walls"]) for run in r["detail"]["runs"]) for r in records],
        "digest_matches_reference": sorted(
            {r["digest_matches_reference"] for r in records}, key=str
        ),
    }
    for name in metrics:
        out[name] = spread([r["metrics"][name]["value"] for r in records])
    return out


def end_to_end(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    lower = {m["name"]: m["better"] == "lower" for m in declared}
    old, new = side_summary(parent, names), side_summary(change, names)
    pairs = list(zip(parent, change))
    ratio, wins, clear, claim = {}, {}, {}, {}
    for name in names:
        sign = 1.0 if lower[name] else -1.0
        p_med, c_med = old[name]["median"], new[name]["median"]
        ratio[name] = round(c_med / p_med, 6) if p_med else None
        won = sum(
            sign * (p["metrics"][name]["value"] - c["metrics"][name]["value"]) > 0.0
            for p, c in pairs
        )
        wins[name] = f"{won}/{len(pairs)}"
        clear[name] = sign * (p_med - c_med) > old[name]["q3"] - old[name]["q1"]
        claim[name] = bool(pairs) and 10 * won >= 9 * len(pairs) and clear[name]
    return {
        "parent": old,
        "change": new,
        "change_over_parent_median": ratio,
        "pairs_change_better": wins,
        "median_gap_exceeds_parent_iqr": clear,
        "claim_rule_met": claim,
    }


def per_layer(parent: list[dict], change: list[dict]) -> dict:
    def medians(records):
        names = records[0]["metrics"]
        return {n: statistics.median(r["metrics"][n]["value"] for r in records) for n in names}

    old, new = medians(parent), medians(change)
    moved = [n for n in old if old[n] or new.get(n)]
    return {
        "parent": {"runs": len(parent), **{n: round(old[n], 6) for n in moved}},
        "change": {"runs": len(change), **{n: round(new.get(n, 0.0), 6) for n in moved}},
    }


def summarize(parent_dir: Path, change_dir: Path, args) -> dict:
    declared = json.loads((change_dir / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    records = parent + change
    seconds = sorted({r["seconds"] for r in records})
    out = {
        "summary": args.summary,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
        f"{'/'.join(f'{s:g}' for s in seconds)} --trace T",
        "cores": one_value(records, "affinity_cores"),
        "python": one_value(records, "python"),
        "numpy": one_value(records, "numpy"),
        "scipy": one_value(records, "scipy"),
        "parent": {k: one_value(parent, k) for k in ("git_revision", "code_sha256")},
        "change": {k: one_value(change, k) for k in ("git_revision", "code_sha256")},
        "end_to_end": {},
        "per_layer": {},
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        old, new = grouped(parent, trace), grouped(change, trace)
        for name in sorted(old.keys() & new.keys()):
            out[key][name] = (
                end_to_end(old[name], new[name], declared)
                if trace == 0
                else per_layer(old[name], new[name])
            )
    for path in args.extra:
        out.update(json.loads(Path(path).read_text()))
    out["notes"] = [
        "pairs_change_better compares the i-th parent run with the i-th change run of a "
        "group, in the order each side's runs were written; better is the direction "
        f"BENCHMARK.json gives. q1 and q3 are {QUARTILES}.",
        "claim_rule_met: the change is better in at least 9/10 of the pairs, a tie "
        "counting for neither side, and the median gap exceeds the parent's IQR.",
        *args.note,
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--summary", required=True)
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--extra", action="append", default=[], help="JSON object to merge")
    parser.add_argument("--output", type=Path, help="default: BENCH_<n>.json in the change")
    args = parser.parse_args(argv)
    output = args.output or args.change / f"BENCH_{args.number}.json"
    output.write_text(json.dumps(summarize(args.parent, args.change, args), indent=1) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
