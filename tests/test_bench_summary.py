"""The bench summary script: medians, quartiles and pair wins from results files."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_summary.py"
METRICS = ("setup_s", "wall_s", "call_p50_ms", "call_p95_ms", "peak_rss_mb")


def _load():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(checkout: Path, stamp: int, wall: float, *, seed=20_240_817, trace=0, failed=0):
    metrics = {name: {"value": 1.0, "unit": "s"} for name in METRICS}
    metrics["wall_s"]["value"] = wall
    if trace:
        metrics = {"streams.generator.calls": {"value": wall, "unit": "count"},
                   "tau.tau_norm.calls": {"value": 0.0, "unit": "count"}}
    record = {
        "workload": "growth",
        "seed": seed,
        "trace": trace,
        "seconds": 18.0,
        "environment": {"affinity_cores": 2, "python": "3.11.7", "numpy": "2", "scipy": "1",
                        "git_revision": checkout.name, "code_sha256": checkout.name},
        "metrics": metrics,
        "detail": {"runs": [{"walls": [wall] * 4, "attempted": 8, "failed": failed}]},
        "digest_matches_reference": True,
        "digest_problems": [],
    }
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"growth-{seed}-trace{trace}-{stamp}.json").write_text(json.dumps(record))


def _summarize(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / "BENCHMARK.json").parent.mkdir(parents=True, exist_ok=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # written out of order: pairs follow the time stamps, not the listing
    for stamp, p_wall, c_wall in ((30, 0.50, 0.52), (10, 0.60, 0.40), (20, 0.55, 0.45)):
        _write_run(parent, stamp, p_wall)
        _write_run(change, stamp, c_wall, failed=stamp == 20)
    _write_run(parent, 40, 0.7, seed=19_090_677)
    _write_run(change, 40, 0.3, seed=19_090_677)
    _write_run(parent, 50, 2000.0, trace=1)
    _write_run(change, 50, 400.0, trace=1)
    args = argparse.Namespace(summary="s", note=["n"], extra=[])
    return _load().summarize(parent, change, args)


def test_end_to_end_medians_quartiles_and_pairs(tmp_path):
    out = _summarize(tmp_path)
    growth = out["end_to_end"]["growth"]
    assert growth["parent"]["wall_s"] == {"median": 0.55, "q1": 0.525, "q3": 0.575}
    assert growth["change"]["wall_s"]["median"] == 0.45
    assert growth["pairs_change_better"]["wall_s"] == "2/3"
    assert growth["median_gap_exceeds_parent_iqr"]["wall_s"] is True
    assert growth["pairs_change_better"]["setup_s"] == "0/3"
    assert growth["change"]["failed_ops"] == 1 and growth["change"]["attempted_ops"] == 24
    assert growth["change"]["passes_per_run"] == [4, 4, 4]
    assert out["end_to_end"]["growth_heldout_seed_19090677"]["change"]["runs"] == 1
    assert out["parent"]["git_revision"] == "parent"
    assert out["cores"] == 2 and out["notes"][-1] == "n"


def test_claim_rule_needs_nine_in_ten_pairs_and_a_gap_past_the_iqr(tmp_path):
    out = _summarize(tmp_path)["end_to_end"]
    growth = out["growth"]
    # 2/3 pairs better, though the median gap clears the IQR
    assert growth["median_gap_exceeds_parent_iqr"]["wall_s"] is True
    assert growth["claim_rule_met"]["wall_s"] is False
    # every pair is a tie: better in none
    assert growth["claim_rule_met"]["setup_s"] is False
    assert out["growth_heldout_seed_19090677"]["claim_rule_met"]["wall_s"] is True


def test_claim_rule_counts_ties_for_neither_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / "BENCHMARK.json").parent.mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    walls = [(0.50 + 0.01 * i, 0.40 + 0.01 * i) for i in range(9)] + [(0.45, 0.45)]
    for stamp, (p_wall, c_wall) in enumerate(walls):
        _write_run(parent, stamp, p_wall)
        _write_run(change, stamp, c_wall)
    args = argparse.Namespace(summary="s", note=[], extra=[])
    growth = _load().summarize(parent, change, args)["end_to_end"]["growth"]
    assert growth["pairs_change_better"]["wall_s"] == "9/10"
    assert growth["claim_rule_met"]["wall_s"] is True
    _write_run(parent, 10, 0.45)
    _write_run(change, 10, 0.45)
    growth = _load().summarize(parent, change, args)["end_to_end"]["growth"]
    assert growth["pairs_change_better"]["wall_s"] == "9/11"
    assert growth["claim_rule_met"]["wall_s"] is False


def test_per_layer_keeps_metrics_that_moved(tmp_path):
    layers = _summarize(tmp_path)["per_layer"]["growth"]
    assert layers["parent"] == {"runs": 1, "streams.generator.calls": 2000.0}
    assert layers["change"] == {"runs": 1, "streams.generator.calls": 400.0}


def test_no_results_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        _load().load_runs(tmp_path)


def test_runs_of_two_codes_in_one_checkout_are_refused(tmp_path):
    checkout = tmp_path / "change"
    for stamp in (10, 20, 30):
        _write_run(checkout, stamp, 0.5)
    path = checkout / ".perfbench" / "results" / "growth-20240817-trace0-10.json"
    record = json.loads(path.read_text())
    record["environment"]["code_sha256"] = "older"
    path.write_text(json.dumps(record))
    with pytest.raises(SystemExit, match="2 code hashes") as refused:
        _load().load_runs(checkout)
    assert "change: 2 runs" in str(refused.value) and "older: 1 run" in str(refused.value)
