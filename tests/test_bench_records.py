"""The committed BENCH_*.json trajectory records agree with their own pairs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SCHEMA = ROOT / "BENCH_depth2.json"


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _keys(record):
    """The record's key paths: top level, per workload, per pair and per side."""
    keys = {("top", k) for k in record}
    for w in record["workloads"].values():
        keys |= {("workload", k) for k in w}
        keys |= {("summary", k) for k in w["summary"]}
        for pair in w["pairs"]:
            keys |= {("pair", k) for k in pair}
            keys |= {("side", k) for side in ("parent", "change") for k in pair[side]}
    return keys


def test_records_exist():
    assert SCHEMA in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
class TestRecord:
    def test_carries_the_schema_keys(self, path):
        missing = _keys(_load(SCHEMA)) - _keys(_load(path))
        assert not missing, sorted(missing)

    def test_pairs(self, path):
        record = _load(path)
        # a change that moves reports by design names them and why; its
        # fingerprints then differ, except in the pairs it names as
        # unchanged, and the certified residual may not move, or, where the
        # change moves certified floats at roundoff and says why, by no more
        # than the relative bound it declares
        changes = record.get("report_changes")
        unchanged, tol = {}, 0.0
        if changes is not None:
            assert changes["files"] and changes["reason"], changes
            unchanged = changes.get("unchanged_pairs", {})
            if "residual_rel_tol" in changes:
                tol = changes["residual_rel_tol"]
                assert 0 < tol <= 1e-12 and changes["residual_reason"], changes
        for name, w in record["workloads"].items():
            assert w["seeds"] == [p["seed"] for p in w["pairs"]], name
            assert set(unchanged.get(name, [])) <= set(w["seeds"]), name
            for k, pair in enumerate(w["pairs"]):
                assert pair["first"] == ("parent" if k % 2 == 0 else "change"), (name, k)
                parent, change = pair["parent"], pair["change"]
                same = parent["fingerprints"] == change["fingerprints"]
                assert pair["same_fingerprint"] is same, (name, pair["seed"])
                kept = changes is None or pair["seed"] in unchanged.get(name, [])
                assert same is kept, (name, pair["seed"])
                if changes is not None:
                    moved = abs(parent["residual_l1"] - change["residual_l1"])
                    assert moved <= tol * abs(parent["residual_l1"]), (name, pair["seed"])
                wins = pair["change"]["pipeline_ref"] < pair["parent"]["pipeline_ref"]
                assert pair["change_wins_pipeline_ref"] == wins, (name, pair["seed"])

    def test_summaries_recompute(self, path):
        for name, w in _load(path)["workloads"].items():
            for metric, summary in w["summary"].items():
                for side in ("parent", "change"):
                    values = [p[side][metric] for p in w["pairs"]]
                    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                    assert summary[side] == {"q1": q1, "median": median, "q3": q3}, \
                        (name, metric, side)
            ref = w["summary"]["pipeline_ref"]
            # the per-pair ratios every gain claim cites, and their quartiles
            ratios = [p["pipeline_ref_ratio"] for p in w["pairs"] if "pipeline_ref_ratio" in p]
            assert len(ratios) in (0, len(w["pairs"])), name
            for pair in w["pairs"][:len(ratios)]:
                assert pair["pipeline_ref_ratio"] == (
                    pair["change"]["pipeline_ref"] / pair["parent"]["pipeline_ref"]), \
                    (name, pair["seed"])
            if "ratio_change_to_parent" in ref:
                q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
                assert ref["ratio_change_to_parent"] == {"q1": q1, "median": median, "q3": q3}, name
            parent, change = ref["parent"], ref["change"]
            assert ref["pairs_won_by_change"] == sum(
                p["change_wins_pipeline_ref"] for p in w["pairs"]), name
            assert ref["change_vs_parent"] == pytest.approx(
                change["median"] / parent["median"] - 1.0, rel=1e-12, abs=1e-15), name
            assert ref["parent_iqr"] == pytest.approx(parent["q3"] - parent["q1"],
                                                      rel=1e-12, abs=1e-15), name
