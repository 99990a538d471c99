import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

DECLARED = {"work_per_s": {"better": "higher", "bound": 0.25},
            "peak_rss_mb": {"better": "lower", "bound": 0.05}}


def _run(rate, rss, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"work_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"},
                        "vbus.transitions": {"value": 7, "unit": "count"}}}


def test_summary_counts_wins_by_direction_and_drops_failed_pairs():
    runs = {"base": [_run(100, 50), _run(110, 50), _run(90, 50), _run(1, 1)],
            "head": [_run(150, 49), _run(100, 50), _run(140, 51), {"error": "exit 1: boom"}]}
    out = pairs.summarize(runs, DECLARED)
    rate = out["metrics"]["work_per_s"]
    assert rate["pairs"] == 3
    assert (rate["base"]["median"], rate["head"]["median"]) == (100, 140)
    assert (rate["base"]["q1"], rate["base"]["q3"]) == (95, 105)
    assert rate["head_wins"] == 2 and rate["bound"] == 0.25
    assert rate["head_over_base"] == 1.4 and rate["median_gap_over_base_iqr"] == 4.0
    assert out["metrics"]["peak_rss_mb"]["head_wins"] == 1  # a tie counts for neither
    # a metric BENCHMARK.json does not declare has no direction, so no wins
    assert "head_wins" not in out["metrics"]["vbus.transitions"]
    assert out["errors"] == {"base": [], "head": ["exit 1: boom"]}
    assert out["correct"]["head"] == [True, True, True, None]
