"""tools/bench_record.py: a claim is judged in its metric's own direction."""

import importlib.util
import pathlib

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "bench_record.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(metric, pairs):
    return [{"side": side, "result": {"metrics": {metric: {"value": v}}}}
            for parent, change in pairs
            for side, v in (("parent", parent), ("change", change))]


def test_lower_is_better_claim_counts_the_faster_side():
    tool = _tool()
    faster = [(0.13 + i / 1000, 0.10 + i / 1000) for i in range(10)]
    claim = tool.claim_summary(_runs("setup_s", faster), "setup_s", "lower")
    assert (claim["change_wins"], claim["holds"]) == (10, True)
    claim = tool.claim_summary(_runs("setup_s", faster), "setup_s", "higher")
    assert (claim["change_wins"], claim["holds"]) == (0, False)


def test_summary_gives_the_requests_attempted_beside_peak_rss():
    tool = _tool()
    runs = [{"workload": "verify-sweep", "side": side, "trace": trace,
             "result": {"attempted": attempted, "metrics": {
                 "peak_rss_mb": {"value": rss}, "ops_per_s": {"value": 1.0}}}}
            for side, trace, attempted, rss in (
                ("parent", 0, 50_000, 29.0), ("parent", 0, 54_000, 29.5),
                ("parent", 0, 52_000, 29.2), ("change", 0, 70_000, 30.7),
                ("change", 0, 71_000, 30.9), ("change", 1, 999, 99.0))]
    summary = tool.summarize(runs)["verify-sweep"]
    assert summary["peak_rss_mb"]["parent"] == {
        "median": 29.2, "q1": 29.1, "q3": 29.35, "n": 3, "attempted": 52_000}
    change = summary["peak_rss_mb"]["change"]
    assert (change["n"], change["attempted"]) == (2, 70_500)
    assert "attempted" not in summary["ops_per_s"]["change"]
