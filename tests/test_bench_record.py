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
