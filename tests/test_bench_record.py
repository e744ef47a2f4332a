"""tools/bench_record.py: a claim is judged in its metric's own direction,
a run that failed its correctness gate is counted, and each workload
alternates which side runs first."""

import importlib.util
import json
import pathlib

import pytest

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "bench_record.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_workload_alternates_which_side_runs_first():
    tool = _tool()
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    for workloads in ([w["name"] for w in spec["workloads"]],
                      ["a"], ["a", "b"], ["a", "b", "c"]):
        plan = tool.schedule(workloads)
        assert sorted((s, w) for s, w, _ in plan) == sorted(
            (s, w) for s in tool.SEEDS for w in workloads)
        for w in workloads:
            firsts = [first for s, name, first in plan if name == w]
            assert set(firsts) == {True, False}, (workloads, w)
            # seed by seed
            assert all(a != b for a, b in zip(firsts, firsts[1:])), w


def _runs(metric, pairs):
    return [{"side": side, "exit": 0,
             "result": {"correct": True, "metrics": {metric: {"value": v}}}}
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
             "exit": 0, "result": {"correct": True, "attempted": attempted,
                                   "metrics": {
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


def test_a_peak_rss_claim_gives_the_requests_attempted_per_side():
    tool = _tool()
    smaller = [(34.8 + i / 100, 34.2 + i / 100) for i in range(4)]
    runs = _runs("peak_rss_mb", smaller)
    for rec, attempted in zip(runs, (100, 120, 104, 126, 98, 118, 102, 130)):
        rec["result"]["attempted"] = attempted
    claim = tool.claim_summary(runs, "peak_rss_mb", "lower")
    assert (claim["change_wins"], claim["holds"]) == (4, True)
    assert (claim["parent"]["attempted"], claim["change"]["attempted"]) == (
        101, 123)
    # a run that left no result has no count
    runs[0]["result"] = None
    claim = tool.claim_summary(runs, "peak_rss_mb", "lower")
    assert (claim["parent"]["attempted"], claim["change"]["attempted"]) == (
        102, 123)
    # other metrics carry no count, as in the seed summary
    claim = tool.claim_summary(_runs("ops_per_s", smaller), "ops_per_s",
                               "higher")
    assert "attempted" not in claim["parent"]


def test_summary_counts_the_runs_that_failed_per_workload_and_side():
    tool = _tool()
    runs = [{"workload": workload, "side": side, "trace": trace,
             "exit": code, "result": {"correct": correct, "attempted": 10,
                                      "metrics": {
                                          "ops_per_s": {"value": 1.0},
                                          "peak_rss_mb": {"value": 1.0}}}}
            for workload, side, trace, code, correct in (
                ("verify-sweep", "parent", 0, 0, True),
                ("verify-sweep", "parent", 0, 1, False),
                ("verify-sweep", "change", 0, 1, True),
                ("verify-sweep", "change", 0, 0, False),
                ("verify-sweep", "change", 1, 1, False),
                ("selftest", "parent", 0, 0, True),
                ("selftest", "change", 0, 0, True))]
    summary = tool.summarize(runs)
    # the traced run is not summarized, so it is not counted either
    assert summary["verify-sweep"]["failed_runs"] == {"parent": 1,
                                                      "change": 2}
    assert summary["selftest"]["failed_runs"] == {"parent": 0, "change": 0}
    # failed runs still enter the medians
    assert summary["verify-sweep"]["ops_per_s"]["change"]["n"] == 2


def test_a_claim_with_a_failed_run_does_not_hold():
    tool = _tool()
    faster = [(100 + i, 150 + i) for i in range(10)]
    claim = tool.claim_summary(_runs("ops_per_s", faster), "ops_per_s",
                               "higher")
    assert claim["holds"] is True
    assert claim["failed_runs"] == {"parent": 0, "change": 0}
    for index, field, value in ((3, "exit", 1), (4, "correct", False),
                                (4, "exit", -9)):
        runs = _runs("ops_per_s", faster)
        target = runs[index] if field == "exit" else runs[index]["result"]
        target[field] = value
        claim = tool.claim_summary(runs, "ops_per_s", "higher")
        side = runs[index]["side"]
        assert claim["change_wins"] == 10
        assert claim["failed_runs"][side] == 1, (index, field)
        assert claim["holds"] is False, (index, field)


# ``perfbench/run.py`` stand-ins that leave no result line: a refused
# checkout (only the env line, exit 1), a usage error (no output, exit 2),
# and a run past the timeout
_NO_RESULT = {
    "refused": 'print(\'env {"python": "3"}\')\nraise SystemExit(1)\n',
    "usage": "raise SystemExit(2)\n",
    "hung": "import time\ntime.sleep(60)\n",
}


def test_a_run_that_leaves_no_result_is_recorded_as_failed(tmp_path,
                                                           monkeypatch):
    tool = _tool()
    recs = {}
    for name, script in _NO_RESULT.items():
        monkeypatch.setattr(tool, "RUN_TIMEOUT_S", 1 if name == "hung" else 60)
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(script)
        recs[name] = tool.run(tmp_path / name, "verify-sweep", 1, 0)
    assert [(r["env"], r["exit"], r["result"]) for r in recs.values()] == [
        ({"python": "3"}, 1, None), (None, 2, None), (None, None, None)]
    assert all(tool.failed(r) for r in recs.values())

    ok = {"exit": 0, "result": {"correct": True, "attempted": 10, "metrics": {
        "ops_per_s": {"value": 5.0}, "peak_rss_mb": {"value": 1.0}}}}
    runs = [{**recs["refused"], "side": "parent"},
            {**recs["hung"], "side": "change"},
            {"workload": "verify-sweep", "side": "change", "trace": 0, **ok},
            {**recs["usage"], "workload": "selftest", "side": "parent"}]
    summary = tool.summarize(runs)
    assert summary["verify-sweep"]["failed_runs"] == {"parent": 1,
                                                      "change": 1}
    # the runs with no result are left out of the medians
    assert summary["verify-sweep"]["ops_per_s"] == {
        "change": {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}}
    assert summary["selftest"] == {"failed_runs": {"parent": 1, "change": 0}}

    faster = [(100 + i, 150 + i) for i in range(10)]
    claim_runs = _runs("ops_per_s", faster)
    claim_runs[5] = {**recs["hung"], "side": "change"}
    claim = tool.claim_summary(claim_runs, "ops_per_s", "higher")
    assert claim["failed_runs"] == {"parent": 0, "change": 1}
    assert (claim["change"]["n"], claim["parent"]["n"]) == (9, 10)
    assert (claim["change_wins"], claim["holds"]) == (9, False)
    claim = tool.claim_summary([{**recs["usage"], "side": side}
                                for side in ("parent", "change")],
                               "ops_per_s", "higher")
    assert (claim["median_ratio"], claim["holds"]) == (None, False)


def test_pair_prints_a_traced_runs_gate_and_a_missing_result(monkeypatch,
                                                             capsys):
    tool = _tool()
    results = {
        ("parent", 0): (0, {"correct": True,
                            "metrics": {"ops_per_s": {"value": 5.0}}}),
        ("change", 0): (2, None),
        # a traced run carries per-layer metrics only
        ("parent", 1): (0, {"correct": True, "metrics": {}}),
        ("change", 1): (1, {"correct": False, "metrics": {}}),
    }

    def stub(checkout, workload, seed, trace):
        code, result = results[(checkout, trace)]
        return {"workload": workload, "seed": seed, "trace": trace,
                "env": None, "exit": code, "result": result}

    monkeypatch.setattr(tool, "run", stub)
    checkouts = {"parent": "parent", "change": "change"}
    for trace in (0, 1):
        runs = tool.pair(checkouts, "oracle-wide", 1, trace,
                         parent_first=True)
        assert [r["side"] for r in runs] == ["parent", "change"]
    shown = [line.split(": ", 1)[1]
             for line in capsys.readouterr().out.splitlines()]
    assert shown == ['{"value": 5.0}', "no result (exit 2)",
                     "exit 0, correct true", "exit 1, correct false"]


def test_the_note_is_stored_with_the_runs(monkeypatch, tmp_path):
    tool = _tool()
    ok = {"correct": True, "attempted": 1, "metrics": {
        "ops_per_s": {"value": 5.0}, "peak_rss_mb": {"value": 1.0}}}
    monkeypatch.setattr(tool, "run", lambda checkout, workload, seed, trace: {
        "workload": workload, "seed": seed, "trace": trace, "env": None,
        "exit": 0, "result": ok})
    for extra, note in (([], None), (["--note", "less work"], "less work")):
        out = tmp_path / "bench.json"
        assert tool.main(["parent", "change", str(out), *extra]) == 0
        assert json.loads(out.read_text()).get("note") == note


@pytest.mark.parametrize("claim", [
    ["selftest", "four", "10", "ops_per_s"],      # a seed that is no integer
    ["selftest", "4", "ten", "ops_per_s"],        # pairs that are no integer
    ["selftest", "4", "2.5", "ops_per_s"],
    ["selftest", "4", "0", "ops_per_s"],          # no pair at all
    ["selftest", "4", "-3", "ops_per_s"],
    ["self-test", "4", "10", "ops_per_s"],        # an unknown workload
    ["selftest", "4", "10", "ops"],               # an unknown metric
])
def test_a_bad_claim_is_refused_before_the_first_run(claim, monkeypatch,
                                                     tmp_path, capsys):
    tool = _tool()
    calls = []
    monkeypatch.setattr(tool, "run", lambda *args: calls.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        tool.main(["parent", "change", str(out), "--claim", *claim])
    assert exit_.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_a_good_claim_runs_its_pairs_on_its_seed(monkeypatch, tmp_path):
    tool = _tool()
    calls = []
    ok = {"correct": True, "attempted": 1, "metrics": {
        "ops_per_s": {"value": 5.0}, "peak_rss_mb": {"value": 1.0}}}

    def stub(checkout, workload, seed, trace):
        calls.append((workload, seed, trace))
        return {"workload": workload, "seed": seed, "trace": trace,
                "env": None, "exit": 0, "result": ok}

    monkeypatch.setattr(tool, "run", stub)
    out = tmp_path / "bench.json"
    assert tool.main(["parent", "change", str(out),
                      "--claim", "selftest", "4", "2", "ops_per_s"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert (claim["workload"], claim["seed"], claim["pairs"]) == (
        "selftest", 4, 2)
    assert calls[-6:] == [("selftest", 4, 0)] * 4 + [("selftest", 1, 1)] * 2
