"""tools/benchrecord.py on canned ``perfbench/run.py`` output: no benchmark runs."""

import json
from pathlib import Path

import pytest

from conftest import source_module

ROOT = Path(__file__).resolve().parent.parent
BENCHRECORD = source_module(ROOT / "tools" / "benchrecord.py")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_stdout(tail_s, tasks_per_s=100.0, peak_rss_mb=40.0, correct=True, seed=1):
    """What ``run.py --workload naive_protocol --trace 0`` prints."""
    values = {"setup_s": 0.2, "task_p50_s": 0.002, "task_tail_s": tail_s,
              "tasks_per_s": tasks_per_s, "peak_rss_mb": peak_rss_mb}
    units = {spec["name"]: spec["unit"] for spec in END_TO_END}
    lines = [json.dumps({"environment": {"seed": seed, "workload": "naive_protocol"}})]
    lines += [f"naive_protocol {name} {value:.6g} {units[name]}"
              for name, value in values.items()]
    lines.append(json.dumps({
        "correct": correct, "attempted": 300, "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return "\n".join(lines) + "\n"


def rounds_of(rev_tails, tree_tails, **tree):
    return [{"rev": BENCHRECORD.parse_run(run_stdout(r)),
             "tree": BENCHRECORD.parse_run(run_stdout(t, **tree))}
            for r, t in zip(rev_tails, tree_tails)]


def test_parse_run_keeps_the_last_line_and_the_environment():
    run = BENCHRECORD.parse_run(run_stdout(0.03, seed=7))
    assert run["correct"] and run["attempted"] == 300
    assert run["metrics"]["task_tail_s"] == {"value": 0.03, "unit": "s"}
    assert run["environment"] == {"seed": 7, "workload": "naive_protocol"}


def test_record_schema_and_verdicts():
    rounds = rounds_of([0.030, 0.020, 0.040], [0.015, 0.030, 0.018],
                       tasks_per_s=70.0, peak_rss_mb=41.0)
    result = BENCHRECORD.record("HEAD~1 abc", "naive_protocol", 35.0, [1, 2, 3],
                                rounds, END_TO_END)
    assert json.loads(json.dumps(result)) == result
    assert set(result) == {"rev", "workload", "seconds", "seeds", "runs",
                           "all_correct", "metrics"}
    assert [run["metrics"]["task_tail_s"]["value"] for run in result["runs"]["tree"]] \
        == [0.015, 0.030, 0.018]
    metrics = result["metrics"]
    assert list(metrics) == [spec["name"] for spec in END_TO_END]
    tail = metrics["task_tail_s"]
    assert tail["rev_samples"] == [0.030, 0.020, 0.040]
    assert tail["rev_median"] == 0.030 and tail["tree_median"] == 0.018
    assert tail["ratios"] == pytest.approx([0.5, 1.5, 0.45])
    assert tail["median_ratio"] == 0.5 and tail["tree_wins"] == 2
    assert tail["rev_quartiles"] == [0.025, 0.030, 0.035]
    # half the time in the median, but won in only two rounds of three, and
    # REV's rounds spread wider than the bound
    assert (tail["better"], tail["bound"], tail["verdict"]) == ("lower", 0.25, "unresolved")
    # the same in every round: no noise and no move
    assert metrics["task_p50_s"]["verdict"] == "within bound"
    # 100 -> 70 tasks/s is 30% worse against a 25% bound
    assert metrics["tasks_per_s"]["median_ratio"] == pytest.approx(0.7)
    assert metrics["tasks_per_s"]["verdict"] == "worse"
    # 40 -> 41 MB in every round is 2.5% worse against a 5% bound
    assert metrics["peak_rss_mb"]["verdict"] == "within bound"
    assert result["all_correct"] and BENCHRECORD.failing(result)


@pytest.mark.parametrize("rev_tails,tree_tails,verdict", [
    ([0.030, 0.031, 0.029] * 3 + [0.030], [0.020, 0.021, 0.019] * 3 + [0.020], "better"),
    # eight wins in ten
    ([0.030, 0.031, 0.029] * 3 + [0.030], [0.020, 0.035, 0.019] * 2 + [0.020] * 4,
     "within bound"),
    # three wins in three: too few rounds to tell nine in ten
    ([0.030, 0.031, 0.029], [0.020, 0.021, 0.019], "within bound"),
    # every round won, but by less than the spread of REV's own rounds
    ([0.027, 0.030, 0.033] * 3 + [0.030], [0.026, 0.029, 0.032] * 3 + [0.029],
     "unresolved"),
    # the tree's rounds spread wider than the 2% gap
    ([0.030, 0.031, 0.029], [0.033, 0.026, 0.046], "unresolved"),
    # a gap wider than the spread, won in two rounds of three, but REV's
    # rounds spread wider than the bound
    ([0.020, 0.030, 0.050], [0.030, 0.012, 0.010], "unresolved"),
    # a 10% slowdown in every round, wider than the spread, within the bound
    ([0.030, 0.031, 0.029], [0.033, 0.034, 0.032], "within bound"),
    ([0.030, 0.031, 0.029], [0.038, 0.039, 0.037], "worse"),
    # a gap wider than both trees' spreads, but the per-round ratios
    # (0.82-1.07) spread wider than the median ratio's 2.5% from 1: the
    # gentle_sweep task_p50_s rounds of BENCH_naive_lanes_gentle_sweep.json
    ([0.0797, 0.0975, 0.0955], [0.0777, 0.0802, 0.1019], "unresolved"),
])
def test_better_needs_nine_wins_in_ten_and_more_than_the_spread(
        rev_tails, tree_tails, verdict):
    metrics = BENCHRECORD.summarize(rounds_of(rev_tails, tree_tails), END_TO_END)
    assert metrics["task_tail_s"]["verdict"] == verdict


def committed(name):
    """The verdicts of a committed record, and those ``summarize`` gives its
    stored runs now."""
    record = json.loads((ROOT / name).read_text())
    rounds = [{"rev": rev, "tree": tree}
              for rev, tree in zip(record["runs"]["rev"], record["runs"]["tree"])]
    return ({name: m["verdict"] for name, m in record["metrics"].items()},
            {name: m["verdict"] for name, m in
             BENCHRECORD.summarize(rounds, END_TO_END).items()})


def test_noise_on_unchanged_code_reads_unresolved():
    # three rounds of a workload that ran no changed code
    stored, now = committed("BENCH_naive_lanes_gentle_sweep.json")
    assert [stored[name] for name in ("task_p50_s", "tasks_per_s", "peak_rss_mb")] == [
        "within bound"] * 3
    assert set(now.values()) == {"unresolved"}


def test_ten_round_record_keeps_its_verdicts():
    stored, now = committed("BENCH_naive_lanes.json")
    assert now == stored
    assert list(now.values()).count("better") == 2


@pytest.mark.parametrize("tree,fails", [
    ({}, False),
    ({"peak_rss_mb": 42.1}, True),  # 5.25% worse against a 5% bound
    ({"correct": False}, True),
])
def test_failing(tree, fails):
    rounds = rounds_of([0.03, 0.03], [0.03, 0.03], **tree)
    result = BENCHRECORD.record("r", "naive_protocol", 1.0, [1, 2], rounds, END_TO_END)
    assert BENCHRECORD.failing(result) is fails


def test_main_alternates_the_trees_and_writes_the_record(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_benchmark(tree, workload, seed, seconds):
        side = "tree" if tree == tmp_path else "rev"
        calls.append((side, workload, seed, seconds))
        return BENCHRECORD.parse_run(run_stdout(0.03 if side == "rev" else 0.02))

    monkeypatch.setattr(BENCHRECORD, "ROOT", tmp_path)
    monkeypatch.setattr(BENCHRECORD, "_archive", lambda rev, into: None)
    monkeypatch.setattr(BENCHRECORD, "_benchmark", fake_benchmark)
    code = BENCHRECORD.main(["HEAD", "--workload", "naive_protocol", "--rounds", "3",
                             "--seconds", "2", "--label", "canned"])
    assert code == 0
    assert calls == [("rev", "naive_protocol", 1, 2.0), ("tree", "naive_protocol", 1, 2.0),
                     ("tree", "naive_protocol", 2, 2.0), ("rev", "naive_protocol", 2, 2.0),
                     ("rev", "naive_protocol", 3, 2.0), ("tree", "naive_protocol", 3, 2.0)]
    result = json.loads((tmp_path / "BENCH_canned.json").read_text())
    assert result["seeds"] == [1, 2, 3]
    assert result["metrics"]["task_tail_s"]["tree_wins"] == 3
