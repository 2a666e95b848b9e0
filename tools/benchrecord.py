"""Record paired benchmark runs of a git revision and the working tree.

    python3 tools/benchrecord.py REV --workload W [--rounds N] [--seconds S]
                                 [--label L]

REV is put in a temporary directory with ``git archive`` (as
``tools/bytecheck.py`` does).  Round i, counted from 1, runs
``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once in
each tree, each run a fresh process with ``OPENBLAS_NUM_THREADS=1`` and
its own tree as working directory; the tree that runs first alternates from
round to round.  The last stdout line of every run (its ``correct``,
``attempted``, ``failed`` and end-to-end metrics) and its environment line
are kept, and
``BENCH_<label>.json`` is written at the root of the working tree with both
trees' samples of each end-to-end metric that ``BENCHMARK.json`` names, their
medians and quartiles, the median of the per-round ratios (working tree over
REV), the rounds the working tree won, and the metric's ``better`` and
``bound`` with a verdict: ``worse`` when the median ratio is worse than the
bound allows; ``better`` when there were at least ten rounds, the working
tree won at least nine in ten and its median beats REV's by more than REV's
interquartile range; ``unresolved`` when the gap between the medians is
narrower than the spread (the wider of the two trees' interquartile
ranges), the spread is wider than the bound, or the median ratio is closer
to 1 than the interquartile range of the per-round ratios, so the rounds
cannot tell a move from noise; else ``within bound``, a move wider than the
spread and inside the bound.  The exit code is 1 when a verdict is ``worse`` or a
run's output checks failed, else 0: an ``unresolved`` metric is no failure,
but no measured no-change either.  Nothing is fetched: REV must be in the
local repository.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("rev", "tree")


def parse_run(stdout: str) -> dict:
    """The last line of a ``run.py --workload`` run, with its environment."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"environment"'):
            run["environment"] = json.loads(line)["environment"]
    return run


def _quartiles(samples: list) -> list:
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4, method="inclusive")


def summarize(rounds: list, end_to_end: list) -> dict:
    """Per-metric summary of ``rounds``, a list of {"rev": run, "tree": run}
    pairs of ``parse_run`` results, for the ``end_to_end`` entries of
    ``BENCHMARK.json``."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        samples = {side: [pair[side]["metrics"][name]["value"] for pair in rounds]
                   for side in SIDES}
        ratios = [tree / rev for rev, tree in zip(samples["rev"], samples["tree"])]
        ratio, ratio_quartiles = statistics.median(ratios), _quartiles(ratios)
        wins = sum((t < r) if lower else (t > r)
                   for r, t in zip(samples["rev"], samples["tree"]))
        medians = {side: statistics.median(samples[side]) for side in SIDES}
        quartiles = {side: _quartiles(samples[side]) for side in SIDES}
        gain = medians["rev"] - medians["tree"] if lower else medians["tree"] - medians["rev"]
        rev_spread = quartiles["rev"][2] - quartiles["rev"][0]
        spread = max(high - low for low, _, high in quartiles.values())
        if (ratio - 1.0 if lower else 1.0 - ratio) > spec["bound"]:
            verdict = "worse"
        elif len(rounds) >= 10 and wins >= 0.9 * len(rounds) and gain > rev_spread:
            verdict = "better"
        elif (abs(gain) < spread or spread > spec["bound"] * medians["rev"]
              or abs(ratio - 1.0) < ratio_quartiles[2] - ratio_quartiles[0]):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **{f"{side}_samples": samples[side] for side in SIDES},
            **{f"{side}_median": medians[side] for side in SIDES},
            **{f"{side}_quartiles": quartiles[side] for side in SIDES},
            "ratios": ratios,
            "median_ratio": ratio,
            "tree_wins": wins,
            "verdict": verdict,
        }
    return metrics


def record(rev: str, workload: str, seconds: float, seeds: list, rounds: list,
           end_to_end: list) -> dict:
    """The ``BENCH_*.json`` object for ``rounds`` run at ``seeds``."""
    return {
        "rev": rev,
        "workload": workload,
        "seconds": seconds,
        "seeds": seeds,
        "runs": {side: [pair[side] for pair in rounds] for side in SIDES},
        "all_correct": all(pair[side]["correct"] for pair in rounds for side in SIDES),
        "metrics": summarize(rounds, end_to_end),
    }


def failing(result: dict) -> bool:
    return (not result["all_correct"]
            or any(m["verdict"] == "worse" for m in result["metrics"].values()))


def _archive(rev: str, into: Path) -> None:
    from bytecheck import _archive as archive  # tools/ is on the path when run as a script
    archive(rev, into)


def _benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode:
        sys.exit(f"run.py in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--label", help="names BENCH_<label>.json (default: the workload)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(1, args.rounds + 1))
    rounds = []
    with tempfile.TemporaryDirectory(prefix="benchrecord-") as tmp:
        trees = {"rev": Path(tmp), "tree": ROOT}
        _archive(args.rev, trees["rev"])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: _benchmark(trees[side], args.workload, seed, args.seconds)
                    for side in order}
            rounds.append(pair)
            print(f"round {i + 1}/{args.rounds} seed {seed}: " + ", ".join(
                f"{side} tail {pair[side]['metrics']['task_tail_s']['value']:.4g} s"
                for side in SIDES), file=sys.stderr)
    sha = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    result = record(f"{args.rev} {sha}", args.workload, args.seconds, seeds, rounds,
                    end_to_end)
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:12} {metric['rev_median']:.4g} -> {metric['tree_median']:.4g} "
              f"{metric['unit']}  ratio {metric['median_ratio']:.3f}  "
              f"wins {metric['tree_wins']}/{len(rounds)}  {metric['verdict']}")
    print(f"wrote {out.name}")
    return 1 if failing(result) else 0


if __name__ == "__main__":
    # a SIGTERM unwinds like Ctrl-C: subprocess.run kills the running benchmark
    # and the temporary tree is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
