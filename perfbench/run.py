"""qseal benchmark: one closed-loop client calling ``qseal.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]

With ``--workload`` it runs one workload and prints, as its last line, a JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs every workload, each in a fresh process,
prints every metric by name with its unit and exits 1 if any output check
fails.  Run it from the root of a checkout; it imports ``qseal`` from
``src/`` there and writes only under ``perfbench/.work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_qseal():
    """Import ``qseal`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "qseal" / "__init__.py").is_file():
        sys.exit(f"error: no qseal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qseal
    import qseal.cli

    if Path(qseal.__file__).resolve().parent != SRC / "qseal":
        sys.exit(f"error: imported qseal from {qseal.__file__}, not {SRC}")
    return qseal


class Client:
    """Runs tasks through ``qseal.cli.main`` and keeps what each produced.

    Task ``index`` runs pinned to CPU ``index`` modulo the CPUs the process
    may use.  Host contention here is per CPU and slow (on the tuning host
    each CPU's speed switched between two levels about 35% apart every
    10-30 s), so a client left on one CPU measures that CPU's luck; moving
    round robin makes every run sample all of them.
    """

    def __init__(self, qseal, workload, workdir: Path):
        self.cli = qseal.cli
        self.workload = workload
        self.out_path = workdir / "task_out.csv"
        self.cpus = sorted(os.sched_getaffinity(0))

    def run(self, index: int) -> tuple:
        """(wall seconds, outcome) where outcome is CSV text or an error."""
        argv = self.workload.task(index) + ["--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})
        log = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {log.getvalue()[-2000:]}"
        if error is None:
            try:
                return elapsed, ("ok", self.out_path.read_text(encoding="utf-8"))
            except OSError as exc:
                error = f"exit code 0 but no CSV ({exc})"
        return elapsed, ("error", f"task {index} {argv}: {error}")

    def check(self, index: int, outcome: tuple) -> str | None:
        kind, payload = outcome
        if kind == "error":
            return payload
        try:
            problem = self.workload.check(index, payload)
        except (ValueError, IndexError, KeyError) as exc:
            problem = f"unreadable output ({exc!r})"
        return None if problem is None else f"task {index}: {problem}"


def prepare(qseal, workload, seed: int, workdir: Path) -> tuple:
    """Inputs, a client and one warm-up task: everything before "ready"."""
    digest = workload.prepare(seed, workdir)
    client = Client(qseal, workload, workdir)
    client.run(0)
    return client, digest


def setup_sample(args) -> tuple:
    """(seconds from spawning a fresh process to its "ready" mark, input digest)."""
    spawned = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["ready_at"] - spawned, report["digest"]


def tail(times: list) -> tuple:
    """Time at the highest percentile with at least TAIL_BEYOND tasks beyond
    it, and that percentile; the slowest task if there are too few."""
    ordered = sorted(times)
    rank = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "qseal").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "qseal_source_sha256": source.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    env = environment(args)
    qseal = import_qseal()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=make_work_root()))
    try:
        client, digest = prepare(qseal, workload, args.seed, workdir)
        if args.trace == 0:
            outcomes, metrics, setups = timed_run(client, workload, args, env)
        else:
            outcomes, metrics = traced_run(client, workload, env)
        problems = [problem for index, outcome in outcomes
                    if (problem := client.check(index, outcome)) is not None]
        failed = len(problems)
        first, first_outcome = outcomes[0]
        if first_outcome[0] == "ok" and client.run(first)[1] != first_outcome:
            failed += 1
            problems.append(f"a same-seed rerun of task {first} is not byte-identical")
        if args.trace == 0 and {d for _, d in setups} != {digest}:
            problems.append("set-ups of the same seed wrote different inputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    env["failed_frac"] = failed / len(outcomes)
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def make_work_root() -> Path:
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    return root


def timed_run(client, workload, args, env) -> tuple:
    """Closed loop of whole cycles until ``args.seconds`` of timed wall time.

    The set-up samples are spread over the run (before the loop, at cycle
    boundaries after each further share of ``args.seconds``, and after it),
    so that they see the same mix of host conditions as the tasks; the time
    they take is excluded from the timed wall time.
    """
    setups = [setup_sample(args)]
    times, outcomes = [], []
    index = 1  # task 0 was the warm-up
    paused = 0.0
    start = time.perf_counter()
    while True:
        for _ in range(workload.cycle):
            elapsed, outcome = client.run(index)
            times.append(elapsed)
            outcomes.append((index, outcome))
            index += 1
        wall = time.perf_counter() - start - paused
        if wall >= args.seconds:
            break
        if wall >= args.seconds * len(setups) / (SETUP_SAMPLES - 1):
            pause_start = time.perf_counter()
            setups.append(setup_sample(args))
            paused += time.perf_counter() - pause_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_s,
        "tasks_per_s": len(times) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    env.update(setup_samples_s=[s for s, _ in setups], tasks=len(times),
               tail_percentile=tail_pct, timed_wall_s=wall)
    return outcomes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, setups


def traced_run(client, workload, env) -> tuple:
    """A fixed task list, each task run untraced and then traced.

    Running the pair back to back keeps host conditions alike for the
    overhead ratio; the two outputs of a pair must be identical.
    """
    from tracing import Tracer

    tracer = Tracer()
    outcomes = []
    untraced_s = traced_s = 0.0
    for index in range(1, 1 + workload.trace_cycles * workload.cycle):
        elapsed, plain = client.run(index)
        untraced_s += elapsed
        tracer.install()
        try:
            elapsed, traced = client.run(index)
        finally:
            tracer.uninstall()
        traced_s += elapsed
        if traced != plain:
            traced = ("error", f"task {index}: traced output differs from untraced")
        outcomes += [(index, plain), (index, traced)]
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    env.update(tasks=len(outcomes), layer_self_share=tracer.layer_shares())
    return outcomes, metrics


def setup_only(args) -> int:
    """Child of ``setup_sample``: get ready, report when, and clean up."""
    from workloads import WORKLOADS

    qseal = import_qseal()
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=make_work_root()))
    try:
        _, digest = prepare(qseal, WORKLOADS[args.workload](), args.seed, workdir)
        ready_at = time.time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready_at": ready_at, "digest": digest}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; exit 1 unless all checks pass."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        env = next(json.loads(line)["environment"] for line in lines
                   if line.startswith('{"environment"'))
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {entry['value']:12.6g} {entry['unit']}")
        print(f"{name:15s} {'failed_frac':40s} {env['failed_frac']:12.6g} ratio")
        if "tail_percentile" in env:
            print(f"{name:15s} task_tail_s is p{env['tail_percentile']:.1f} "
                  f"of {env['tasks']} tasks")
        if "layer_self_share" in env:
            shares = sorted(env["layer_self_share"].items(), key=lambda kv: -kv[1])
            print(f"{name:15s} self-time share: " +
                  ", ".join(f"{layer} {share:.1%}" for layer, share in shares))
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        return setup_only(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
