"""The three workloads: how each builds its inputs, names its tasks and
checks a task's CSV output.

A task is one ``qseal`` command line (without ``--out``).  Tasks are
addressed by a running index, so task ``i`` of a run is the same command for
a given workload seed; ``cycle`` consecutive indices form one full turn over
the workload's task kinds, and timed runs stop only at a cycle boundary.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import schemes


def task_seed(seed: int, index: int) -> int:
    """Fresh 63-bit seed for task ``index`` of a run seeded with ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def parse_csv(text: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


class Workload:
    """A workload names task ``index`` (``task``) and checks its CSV
    (``check``: what is wrong, or None).  By default tasks need only the
    run's seed and no input files."""

    name: str
    why: str
    cycle: int
    trace_cycles: int

    def prepare(self, seed: int, workdir: Path) -> str | None:
        """Write the inputs under ``workdir``; return a digest of them."""
        self.seed = seed
        return None


class GentleSweep(Workload):
    name = "gentle_sweep"
    why = ("thousands of tiny 16x16 linalg calls behind gentle instance "
           "generation, state validation and verification; seal and naive idle")
    cycle = 1
    trace_cycles = 24
    INSTANCES = 100
    HEADER = ["instance", "epsilon_target", "epsilon", "lhs_classic",
              "bound_classic", "slack_classic", "lhs_unknown", "bound_unknown",
              "slack_unknown", "satisfied"]

    def task(self, index: int) -> list:
        return ["verify", "gentle", "--dim", "16", "--outcomes", "4",
                "--instances", str(self.INSTANCES),
                "--seed", str(task_seed(self.seed, index))]

    def check(self, index: int, text: str) -> str | None:
        header, rows = parse_csv(text)
        if header != self.HEADER:
            return f"unexpected header {header}"
        if len(rows) != self.INSTANCES:
            return f"{len(rows)} rows, expected {self.INSTANCES}"
        unsatisfied = [row[0] for row in rows if row[-1] != "true"]
        if unsatisfied:
            return f"instances {unsatisfied[:5]} not satisfied"
        return None


class SealEval(Workload):
    name = "seal_eval"
    why = ("a generated pool of scheme files, joint dim 16 to 512: few large "
           "dense linalg calls, with load and validation leading on small schemes")
    cycle = len(schemes.POOL_SHAPES)
    trace_cycles = 2
    TOL = 1e-9

    def prepare(self, seed: int, workdir: Path) -> str:
        from qseal.seal import SealScheme, save_scheme
        from qseal.states import Povm, PureState

        self.pool = []
        self.paths = []
        self._oracle = {}
        digest = hashlib.sha256()
        for k, (m_count, dim_a, dim_b) in enumerate(schemes.POOL_SHAPES):
            rng = np.random.default_rng([seed, k])
            arrays = schemes.generate_scheme(m_count, dim_a, dim_b, rng)
            scheme = SealScheme(
                n_messages=m_count, dim_a=dim_a, dim_b=dim_b,
                promised_p=arrays["promised_p"],
                joint_states=tuple(PureState(v, (dim_a, dim_b))
                                   for v in arrays["states"]),
                bob_povm=Povm(tuple(arrays["povm"])))
            path = workdir / f"scheme_{k:02d}_M{m_count}_{dim_a}x{dim_b}.json"
            save_scheme(scheme, path)
            digest.update(path.read_bytes())
            self.pool.append(arrays)
            self.paths.append(path)
        return digest.hexdigest()

    def task(self, index: int) -> list:
        return ["seal", "eval", "--scheme", str(self.paths[index % self.cycle])]

    def oracle(self, k: int) -> list:
        if k not in self._oracle:
            self._oracle[k] = schemes.oracle_metrics(self.pool[k])
        return self._oracle[k]

    def check(self, index: int, text: str) -> str | None:
        header, rows = parse_csv(text)
        expected = self.oracle(index % self.cycle)
        if len(rows) != len(expected) + 1:
            return f"{len(rows)} rows, expected {len(expected) + 1}"
        col = {name: k for k, name in enumerate(header)}
        averages = [float(np.mean(v)) for v in zip(*expected)]
        for row, (p_dist, p_nfp) in zip(rows, expected + [tuple(averages)]):
            values = {name: float(row[col[name]]) for name in
                      ("p_dist_numeric", "p_dist_upper", "p_nfp_numeric",
                       "p_nfp_upper")}
            if values["p_dist_numeric"] > values["p_dist_upper"]:
                return f"p_dist above its cap in row {row}"
            if values["p_nfp_numeric"] > values["p_nfp_upper"]:
                return f"p_nfp above its cap in row {row}"
            if (abs(values["p_dist_numeric"] - p_dist) > self.TOL
                    or abs(values["p_nfp_numeric"] - p_nfp) > self.TOL):
                return (f"row {row} differs from the dense oracle "
                        f"({p_dist!r}, {p_nfp!r})")
        return None


class NaiveProtocol(Workload):
    name = "naive_protocol"
    why = ("q=3 tasks spend on the 512-dim majority POVM and the "
           "non-disturbance check, q=2 tasks on 150 MB Monte Carlo arrays")
    # Two q=3 tasks per q=2 task: with an even 1:1 mix the median would be
    # the midpoint between the slowest q=3 and the fastest q=2 task, which
    # is neither kind's time; with 2:1 the median sits inside the q=3 kind
    # and the tail inside the q=2 kind.
    KINDS = ((3, 100_000), (3, 100_000), (2, 5_000_000))
    HEADER = ["q", "message", "nondisturbing", "mean_fidelity",
              "mean_fidelity_exact", "detection_probability"]
    cycle = len(KINDS)
    trace_cycles = 4

    def task(self, index: int) -> list:
        q, trials = self.KINDS[index % self.cycle]
        return ["simulate", "naive", "--q", str(q), "--trials", str(trials),
                "--seed", str(task_seed(self.seed, index))]

    def check(self, index: int, text: str) -> str | None:
        q, trials = self.KINDS[index % self.cycle]
        header, rows = parse_csv(text)
        if header != self.HEADER:
            return f"unexpected header {header}"
        if [row[:2] for row in rows] != [[str(q), "1"], [str(q), "2"]]:
            return f"unexpected rows {rows}"
        exact = 0.75 ** q
        sigma = math.sqrt((0.625 ** q - 0.5625 ** q) / trials)
        for row in rows:
            mean, listed, detection = (float(x) for x in row[3:])
            if row[2] != "true":
                return f"message {row[1]} reported as disturbed"
            if listed != exact:
                return f"mean_fidelity_exact {listed!r} != 0.75**{q}"
            if abs(mean - exact) > 5.0 * sigma:
                return f"Monte Carlo mean {mean!r} more than 5 sigma from {exact!r}"
            if abs(detection - (1.0 - mean)) > 1e-12:
                return f"detection_probability {detection!r} != 1 - {mean!r}"
        return None


WORKLOADS = {w.name: w for w in (GentleSweep, SealEval, NaiveProtocol)}
