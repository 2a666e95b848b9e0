import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qseal
from conftest import count_calls, random_scheme, source_module
from qseal import gentle, naive, seal
from qseal.cli import (MAX_GRID_POINTS, MAX_M, MAX_Q, RunConfig, build_parser,
                       cmd_bounds_fig1, cmd_bounds_fig2, format_cell, main)
from qseal.qubit_seal import QubitSealFamily
from qseal.rng import derive_rng
from qseal.seal import SealScheme, pairs_from_array, save_scheme
from qseal.states import PureState

SRC = Path(qseal.__file__).resolve().parent.parent
BYTECHECK = source_module(Path(__file__).resolve().parent.parent / "tools" / "bytecheck.py")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_field_validation(self):
        # RunConfig holds only the options every command reads
        assert [f.name for f in dataclasses.fields(RunConfig)] == ["seed", "output_path"]
        RunConfig(seed=0)
        with pytest.raises(ValueError):
            RunConfig(seed=-1)
        with pytest.raises(ValueError):
            RunConfig(seed=2 ** 64)

    def test_float_seed_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(seed=1.5)
        assert str(exc.value) == "seed must be an integer, got float"


class TestFormatting:
    def test_cell_types(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(np.bool_(True)) == "true"
        assert format_cell(7) == "7"
        assert format_cell(0.5) == "0.5"

    def test_floats_round_trip(self):
        rng = np.random.default_rng(223)
        for x in rng.uniform(-1.0, 1.0, size=200):
            assert float(format_cell(float(x))) == float(x)


class TestBoundsDist:
    def test_spot_rows(self, capsys):
        code, out, err = run(capsys, "bounds", "dist", "--grid", "101")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "p_dist_upper", "p_dist_lower_paper",
                          "p_dist_lower_numeric"]
        assert len(rows) == 101
        last = [float(x) for x in rows[-1]]
        assert last == [1.0, 0.5, 0.5, 0.5]
        mid = [float(x) for x in rows[50]]
        assert mid[0] == pytest.approx(0.75, abs=1e-15)
        assert mid[1] == pytest.approx(0.8125, abs=1e-12)

    def test_upper_curve_is_clamped(self, capsys):
        code, out, _ = run(capsys, "bounds", "dist", "--grid", "11")
        _, rows = parse_csv(out)
        for row in rows:
            assert 0.5 <= float(row[1]) <= 1.0

    def test_writes_file_with_summary(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        code, out, err = run(capsys, "bounds", "dist", "--out", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert target.read_text().startswith("p,p_dist_upper")
        assert target.read_bytes().count(b"\r") == 0

    def test_one_cap_call_per_curve(self, monkeypatch):
        calls = count_calls(monkeypatch, seal, "p_dist_upper_bound")
        cmd_bounds_fig1(RunConfig(), 1001)
        assert calls == [("cmd_bounds_fig1", (1001,))]


class TestBoundsNfp:
    def test_one_cap_call_per_column(self, monkeypatch):
        calls = count_calls(monkeypatch, seal, "p_nfp_upper_bound")
        table = cmd_bounds_fig2(RunConfig(), [2, 3, 7], 1001)
        # each column's call takes the grid points it fills, p >= 1/M
        filled = [sum(cell is not None for cell in column)
                  for column in list(zip(*table.rows))[1:]]
        assert filled == [501, 667, 858]
        assert calls == [("cmd_bounds_fig2", (n,)) for n in filled]

    def test_float_message_count_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            cmd_bounds_fig2(RunConfig(), [2.7])
        assert str(exc.value) == "M must be an integer, got float"

    def test_default_message_counts(self, capsys):
        code, out, _ = run(capsys, "bounds", "nfp", "--grid", "101")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "p_nfp_upper_M2", "p_nfp_upper_M4",
                          "p_nfp_upper_M16", "p_nfp_upper_M256"]
        # p = 0: every column is below its 1/M threshold, all blank
        assert rows[0] == ["0", "", "", "", ""]
        mid = rows[50]
        assert float(mid[0]) == pytest.approx(0.5, abs=1e-15)
        assert float(mid[1]) == pytest.approx(0.5, abs=1e-12)
        last = rows[-1]
        assert float(last[1]) == pytest.approx(0.0, abs=1e-12)

    def test_population_threshold(self, capsys):
        code, out, _ = run(capsys, "bounds", "nfp", "--grid", "101")
        _, rows = parse_csv(out)
        for row in rows:
            p = float(row[0])
            for cell, m in zip(row[1:], (2, 4, 16, 256)):
                if p >= 1.0 / m - 1e-12:
                    assert cell != "", (p, m)
                    assert 0.0 <= float(cell) <= 1.0
                else:
                    assert cell == "", (p, m)

    def test_quarter_point_for_four_messages(self, capsys):
        code, out, _ = run(capsys, "bounds", "nfp", "--grid", "5", "--M", "4")
        _, rows = parse_csv(out)
        quarter = rows[1]  # p = 0.25
        assert float(quarter[0]) == 0.25
        assert float(quarter[1]) == pytest.approx(0.75, abs=1e-12)

    def test_repeat_flag_dedupes(self, capsys):
        code, out, _ = run(capsys, "bounds", "nfp", "--M", "3", "--M", "3",
                           "--M", "2", "--grid", "3")
        header, _ = parse_csv(out)
        assert header == ["p", "p_nfp_upper_M3", "p_nfp_upper_M2"]

    def test_rejects_single_message(self, capsys):
        code, _, err = run(capsys, "bounds", "nfp", "--M", "1")
        assert code == 2
        assert "error:" in err


class TestVerifyGentle:
    def test_clean_run(self, capsys):
        code, out, err = run(capsys, "verify", "gentle", "--dim", "4",
                             "--outcomes", "3", "--instances", "20")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["instance", "epsilon_target", "epsilon"]
        assert len(rows) == 20
        assert all(row[-1] == "true" for row in rows)
        assert "violations=0" in err
        for row in rows:  # slack columns stay non-negative on a clean run
            assert float(row[5]) >= 0.0 and float(row[8]) >= 0.0

    def test_zero_instances(self, capsys):
        code, out, err = run(capsys, "verify", "gentle", "--instances", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == []

    def test_bad_dimension_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "gentle", "--dim", "80",
                           "--instances", "1")
        assert code == 2
        assert "error:" in err

    SHAPES = [
        (["--dim", "1"], "dim must lie in [2, 64], got 1"),
        (["--dim", "65"], "dim must lie in [2, 64], got 65"),
        (["--outcomes", "1"], "need at least 2 outcomes, got 1"),
        (["--outcomes", "257"], "outcomes must lie in 2 to 256, got 257"),
    ]

    @pytest.mark.parametrize("shape,message", SHAPES,
                             ids=[" ".join(a) for a, _ in SHAPES])
    def test_bad_shape_exits_two_without_instances(self, capsys, shape, message):
        code, out, err = run(capsys, "verify", "gentle", *shape, "--instances", "0")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_help_states_ranges(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "gentle", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "POVM outcomes (2..256)" in text
        assert "random instances to draw (0..100000)" in text

    def test_violations_exit_one_and_name_the_first_offender(self, capsys, monkeypatch):
        # a bound no instance above epsilon 0.01 can meet
        real = gentle.unknown_outcome_bound
        monkeypatch.setattr(gentle, "unknown_outcome_bound",
                            lambda eps: np.where(eps > 0.01, -1.0, real(eps)))
        shape = dict(dim=4, outcomes=3, instances=30)
        code, out, err = run(capsys, "verify", "gentle",
                             *(f"--{k}={v}" for k, v in shape.items()))
        assert code == 1
        _, rows = parse_csv(out)
        failed = [row for row in rows if row[-1] == "false"]
        assert 0 < len(failed) < len(rows)
        offender_line, *summary = err.splitlines()
        assert summary[0] == f"instances=30 dim=4 outcomes=3 violations={len(failed)}"
        offender = json.loads(offender_line)
        # the instance the sweep yields at that index from the command's stream
        sweep = gentle.sweep_instances(*shape.values(),
                                       derive_rng(0, "verify-gentle", *shape.values()))
        index, first = next((i, instance) for i, (_, instance, report) in enumerate(sweep)
                            if not report.satisfied_unknown)
        assert int(failed[0][0]) == index
        assert (offender["dim"], offender["dominant_label"], offender["epsilon"],
                offender["rho"]) == (4, first.dominant_label, first.epsilon,
                                     pairs_from_array(first.rho.matrix))

    def test_most_outcomes(self, capsys):
        code, out, _ = run(capsys, "verify", "gentle", "--dim", "2",
                           "--outcomes", "256", "--instances", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][-1] == "true"


class TestSimulateNaive:
    def test_exact_column_and_nondisturbing(self, capsys):
        code, out, _ = run(capsys, "simulate", "naive", "--q", "1",
                           "--trials", "2000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["q", "message", "nondisturbing", "mean_fidelity",
                          "mean_fidelity_exact", "detection_probability"]
        assert [row[1] for row in rows] == ["1", "2"]
        for row in rows:
            assert row[2] == "true"
            assert float(row[4]) == 0.75
            assert abs(float(row[3]) - 0.75) < 0.1
            assert float(row[5]) == pytest.approx(1.0 - float(row[3]), abs=1e-15)

    def test_exact_value_at_q4(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "simulate", "naive", "--q", "4",
                               "--trials", "100")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # one 4096 x 4096 complex projector alone would be 268 MB
        assert peak < 32 * 2 ** 20
        _, rows = parse_csv(out)
        assert float(rows[0][4]) == 0.31640625  # (3/4)^4 exactly
        assert all(row[2] == "true" for row in rows)

    def test_memory_does_not_grow_with_trials(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "simulate", "naive", "--q", "2",
                               "--trials", "8000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # an all-at-once draw needs about 38 B per trial, 300 MB here
        assert peak < 32 * 2 ** 20
        _, rows = parse_csv(out)
        sigma = ((0.625 ** 2 - 0.5625 ** 2) / 8_000_000) ** 0.5
        assert all(abs(float(row[3]) - 0.5625) < 5.0 * sigma for row in rows)

    def test_nondisturbing_reported_above_dense_capacity(self, capsys):
        code, out, _ = run(capsys, "simulate", "naive", "--q", "5",
                           "--trials", "100")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(row[2] == "true" for row in rows)

    def test_rejects_bad_q(self, capsys):
        code, _, err = run(capsys, "simulate", "naive", "--q", "0")
        assert code == 2

    def test_largest_q(self, capsys):
        code, out, _ = run(capsys, "simulate", "naive", "--q", str(MAX_Q),
                           "--trials", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[:3] for row in rows] == [[str(MAX_Q), "1", "true"],
                                             [str(MAX_Q), "2", "true"]]

    def test_q_above_cap_exits_two(self, capsys):
        # rejected before the 3q-register permutations are drawn
        code, out, err = run(capsys, "simulate", "naive", "--q", str(MAX_Q + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: q must lie in 1 to {MAX_Q}, got {MAX_Q + 1}\n"

    @pytest.mark.parametrize("q", [1, MAX_Q])
    def test_trials_above_bit_cap_exits_two(self, capsys, q):
        # rejected before the first bit is drawn
        trials = 2 ** 32 // q + 1
        code, out, err = run(capsys, "simulate", "naive", "--q", str(q),
                             "--trials", str(trials))
        assert code == 2
        assert out == ""
        assert err == (f"error: trials * q must be at most {2 ** 32}, "
                       f"got {trials} * {q}\n")

    @pytest.mark.parametrize("q", [1, MAX_Q])
    def test_trials_at_bit_cap_run(self, capsys, monkeypatch, q):
        # a real run at 2^32 bits takes about 30 s, so the cap is lowered
        monkeypatch.setattr(naive, "MAX_ATTACK_BITS", 12 * q)
        code, out, _ = run(capsys, "simulate", "naive", "--q", str(q),
                           "--trials", "12")
        assert code == 0
        assert [row[:2] for row in parse_csv(out)[1]] == [[str(q), "1"],
                                                         [str(q), "2"]]
        code, out, err = run(capsys, "simulate", "naive", "--q", str(q),
                             "--trials", "13")
        assert (code, out) == (2, "")
        assert err == f"error: trials * q must be at most {12 * q}, got 13 * {q}\n"


class TestSimulateAchieve:
    def test_returned_diagonals(self, capsys):
        code, out, err = run(capsys, "simulate", "achieve", "--p", "0.75")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["p"]) == 0.75
        assert float(row["promise_m1"]) == pytest.approx(0.75, abs=1e-12)
        assert float(row["promise_m2"]) == pytest.approx(0.75, abs=1e-12)
        assert float(row["returned_m1_diag0"]) == pytest.approx(0.75, abs=1e-12)
        assert float(row["returned_m1_diag1"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["returned_m2_diag0"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["returned_m2_diag1"]) == pytest.approx(0.75, abs=1e-12)
        assert float(row["phi_spread"]) <= 1e-10
        assert "note:" in err  # convention caveat is always surfaced

    def test_note_states_how_the_floors_relate(self, capsys):
        # the relation tests/test_qubit_seal.py pins in
        # test_closed_forms_of_both_floors
        code, _, err = run(capsys, "simulate", "achieve", "--p", "0.9")
        assert code == 0
        assert err == ("note: p_dist_lower_paper is the Helstrom expression of "
                       "p_dist_lower_numeric with the Hilbert-Schmidt norm in "
                       "place of the trace norm\n")

    def test_degenerate_top_of_range(self, capsys):
        code, out, _ = run(capsys, "simulate", "achieve", "--p", "1.0")
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row[3]) == pytest.approx(1.0, abs=1e-12)
        assert float(row[7]) == pytest.approx(0.5, abs=1e-12)
        assert float(row[8]) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_out_of_family(self, capsys):
        for bad in ("0.5", "0.4", "1.5"):
            code, _, err = run(capsys, "simulate", "achieve", "--p", bad)
            assert code == 2
            assert "error:" in err


class TestSealEval:
    @pytest.fixture()
    def family_file(self, tmp_path):
        path = tmp_path / "family.json"
        save_scheme(QubitSealFamily(0.75).scheme(), path)
        return path

    def test_family_metrics(self, capsys, family_file):
        code, out, err = run(capsys, "seal", "eval", "--scheme",
                             str(family_file))
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3  # two messages plus the average row
        first = dict(zip(header, rows[0]))
        assert float(first["p_nfp_numeric"]) == pytest.approx(0.375, abs=1e-10)
        assert float(first["p_dist_upper"]) == pytest.approx(0.8125, abs=1e-10)
        average = rows[-1]
        assert average[0] == "" and average[1] == ""
        assert "uniform-prior averages" in err

    def test_random_scheme_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(227)
        scheme = random_scheme(rng, 3, 1, 4)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        code, out, _ = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_rejects_broken_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert "scheme file" in err

    def test_rejects_file_that_is_not_utf8(self, capsys, tmp_path):
        # JSON text is UTF-8; a file that does not decode is not valid JSON
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: scheme file: not valid JSON ('utf-8' codec")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_rejects_deeply_nested_file(self, capsys, tmp_path):
        # json.loads raises RecursionError long before the nesting ends
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: scheme file: not valid JSON (")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("where", ["promised_p", "state entry"])
    def test_rejects_number_too_large_for_float(self, capsys, tmp_path,
                                                family_file, where):
        doc = json.loads(family_file.read_text())
        if where == "promised_p":
            doc["promised_p"] = 10 ** 400
        else:
            doc["states"][0][1][0] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert "scheme file" in err

    def test_rejects_boolean_entries(self, capsys, tmp_path, family_file):
        doc = json.loads(family_file.read_text())
        doc["povm"][0]["matrix"][0] = [True, False]
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert "scheme file: povm[0].matrix[0]" in err

    def test_rejects_dim_b_above_dense_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"M": 2, "dimA": 1, "dimB": 5000,
                                    "promised_p": 0.9, "states": [],
                                    "povm": []}))
        code, _, err = run(capsys, "seal", "eval", "--scheme", str(path))
        assert code == 2
        assert err.count("\n") == 1
        assert "dimB 5000 is above the dense cap 4096" in err

    def test_joint_dimension_above_dense_cap(self, capsys, tmp_path):
        # a (x) psi_m with dim_a = 2200: joint 4400, above the 4096 cap that
        # binds dim_b, evaluates to the metrics of the dim_a = 1 scheme
        small = QubitSealFamily(0.75, 0.3).scheme()
        a = np.random.default_rng(229).normal(size=2200) + 0j
        a /= np.linalg.norm(a)
        padded = SealScheme(2, 2200, 2, small.promised_p,
                            tuple(PureState(np.kron(a, s.amplitudes), (2200, 2))
                                  for s in small.joint_states),
                            small.bob_povm)
        tables = []
        for name, scheme in (("small", small), ("padded", padded)):
            path = tmp_path / f"{name}.json"
            save_scheme(scheme, path)
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "seal", "eval", "--scheme", str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            # one 4400 x 4400 complex matrix alone would be 310 MB
            assert peak < 32 * 2 ** 20
            tables.append(parse_csv(out))
        (header, small_rows), (_, padded_rows) = tables
        for small_row, padded_row in zip(small_rows, padded_rows):
            for name, x, y in zip(header, small_row, padded_row):
                if x == "":
                    assert y == ""
                else:
                    assert float(y) == pytest.approx(float(x), abs=1e-12), name

    def test_rejects_overclaimed_promise(self, capsys, tmp_path, family_file):
        doc = json.loads(family_file.read_text())
        doc["promised_p"] = 0.999
        lying = tmp_path / "lying.json"
        lying.write_text(json.dumps(doc))
        code, _, err = run(capsys, "seal", "eval", "--scheme", str(lying))
        assert code == 2
        assert "message" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "seal", "eval", "--scheme",
                           str(tmp_path / "absent.json"))
        assert code == 2

    # (edit of the qubit family's file, the one line `seal eval` prints)
    HOSTILE = {
        "dimB 0": (lambda d: d.__setitem__("dimB", 0),
                   "scheme file: states[0] must list 0 [re, im] pairs"),
        "dimA 0": (lambda d: d.__setitem__("dimA", 0),
                   "scheme file: states[0] must list 0 [re, im] pairs"),
        "M 10**6": (lambda d: d.__setitem__("M", 10 ** 6),
                    "scheme file: states must list 1000000 vectors"),
        "M -1": (lambda d: d.__setitem__("M", -1),
                 "scheme file: states must list -1 vectors"),
        "label 10**30": (lambda d: d["povm"][0].__setitem__("label", [10 ** 30, 1]),
                         "POVM label (1000000000000000000000000000000, 1) names"
                         " a message outside 1..2"),
        "NaN state": (lambda d: d["states"][0][0].__setitem__(0, float("nan")),
                      "amplitudes contain non-finite entries"),
        "inf element": (lambda d: d["povm"][0]["matrix"][0].__setitem__(0, float("inf")),
                        "element (1, 1) contains non-finite entries"),
        "duplicate label": (lambda d: d["povm"][1].__setitem__("label", [1, 1]),
                            "duplicate POVM label (1, 1)"),
        "float M": (lambda d: d.__setitem__("M", 2.0),
                    "scheme file: M, dimA, dimB must be integers"),
        "negative dimB": (lambda d: d.__setitem__("dimB", -2),
                          "scheme file: states[0] must list -2 [re, im] pairs"),
        # within POVM_SUM_TOL of I, so it loads; the cheat state's trace
        # 1 + 5e-10 is not within TRACE_TOL of 1
        "POVM sum (1 + 5e-10) I": (
            lambda d: [e.__setitem__("matrix", [[x * (1 + 5e-10) for x in pair]
                                                for pair in e["matrix"]])
                       for e in d["povm"]],
            "density matrix trace 1.0000000005 deviates from 1 by more than 1.0e-10"),
    }

    @pytest.mark.parametrize("name", list(HOSTILE))
    def test_hostile_file_exits_two_with_one_line(self, capsys, tmp_path,
                                                  family_file, name):
        mutate, message = self.HOSTILE[name]
        doc = json.loads(family_file.read_text())
        mutate(doc)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "seal", "eval", "--scheme", str(path)) == (
            2, "", f"error: {message}\n")

    # (edit of the qubit family's file with entries whose arithmetic
    # overflows, the one line `seal eval` prints)
    HOSTILE_MAGNITUDES = {
        "POVM entries 1e308": (
            lambda d: d["povm"][0].__setitem__("matrix", [[1e308, 0.0]] * 4),
            "element (1, 1) has entries too large to symmetrize"),
        "antisymmetric POVM entries 1e308": (
            lambda d: d["povm"][0].__setitem__(
                "matrix", [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]),
            "element (1, 1) has entries too large to symmetrize"),
        "state amplitude 1e200": (
            lambda d: d["states"][0].__setitem__(0, [1e200, 0.0]),
            "state norm inf deviates from 1 by more than 1.0e-10"),
        "POVM sum overflows": (
            lambda d: d.__setitem__("povm", [
                {"label": label, "matrix": [[8e307, 0.0], [0.0, 0.0], [0.0, 0.0], [8e307, 0.0]]}
                for label in ([1, 1], [1, 2], [2, 1])]),
            "POVM element sum deviates from identity by inf > 1.0e-09"),
    }

    @pytest.mark.parametrize("name", list(HOSTILE_MAGNITUDES))
    def test_overflowing_file_prints_one_line_and_no_warning(self, tmp_path,
                                                             family_file, name):
        # a fresh interpreter, so a numpy warning would reach stderr as it
        # does for a user
        mutate, message = self.HOSTILE_MAGNITUDES[name]
        doc = json.loads(family_file.read_text())
        mutate(doc)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        done = subprocess.run(
            [sys.executable, "-m", "qseal.cli", "seal", "eval", "--scheme", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(SRC), os.environ.get("PYTHONPATH", "")])))
        assert "Warning" not in done.stderr
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


class TestOptions:
    UNREAD = [
        ["bounds", "dist", "--trials", "5"],
        ["bounds", "nfp", "--tol", "1e-3"],
        ["verify", "gentle", "--grid", "3"],
        ["simulate", "naive", "--tol", "1e-3"],
        ["simulate", "achieve", "--trials", "5"],
        ["seal", "eval", "--scheme", "scheme.json", "--grid", "3"],
    ]

    @pytest.mark.parametrize("argv", UNREAD, ids=[" ".join(a) for a in UNREAD])
    def test_option_the_command_ignores_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "gentle"],
                                      ["seal", "eval", "--scheme", "scheme.json"]],
                             ids=["verify gentle", "seal eval"])
    def test_infinite_tolerance_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--tol", "inf")
        assert code == 2
        assert "tolerance must be finite" in err

    @pytest.mark.parametrize("argv", [["bounds", "dist"], ["bounds", "nfp"]],
                             ids=["bounds dist", "bounds nfp"])
    def test_grid_above_cap_exits_two(self, capsys, argv):
        # rejected before any sweep array is allocated
        code, out, err = run(capsys, *argv, "--grid", "100002")
        assert code == 2
        assert out == ""
        assert err == "error: grid must have 2 to 100001 points, got 100002\n"

    OUT_OF_RANGE = [
        (["bounds", "dist", "--grid", "1"], f"grid must have 2 to {MAX_GRID_POINTS} points, got 1"),
        (["bounds", "nfp", "--grid", "1"], f"grid must have 2 to {MAX_GRID_POINTS} points, got 1"),
        (["bounds", "nfp", "--M", "1" + "0" * 400],
         f"every M must be at most {MAX_M}, got 1{'0' * 400}"),
        (["verify", "gentle", "--tol", "0"], "tolerance must be finite and positive, got 0.0"),
        (["verify", "gentle", "--tol", "nan"],
         "tolerance must be finite and positive, got nan"),
        (["verify", "gentle", "--instances", "100001"],
         "instances must lie in 0 to 100000, got 100001"),
        (["verify", "gentle", "--instances", "-1"],
         "instances must lie in 0 to 100000, got -1"),
        (["simulate", "naive", "--trials", "0"], "trials must be positive, got 0"),
        (["seal", "eval", "--scheme", "scheme.json", "--tol", "0"],
         "tolerance must be finite and positive, got 0.0"),
        (["seal", "eval", "--scheme", "scheme.json", "--tol", "nan"],
         "tolerance must be finite and positive, got nan"),
    ]

    @pytest.mark.parametrize("argv,message", OUT_OF_RANGE,
                             ids=[" ".join(a) for a, _ in OUT_OF_RANGE])
    def test_out_of_range_option_exits_two(self, capsys, argv, message):
        # checked before the command reads a file or builds an array
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    SETTINGS = [
        (["bounds", "dist"], "--grid", "101"),
        (["bounds", "nfp"], "--grid", "101"),
        (["verify", "gentle"], "--tol", "1e-09"),
        (["simulate", "naive"], "--trials", "100000"),
        (["seal", "eval"], "--tol", "1e-09"),
    ]

    @pytest.mark.parametrize("argv,option,default", SETTINGS,
                             ids=[" ".join(a) for a, _, _ in SETTINGS])
    def test_help_states_runconfig_default(self, capsys, argv, option, default):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"{option} " in text
        assert f"(default {default})" in text


class TestDeterminism:
    COMMANDS = [
        ("bounds-dist", ["bounds", "dist", "--grid", "21"]),
        ("bounds-nfp", ["bounds", "nfp", "--grid", "21"]),
        ("verify-gentle", ["verify", "gentle", "--dim", "4", "--outcomes", "3",
                           "--instances", "10"]),
        ("simulate-naive", ["simulate", "naive", "--q", "2", "--trials", "500"]),
        ("simulate-achieve", ["simulate", "achieve", "--p", "0.8"]),
    ]

    @pytest.mark.parametrize("name,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_repeat_runs_are_byte_identical(self, tmp_path, name, argv):
        paths = [tmp_path / f"{name}-{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(argv + ["--seed", "42", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seal_eval_byte_identical(self, tmp_path):
        scheme_path = tmp_path / "scheme.json"
        save_scheme(QubitSealFamily(0.9).scheme(), scheme_path)
        paths = [tmp_path / f"eval-{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(["seal", "eval", "--scheme", str(scheme_path),
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_monte_carlo(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"naive-{seed}.csv"
            main(["simulate", "naive", "--q", "2", "--trials", "500",
                  "--seed", seed, "--out", str(path)])
            outs.append(path.read_text())
        assert outs[0] != outs[1]


def run_to_exit(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits
    (usage errors, ``--help``) included."""
    with pytest.raises(SystemExit) as exc:
        sys.exit(main(list(argv)))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    # sha256 of each command's --help text at 80 columns; a deliberate
    # change to a help text updates its digest here
    HELP_SHA256 = {
        "bounds dist": "5a208f0f52e168fac180d872c10c766e84e1ac34225cb7f584f033f0d9e4ffaf",
        "bounds nfp": "53678c1db932cc08240c8a43dcadfaaebe7d6aa8d99a63d3654c8afed136551e",
        "verify gentle": "c64067a82e27fcf18e215fbc683c8f85b8ce82bac267b60e4ef0ba1f24add8d2",
        "simulate naive": "457a27e4053b34f6ea9fcdb85d8f1ea9929bba8d5bd1b0c5d1bf76d24ab59ab0",
        "simulate achieve": "1c99363297fae21139d8fd8a266799b0f18290fb95596e874aa48377bcb24713",
        "seal eval": "9ba66a5115eb989332036851917cc302341b4a2baaacd4cee16bdaae5ceacdff",
    }

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["bounds", "nfp", "--grid", "5", "--M", "3"],
            ["bounds", "dist", "--grid", "x"],
            ["bounds", "nfp", "--grid", "5"],
            ["verify", "gentle", "--dim"],
            ["seal", "eval", "--help"],
            ["bounds", "nfp", "--grid", "5", "--M", "3", "--M", "5"],
        ]
        reused = [run_to_exit(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_to_exit(capsys, *argv))
        assert reused == fresh

    @pytest.mark.parametrize("command", list(HELP_SHA256))
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_to_exit(capsys, *command.split(), "--help")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP_SHA256[command], out


def openblas_core() -> str:
    """The name of the kernel core numpy's bundled OpenBLAS picked at run
    time (which ``OPENBLAS_CORETYPE`` overrides), or "unknown" without that
    library.

    The build string names the core OpenBLAS was configured for, which need
    not be the one that runs."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numeric_build() -> str:
    """The numpy version, the BLAS and LAPACK libraries it was built with and
    the OpenBLAS core it runs."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return f"numpy {np.__version__}, " + ", ".join(
        f"{kind} {deps[kind]['name']} {deps[kind].get('version', '?')}"
        for kind in ("blas", "lapack")) + f", {openblas_core()} core"


class TestOutputBytes:
    # (exit code, sha256 of stdout, sha256 of stderr) of each command of
    # tools/bytecheck.py at its seed, taken with numpy 2.4.6 on scipy-openblas
    # 0.3.31; a deliberate change to a command's bytes updates its row here.
    # The rows whose last digits follow the OpenBLAS kernels hold one digest
    # per core that ``openblas_core`` names (Zen runs the Haswell core, and
    # OPENBLAS_CORETYPE=Prescott the Katmai core); any other core fails them
    OUTPUT_SHA256 = {
        "bounds dist": (
            0, "b5dd925217bac941d67c6f17c5761f1814bab0a3faec067ae06c47f82ed0f07b",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "bounds nfp": (
            0, "8598d4087ac4d32c8c0fabccc4a1e757b4faf28eeb9f21f0366dafe754a1cd53",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "verify gentle --dim 8 --outcomes 4 --instances 50": {
            "SkylakeX": (
                0, "54c0dca57730d7e376e66c7afe5ae674f57fc6cf7f142e7dfb28594be64edcdb",
                "858b254739063c124924ea97f7c44b9d3176c970b2ab6bf871ec7a7a21f35ac2"),
            "Haswell": (
                0, "23580de65ed3074b48cb14e82855f9eb77d2eb01cf72bed1f124601cf155f303",
                "b42038446df4b74fc57edb20f44feb761961a54c4d89583a10f7a8fbaf60f15c"),
            "Sandybridge": (
                0, "da97f8e0529e8a25c0c7fd8827baba17e0cc939a4b7be52234c9dceda44c5b7c",
                "f123929f9501f38880fb74301cd2e25a89d354de5c5d0e81554ec3f674b86f6a"),
            "Nehalem": (
                0, "90234bec13301be70f7b16ac1ad5d7b834e5504768ed41c0019a1203023e912d",
                "f6d9d7c95fcd20132ab840d789fba3f601f3189254f42e6ee43e00ae66e7730e"),
            "Katmai": (
                0, "c35e323b86d8d437022b4033b5771fe61383027f92a407996ce6dc3fb9417136",
                "af948353ff10714b6dbd8b29062749076ed9123a589b3d3e2da5e279c0e98a2c"),
        },
        "simulate naive --q 2 --trials 20000": (
            0, "d5362b8963a724db0981372954bd8a7050324f98d12800f82d838c6ac7b7fec3",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate achieve --p 0.75": (
            0, "cf58e759c92555a0b2968af3fb6e84d56ea7a80882e9980e2e2b894c6702adc8",
            "e9909c5a03edc57d868ada37265c8e609e10c7de2ff9efdaef3632820fe2786a"),
        "simulate achieve --p 0.6": (
            0, "16c63546f4dd600d41ae918aef5507acf607cbe41a18a803c223913cb88415a1",
            "e9909c5a03edc57d868ada37265c8e609e10c7de2ff9efdaef3632820fe2786a"),
        "seal eval --scheme family.json": (
            0, "65674572ca51dd7e68ae6779644f6a492fba5ea2b7d3649b26f89c4acf5672c3",
            "33009df3ce70e25b2ee4d8a4355854c0dda7fc7587792779b15fb2c8e51a6a20"),
        "verify gentle --dim 16 --outcomes 4 --instances 100": {
            "SkylakeX": (
                0, "9c28dca3bdd550c8e2b72a34cecceda513e2589434db0723dc7148774d7f1c82",
                "c830bc4910a2ff4811787b84b897a573591d34f50b30c2e0b86ee7337584e07d"),
            "Haswell": (
                0, "4d91463d2f3c8c057976544794e9cca1df21e258b26a32b106928a0e5ecf5023",
                "7dc9086fdbe59385da48a6c00981fb656673a36f9db0830e26a5b4f70752f93c"),
            "Sandybridge": (
                0, "ea1055f470500ccdfecb48bb8934d08a9a375ebef3d8e5f7a1f123deeb1e3b40",
                "2a452e30932ed898684b323b58ddee3261e55fef2e123580e20f2b2b49a7754b"),
            "Nehalem": (
                0, "44ab2892b955ebd43b0c6feeeaa4cf6e204cfc91d0b43d450646f6551fc9ffe2",
                "4fec46e8f6e8c11e4918468b7fd04fbb3d0e554be41415e63d57dfc6e1e56bcd"),
            "Katmai": (
                0, "ded37ba13b7529a81554f0dc121240376c06904d82222230fb934fa0228282ed",
                "e9b3efbd22e53dcb466130d355b1809f680f4c915382ae4ed7d1a4edebaf3b62"),
        },
        "simulate naive --q 3 --trials 20000": (
            0, "9983ab8b3777b4c26bd7a3a2b39be622ac798fc0721d9c0a5078ee3aa0a12f0a",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 40 --trials 20000": (
            0, "c411d038e1026b65ba47f65508ffb2370554e7cd89d89feaaace7cc2977bda50",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 1000 --trials 2000": (
            0, "9f7aa0f5345f60a247784d1ea15ffeab0098d27bb656d321d06089c1eb22920d",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seal eval --scheme entangled.json": {
            "SkylakeX": (
                0, "9cc071565e30642d8659e938920056dc689230925d70e389eb3a3eab473037f4",
                "8d2820d93d36476aa1f3f09c2b81e2fe1b2dbda5cb841ffc75b3c0c726e6abf5"),
            "Haswell": (
                0, "08c93a0344639a2fab0fe66598103ac3b01bd2748e0f89cdc3981fcabb42da94",
                "4bcc3c1d7479fd134c9ae4c495d87c46ff2b10957c47c1d781d3f8627026f7fb"),
            "Sandybridge": (
                0, "bba79932fb73ada167ce527bf4e925e54eb3a07ae238d0a3e7d9e196bbefb127",
                "ef8143c08ac03d0c3c098cd9827670b8dc8aed92929f4274b691ece1544dd0c6"),
            "Nehalem": (
                0, "fd9e8792b680f31ebdd45e8fcf3190b4cf477c89fd45aef556be3aa8f1061bf5",
                "0fa5f35f576e12e6ec6b480b41de18c46c1d145aa2937aca493194b6d86a38b9"),
            "Katmai": (
                0, "4a95487657d02c16487e3cba0b143ba54d1330ec9c979322a6b6ca3a4614673f",
                "a15ca9e07a937289d18491a25029fcfc2b656ea53a10c353e38b0b1c28588dca"),
        },
        "bounds dist --grid 10001": (
            0, "a381a844b17c618e8704d8118c5febe617a062ad81294a9ae4b3adb3cc7c2d54",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "bounds nfp --grid 10001": (
            0, "417aa69019b0cfecad4aea1b73e08b5cfa9397b8a5bd87a5a31fc28aa2f19a49",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "bounds nfp --grid 10001 --M 2 --M 3 --M 7 --M 1000": (
            0, "2a6c1142e04335113228dec92fbff785b7b8a728234a7801a3b1a16243fb3bc5",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 12 --trials 20000": (
            0, "3a94fde49f918332fe3612b71db1a8452849988d561c26bb74b1808d781a822f",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 31 --trials 20000": (
            0, "256ef603de96af07dfb068ba41e1d78caa893bff3ba80f2a86addda1e4f58de2",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 11 --trials 200000": (
            0, "97c39aac1505c68ac31ac223780d11d2084e45191dee2ba21c79cbcf97a157a6",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "seal eval --scheme diagonal.json": {
            "SkylakeX": (
                0, "30bc72fc0002c65831c594e0d04aaa3db2dd1ad8674e6663f96a3cf6b588a7d6",
                "5f947646d5dd32046a303a638d6d4fafc67ad023d6fb0afd2355c1c3a8523fa8"),
            "Haswell": (
                0, "ddb5ef8aeb56a8346f5df660ef12e15425a4ab7ab97d44ff93439b6a35ef35f3",
                "ad91b69f6791a1d1fb0f0a2bb1b0476f40152bf758b1bdba113249b855c6fbd6"),
            "Sandybridge": (
                0, "ddb83d8b81c9ac6de7e1ec510616bb1c169cfb1ce403f7706d654afbeb88ecd2",
                "d5b1a68b1498fab0cb55960044c2c815a84bbaaec662b0c5b391a84085b4a3a0"),
            "Nehalem": (
                0, "8e1882b2a5faea104b256b4dbd5f7c5dd7785128ef227a584a409f7431f2f767",
                "9c1770269b140628fe3e00ab202e72d34b31317fd0777d93be4b66dfd5b5d45a"),
            "Katmai": (
                0, "02feaef21652684c80badc6dd4cd6ab0a1891a9a658dc2b69648e0ce32fe1ca3",
                "56f556d14be0db66f3b96071880581bca689b0398b2caa51b670ee5a273f6550"),
        },
        # the Haswell core's digest holds at two OpenBLAS threads; at one
        # thread its stdout has sha256 993e33a880db1099efaa924bc223e2f6...
        "verify gentle --dim 64 --outcomes 24 --instances 2": {
            "SkylakeX": (
                0, "d3c991fbcc27913b2cacb15e900ddee2e8d8d51611c7451b0a992ffd0889e595",
                "22f9c72f7e815ec5f671fdbd305e19a149013e1c1cec58840674016701ff22fe"),
            "Haswell": (
                0, "216b7275f4832ebc3a346d689a0a914388cad5c9d0edb89a5ce98d1077d4c7a8",
                "bfb7b0eb31ce5afafc816f56680a453d4e6766ca1010974d014a945517248cb8"),
            "Sandybridge": (
                0, "aabb9a3e0c2d197dee01e72ac8fb13073cfc7171b6a0a22dbaaf4e926e6013e1",
                "cc11deb9cb5f0219fb90f7dfa6230162cfa9f479029b7fbf206e2ece529d5123"),
            "Nehalem": (
                0, "9e8e548ca56c832073091690c8b0512f788859d7b9b414d8937bcb427da66002",
                "d2f821721836a2a2d6100351f626d725f5502c0dd15c98a225e4b3d0a2ad2952"),
            "Katmai": (
                0, "75df7c96b24dd0cc8e390b55fa7c74de07d54251fc64f5866e48f3950ef1f228",
                "1546517d7063d2abd755c9079d41e76c1eb9fc9c2514fca7230d5a9201a72525"),
        },
        "simulate naive --q 1 --trials 1048583": (
            0, "a529e33f0d00f2d4d2a9e9ab6270b01b059aad7be6ef49047fb94d75a2387989",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "simulate naive --q 2 --trials 393221": (
            0, "53e4e4e86b79f5a913d0c1856b40bbf3bf3dfe27839222810fc40c756e0899ab",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # the family file written compactly reads as the indented one does
        "seal eval --scheme family_compact.json": (
            0, "65674572ca51dd7e68ae6779644f6a492fba5ea2b7d3649b26f89c4acf5672c3",
            "33009df3ce70e25b2ee4d8a4355854c0dda7fc7587792779b15fb2c8e51a6a20"),
    }

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytecheck")
        BYTECHECK.write_schemes(path)
        return path

    @pytest.mark.parametrize("argv", BYTECHECK.COMMANDS, ids=" ".join)
    def test_output_bytes_are_unchanged(self, capsys, monkeypatch, workdir, argv):
        monkeypatch.chdir(workdir)
        code, out, err = run_to_exit(capsys, *argv, *BYTECHECK.SEED)
        digests = (code, hashlib.sha256(out.encode()).hexdigest(),
                   hashlib.sha256(err.encode()).hexdigest())
        command = " ".join(argv)
        expected = self.OUTPUT_SHA256.get(command)
        if isinstance(expected, dict):
            expected = expected.get(openblas_core())
        assert digests == expected, (
            f"{command}: output bytes changed under {numeric_build()}")
