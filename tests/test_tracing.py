"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps ``qseal`` attributes by name and fails at
install time when one is missing, so renaming or deleting a traced name
breaks ``perfbench/run.py --trace 1``.  The tracer is loaded from its file
and only read.
"""

from __future__ import annotations

import importlib

import pytest

import qseal
from conftest import perfbench_module
from qseal import cli
from qseal.qubit_seal import QubitSealFamily
from qseal.seal import save_scheme


# Test references kept in their modules, where the spans and the tests find
# them; the package namespace does not export them.
MODULE_ONLY = {
    "linalg": ("tensor_product", "partial_trace"),
    "states": ("coarse_grain", "helstrom_probability"),
    "gentle": ("random_instance", "verify_instance"),
    "seal": ("coarse_cheat_state",),
    "naive": ("dense_state", "majority_projector_povm", "verify_nondisturbing"),
}


@pytest.fixture(scope="module")
def tracing():
    return perfbench_module("tracing")


def traced_attributes(tracing) -> list:
    """(owner, attribute, current value) of every span, in install order."""
    out = []
    for path, attr, _, _ in tracing.SPANS:
        owner = tracing._resolve(path)
        out.append((owner, attr, getattr(owner, attr)))
    return out


def test_every_span_resolves_in_qseal(tracing):
    missing = []
    for path, attr, name, _ in tracing.SPANS:
        try:
            owner = tracing._resolve(path)
        except (ImportError, AttributeError):
            missing.append(f"{path} ({name})")
            continue
        if not hasattr(owner, attr):
            missing.append(f"{path}.{attr} ({name})")
    assert missing == []


def test_package_exports_no_test_reference():
    unexported = [name for names in MODULE_ONLY.values() for name in names]
    assert [name for name in unexported + ["bloch_vector"] if hasattr(qseal, name)] == []
    for module, names in MODULE_ONLY.items():
        owner = importlib.import_module(f"qseal.{module}")
        assert [name for name in names if not hasattr(owner, name)] == [], module


def test_install_then_uninstall_restores_every_original(tracing):
    before = traced_attributes(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_commands_write_the_same_csv(tracing, tmp_path):
    # a traced call runs its span's counter on the call's own arguments, so
    # an argument the counter does not take fails only under the tracer
    scheme = tmp_path / "family.json"
    save_scheme(QubitSealFamily(0.75).scheme(), scheme)
    commands = [
        ["bounds", "dist", "--grid", "5"],
        ["bounds", "nfp", "--grid", "5"],
        ["verify", "gentle", "--dim", "4", "--outcomes", "3", "--instances", "9"],
        ["simulate", "naive", "--q", "2", "--trials", "100"],
        ["simulate", "achieve", "--p", "0.75"],
        ["seal", "eval", "--scheme", str(scheme)],
    ]
    for index, argv in enumerate(commands):
        outputs = []
        for traced in (False, True):
            out = tmp_path / f"cmd{index}-{traced}.csv"
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
            try:
                assert cli.main(argv + ["--seed", "3", "--out", str(out)]) == 0, argv
            finally:
                tracer.uninstall()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], argv
        assert tracer.calls["cli.main"] == 1


def test_traced_gentle_sweep_counts_its_trace_norms(tracing, tmp_path):
    # the sweep calls ``linalg.trace_norm`` by name, so the span sees it
    argv = ["verify", "gentle", "--dim", "4", "--outcomes", "3", "--instances", "9"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv + ["--seed", "3", "--out", str(tmp_path / "g.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.trace_norm"] >= 1
