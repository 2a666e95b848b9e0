"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps ``qseal`` attributes by name and fails at
install time when one is missing, so renaming or deleting a traced name
breaks ``perfbench/run.py --trace 1``.  The tracer is loaded from its file
and only read.
"""

from __future__ import annotations

import pytest

from conftest import perfbench_module


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
