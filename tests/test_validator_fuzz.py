"""Hostile input to the object validators: each input builds a valid object
or is rejected with a one-line ``ValueError``, never another exception."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import random_povm, random_scheme
from qseal.seal import SealScheme
from qseal.states import Povm, PureState

ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                              1e-11, 1e308, -1e308])
ENTRIES = st.one_of(st.floats(-1.5, 1.5), ODD_FLOATS)
COMPLEXES = st.builds(complex, ENTRIES, ENTRIES)
# Values of the wrong type or range for an integer, float or label field.
ODD_SCALARS = st.one_of(
    st.integers(-3, 6), st.sampled_from([10 ** 400, -10 ** 400, True, False,
                                         np.int64(2), np.float64(0.7)]),
    ODD_FLOATS, st.floats(-2, 8), st.sampled_from(["2", "two", "", None, b"2"]),
    st.just(()), st.just([]), st.just({}), st.just({"a": 1}), st.just(object()),
    st.just(np.eye(2, dtype=int)))
LABELS = st.one_of(
    ODD_SCALARS,
    st.tuples(st.integers(-2, 4), st.integers(-2, 4)),
    st.tuples(ODD_SCALARS, ODD_SCALARS),
    st.tuples(st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    st.lists(st.integers(1, 3), max_size=3))


@st.composite
def complex_arrays(draw, max_dims: int = 3) -> np.ndarray:
    """A complex array of any shape, entries mostly in [-1.5, 1.5] with odd
    values mixed in."""
    shape = draw(st.lists(st.integers(0, 4), max_size=max_dims))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(COMPLEXES, min_size=size, max_size=size)),
                    dtype=np.complex128).reshape(shape)


def spoiled(draw, matrix: np.ndarray) -> np.ndarray:
    """``matrix``, or a copy made non-Hermitian, non-PSD, non-finite,
    reshaped or otherwise off."""
    matrix = np.array(matrix, dtype=np.complex128)
    kind = draw(st.integers(0, 6))
    if kind == 1 and matrix.size:
        matrix.flat[draw(st.integers(0, matrix.size - 1))] += draw(COMPLEXES)
    elif kind == 2:
        matrix = matrix - draw(st.floats(0.0, 2.0)) * np.eye(len(matrix))
    elif kind == 3:
        matrix = matrix.T.copy() * (1 + 1j)
    elif kind == 4:
        matrix = matrix.reshape(-1)
    elif kind == 5:
        matrix = draw(st.one_of(complex_arrays(), ODD_SCALARS,
                                st.lists(st.lists(ENTRIES, max_size=3), max_size=3)))
    return matrix


@st.composite
def pure_state_inputs(draw) -> tuple:
    """(amplitudes, dims): a unit vector, a spoiled one, an array of any
    shape or a value of the wrong type, with no split, a split that fits,
    any pair of integers or a value of the wrong type."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        v = rng.normal(size=draw(st.integers(1, 8))) + 0j
        amplitudes = v / np.linalg.norm(v)
    elif kind == 1:
        amplitudes = spoiled(draw, np.eye(draw(st.integers(1, 4)))[0])
    elif kind == 2:
        amplitudes = draw(complex_arrays())
    else:
        amplitudes = draw(st.one_of(
            ODD_SCALARS, st.lists(st.one_of(ENTRIES, ODD_SCALARS), max_size=4)))
    size = amplitudes.size if isinstance(amplitudes, np.ndarray) else 2
    dims = draw(st.one_of(
        st.none(), st.sampled_from([(1, size), (size, 1)]),
        st.tuples(st.integers(-1, 8), st.integers(-1, 8)),
        st.tuples(ODD_SCALARS, ODD_SCALARS), ODD_SCALARS,
        st.lists(st.integers(1, 4), max_size=3)))
    return amplitudes, dims


@st.composite
def povm_inputs(draw):
    """Elements of a valid POVM, with spoiled matrices, odd labels, odd
    entries or odd containers mixed in."""
    kind = draw(st.integers(0, 3))
    if kind == 3:
        return draw(st.one_of(ODD_SCALARS, st.lists(ODD_SCALARS, max_size=3),
                              st.lists(st.tuples(LABELS), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    n_outcomes = draw(st.integers(1, 4))
    povm = random_povm(draw(st.integers(1, 3)), n_outcomes, rng)
    elements = []
    for label, matrix in povm.elements:
        if kind >= 1 and draw(st.booleans()):
            label = draw(LABELS)
        if kind == 2 and draw(st.booleans()):
            matrix = spoiled(draw, matrix)
        elements.append((label, matrix))
    return tuple(elements)


@st.composite
def scheme_inputs(draw) -> dict:
    """The fields of a valid scheme with one or two of them made hostile."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    m_count = draw(st.integers(2, 3))
    scheme = random_scheme(rng, m_count, draw(st.integers(1, 2)), draw(st.integers(m_count, 4)))
    fields = {"n_messages": scheme.n_messages, "dim_a": scheme.dim_a,
              "dim_b": scheme.dim_b, "promised_p": scheme.promised_p,
              "joint_states": scheme.joint_states, "bob_povm": scheme.bob_povm}
    states = list(scheme.joint_states)
    hostile = {
        "n_messages": ODD_SCALARS,
        "dim_a": ODD_SCALARS,
        "dim_b": ODD_SCALARS,
        "promised_p": ODD_SCALARS,
        "joint_states": st.one_of(
            ODD_SCALARS, st.just(states[:-1]), st.just(states + states[:1]),
            st.just([PureState(s.amplitudes) for s in states]),
            st.just([s.amplitudes for s in states]),
            st.just(states[::-1])),
        "bob_povm": st.one_of(
            ODD_SCALARS, st.just(scheme.bob_povm.elements),
            st.just(Povm(tuple((k, e) for k, (_, e)
                               in enumerate(scheme.bob_povm.elements)))),
            st.just(Povm(tuple(((m_count + 1, 1) if k == 0 else label, e)
                               for k, (label, e)
                               in enumerate(scheme.bob_povm.elements)))),
            st.just(Povm(((1, np.eye(scheme.dim_b + 1)),)))),
    }
    for name in draw(st.lists(st.sampled_from(sorted(hostile)), max_size=2)):
        fields[name] = draw(hostile[name])
    return fields


def builds_or_rejects(make) -> None:
    try:
        make()
        event("built")
    except np.linalg.LinAlgError:  # a ValueError subclass, but not a verdict
        raise
    except ValueError as exc:
        message = str(exc)
        event("rejected")
        assert message and "\n" not in message, repr(message)


# Entries near the float limit overflow in the checks' own arithmetic (the
# norm, the symmetrized copy) before the check rejects them.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestValidatorFuzz:
    @settings(max_examples=400)
    @given(case=pure_state_inputs())
    def test_pure_state(self, case):
        builds_or_rejects(lambda: PureState(*case))

    @settings(max_examples=400)
    @given(elements=povm_inputs())
    def test_povm(self, elements):
        builds_or_rejects(lambda: Povm(elements))

    @settings(max_examples=300)
    @given(fields=scheme_inputs())
    def test_seal_scheme(self, fields):
        builds_or_rejects(lambda: SealScheme(**fields))

    @pytest.mark.parametrize("dims", [(1.5, 2), (2, 1.5), (3.0, 1)])
    def test_fractional_dims_are_rejected(self, dims):
        with pytest.raises(ValueError, match="dims"):
            PureState(np.array([1.0, 0.0, 0.0]), dims)
