"""Loop-at-a-time references for the batched and vectorized code paths.

* The gentle-measurement sweep written one instance at a time: every state
  and POVM goes through its validating constructor, every square root and
  trace norm is a 2-D ``linalg`` call, and every random draw is made in the
  order the batched sweep in ``qseal.gentle`` must reproduce, with rho and
  the dominant projector taken from the columns of one seeded Haar basis.
  It uses the sweep's two formulas, so that the comparison can be bit for
  bit: the closed-form sqrt(I - w P) (``gentle.remainder_root``,
  cross-checked against the eigendecomposition root in ``test_gentle``) and
  the Hermitian trace norm (``linalg.trace_norm``, cross-checked against the
  general SVD in ``test_linalg``).  Tests compare the batched sweep against
  it cell by cell.
* The POVM element checks and roots taken one label at a time, then the
  identity-sum check (``povm_roots``).  Tests require the one-call
  ``qseal.states._element_roots``, followed by ``require_identity_sum``
  where the sum is checked, to return the same bits or raise the same
  message.
* The scheme loader's [re, im] pair reader written one pair at a time
  (``vector_from_pairs``).  Tests require the vectorized reader in
  ``qseal.seal`` to return the same bits or raise the same message.
* The square-root (Lueders) measurement on a dense state: Born
  probabilities, the collapsed state of each kept outcome and the state
  left when the outcome is discarded.  Measuring and keeping outcome i
  collapses rho to sqrt(E_i) rho sqrt(E_i) / tr(E_i rho); discarding it
  leaves sum_i sqrt(E_i) rho sqrt(E_i).  Tests check the gentle sweep, the
  cheat state and the seal read probabilities against it.
* The scheme file as ``json`` writes it (``scheme_file_text``).  Tests
  require ``qseal.seal.save_scheme`` to write the same bytes.
* The scheme file read as one text (``load_scheme``): ``json.loads`` of the
  whole file, then the document's checks, with the pair reader above.
  Tests require ``qseal.seal.load_scheme``, which reads a window of the
  text at a time, to accept the same files with the same schemes and to
  raise the same error on the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qseal import linalg
from qseal.gentle import (
    GentleInstance,
    GentleReport,
    VIOLATION_TOL,
    classic_bound,
    random_epsilon_target,
    remainder_root,
    unknown_outcome_bound,
)
from qseal.linalg import MAX_DENSE_DIM, CapacityError
from qseal.seal import SealScheme, pairs_from_array
from qseal.states import (
    DensityMatrix,
    Povm,
    PureState,
    clamp_probability,
    expectation,
    require_identity_sum,
    require_same_dim,
)

# tr(E rho) may stray this far outside [0, 1] before we call it a bug.
PROB_WINDOW_TOL = 1e-12
# Outcomes at or below this probability get no post-measurement state.
ZERO_PROBABILITY = 1e-12


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a measurement: label, probability, collapsed state.

    ``post_state`` is None when the branch probability is numerically zero
    (at or below ``ZERO_PROBABILITY``) and no collapse is defined.
    """

    label: object
    probability: float
    post_state: DensityMatrix | None


def luders_branch(element: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement branch sqrt(E) rho sqrt(E)."""
    root = linalg.matrix_sqrt_psd(element)
    return root @ rho @ root


def _born_probability(element: np.ndarray, rho: np.ndarray, label) -> float:
    p = expectation(element, rho)
    if p < -PROB_WINDOW_TOL or p > 1.0 + PROB_WINDOW_TOL:
        raise ValueError(
            f"outcome {label!r} probability {p!r} outside [-{PROB_WINDOW_TOL:.0e},"
            f" 1+{PROB_WINDOW_TOL:.0e}]")
    return clamp_probability(p)


def measure_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Born probabilities tr(E_i rho) in canonical label order, clamped to [0, 1]."""
    require_same_dim(rho, povm)
    return np.array([_born_probability(m, rho.matrix, label)
                     for label, m in povm.elements])


def standard_implementation(rho: DensityMatrix, povm: Povm) -> list[MeasurementOutcome]:
    """Measure ``povm`` on ``rho``, keeping the outcome.

    Returns one ``MeasurementOutcome`` per element in canonical label order,
    with post state sqrt(E) rho sqrt(E) / tr(E rho).
    """
    require_same_dim(rho, povm)
    outcomes = []
    for label, element in povm.elements:
        p = _born_probability(element, rho.matrix, label)
        if p <= ZERO_PROBABILITY:
            outcomes.append(MeasurementOutcome(label, p, None))
            continue
        post = luders_branch(element, rho.matrix) / p
        outcomes.append(MeasurementOutcome(label, p, DensityMatrix(post)))
    return outcomes


def unknown_outcome_state(rho: DensityMatrix, povm: Povm) -> DensityMatrix:
    """Post-measurement state when the outcome is discarded:
    sum_i sqrt(E_i) rho sqrt(E_i)."""
    require_same_dim(rho, povm)
    total = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for _, element in povm.elements:
        total += luders_branch(element, rho.matrix)
    return DensityMatrix(total)


def verify_instance(instance: GentleInstance, tol: float = VIOLATION_TOL) -> GentleReport:
    rho = instance.rho.matrix

    unknown = np.zeros_like(rho)
    off_norm_sum = 0.0
    off_prob = 0.0
    lhs_classic = math.nan
    for label, element in instance.povm.elements:
        branch = luders_branch(element, rho)
        unknown += branch
        if label == instance.dominant_label:
            lhs_classic = linalg.trace_norm(rho - branch)
        else:
            off_norm_sum += linalg.trace_norm(branch)
            off_prob += expectation(element, rho)

    lhs_unknown = linalg.trace_norm(rho - unknown)
    b_classic = classic_bound(instance.epsilon)
    b_unknown = unknown_outcome_bound(instance.epsilon)
    return GentleReport(
        epsilon=instance.epsilon,
        lhs_classic=lhs_classic,
        bound_classic=b_classic,
        satisfied_classic=lhs_classic <= b_classic + tol,
        lhs_unknown=lhs_unknown,
        bound_unknown=b_unknown,
        satisfied_unknown=lhs_unknown <= b_unknown + tol,
        off_dominant_trace_norm_sum=off_norm_sum,
        off_dominant_probability=off_prob,
    )


def _random_density(dim: int, rng: np.random.Generator) -> tuple:
    """rho over the first ``rank`` columns of a seeded Haar basis, its
    weights (descending) and the basis."""
    rank = 1 if rng.random() < 0.5 else int(rng.integers(1, dim + 1))
    if rng.random() < 0.25:
        weights = np.full(rank, 1.0 / rank)
    else:
        weights = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    support = q[:, :rank]
    return DensityMatrix((support * weights) @ support.conj().T), weights, q


def _inverse_sqrt_pd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def random_instance(dim: int, n_outcomes: int, eps_target: float,
                    rng: np.random.Generator) -> GentleInstance:
    rho, weights, basis = _random_density(dim, rng)
    dominant = int(rng.integers(0, n_outcomes))

    if eps_target == 0.0:
        elements = [(k, np.zeros((dim, dim), dtype=np.complex128))
                    for k in range(n_outcomes)]
        elements[dominant] = (dominant, np.eye(dim, dtype=np.complex128))
        return GentleInstance(rho, Povm(tuple(elements)), dominant)

    keep = len(weights)
    if keep >= 2 and rng.random() < 0.5:
        budget = 0.3 * eps_target
        while keep > 1 and weights[keep - 1:].sum() <= budget:
            keep -= 1
    if keep < dim and rng.random() < 0.5:
        keep = int(rng.integers(keep, dim + 1))
    projector = basis[:, :keep] @ basis[:, :keep].conj().T
    projector = (projector + projector.conj().T) / 2.0

    delta = eps_target * rng.uniform(0.4, 1.3)
    root = remainder_root(1.0 - delta, projector)

    shares = []
    for k in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T + 0.1 * np.eye(dim)
        if k == dominant:
            a = a * rng.uniform(0.0, 0.1)
        shares.append(a)
    inv_root_total = _inverse_sqrt_pd(sum(shares))
    elements = []
    for k, a in enumerate(shares):
        piece = root @ inv_root_total @ a @ inv_root_total @ root
        if k == dominant:
            piece = piece + (1.0 - delta) * projector
        elements.append((k, (piece + piece.conj().T) / 2.0))

    instance = GentleInstance(rho, Povm(tuple(elements)), dominant)
    assert instance.epsilon <= 2.0 * eps_target + 1e-12
    return instance


def sweep_instances(dim: int, n_outcomes: int, instances: int,
                    rng: np.random.Generator, tol: float = VIOLATION_TOL):
    """Yield (epsilon_target, instance, report), one instance at a time."""
    for _ in range(instances):
        target = random_epsilon_target(rng)
        instance = random_instance(dim, n_outcomes, target, rng)
        yield target, instance, verify_instance(instance, tol)


def povm_roots(elements: np.ndarray, labels) -> np.ndarray:
    """sqrt(E) of each element of a POVM stack (..., outcomes, d, d), checked
    and rooted one label at a time, then the identity-sum check."""
    roots = np.empty_like(elements)
    for k, label in enumerate(labels):
        roots[..., k, :, :] = linalg.sqrt_psd(elements[..., k, :, :], f"element {label!r}")
    require_identity_sum(list(np.moveaxis(elements, -3, 0)))
    return roots


def vector_from_pairs(pairs, expected_len: int, what: str) -> np.ndarray:
    """Check and convert ``expected_len`` [re, im] pairs one pair at a time."""
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise ValueError(f"scheme file: {what} must list {expected_len} [re, im] pairs")
    out = np.empty(expected_len, dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in pair)):
            raise ValueError(f"scheme file: {what}[{k}] is not a [re, im] pair")
        try:
            out[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"scheme file: {what}[{k}] is too large for a float") from None
    return out


def scheme_file_text(scheme) -> str:
    """A scheme file's text: the scheme's document through ``json.dumps``'s
    indenting encoder, and a newline."""
    doc = {
        "M": scheme.n_messages,
        "dimA": scheme.dim_a,
        "dimB": scheme.dim_b,
        "promised_p": scheme.promised_p,
        "states": [pairs_from_array(s.amplitudes) for s in scheme.joint_states],
        "povm": [
            {"label": [label[0], label[1]], "matrix": pairs_from_array(element)}
            for label, element in scheme.bob_povm.elements
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def load_scheme(path) -> SealScheme:
    """A scheme file read as one text: ``json.loads`` of the whole file, then
    the document's checks in order, each state and POVM matrix read by
    ``vector_from_pairs``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"scheme file: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError("scheme file: top level must be an object")
    for key in ("M", "dimA", "dimB", "promised_p", "states", "povm"):
        if key not in doc:
            raise ValueError(f"scheme file: missing key {key!r}")
    m_count, dim_a, dim_b = doc["M"], doc["dimA"], doc["dimB"]
    if not all(isinstance(x, int) and not isinstance(x, bool)
               for x in (m_count, dim_a, dim_b)):
        raise ValueError("scheme file: M, dimA, dimB must be integers")
    if dim_b > MAX_DENSE_DIM:
        raise CapacityError(
            f"scheme file: dimB {dim_b} is above the dense cap {MAX_DENSE_DIM}")
    if (isinstance(doc["promised_p"], bool)
            or not isinstance(doc["promised_p"], (int, float))):
        raise ValueError("scheme file: promised_p must be a number")
    try:
        promised_p = float(doc["promised_p"])
    except OverflowError:
        raise ValueError("scheme file: promised_p is too large for a float") from None
    if not isinstance(doc["states"], list) or len(doc["states"]) != m_count:
        raise ValueError(f"scheme file: states must list {m_count} vectors")
    joint = dim_a * dim_b
    vectors = [
        PureState(vector_from_pairs(entry, joint, f"states[{k}]"), (dim_a, dim_b))
        for k, entry in enumerate(doc["states"])
    ]
    if not isinstance(doc["povm"], list) or not doc["povm"]:
        raise ValueError("scheme file: povm must be a non-empty list")
    elements = []
    for k, entry in enumerate(doc["povm"]):
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            raise ValueError(f"scheme file: povm[{k}] needs 'label' and 'matrix'")
        label = entry["label"]
        if (not isinstance(label, list) or len(label) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in label)):
            raise ValueError(f"scheme file: povm[{k}].label must be an [i, j] pair")
        matrix = vector_from_pairs(entry["matrix"], dim_b * dim_b, f"povm[{k}].matrix")
        elements.append(((label[0], label[1]), matrix.reshape(dim_b, dim_b)))
    return SealScheme(n_messages=m_count, dim_a=dim_a, dim_b=dim_b,
                      promised_p=promised_p, joint_states=tuple(vectors),
                      bob_povm=Povm(tuple(elements)))
