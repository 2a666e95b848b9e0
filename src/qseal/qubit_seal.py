"""Two-message qubit seals that meet the detection floor.

The family is parametrized by the promise level p in (1/2, 1] and a phase
phi: |psi_1> = sqrt(p)|0> + e^{i phi} sqrt(1-p)|1>, with |psi_2> mirroring
the weights.  Bob's prescribed POVM is the standard basis ((1, 1) -> |0><0|,
(2, 1) -> |1><1|), and his merged cheat measurement hands back exactly
Z(p) = diag(p, 1-p) for message 1 (Z(1-p) for message 2) -- the same dephased
state for every phi, which is what makes the family a clean worst case.

Two flavors of Alice's distinguishing probability against that cheat are
reported side by side and deliberately never equated:

* ``p_dist_lower_paper``   -- the closed form 1/2 + sqrt(2 p (1-p)) / 4;
* ``p_dist_lower_numeric`` -- 1/2 + ||Z(p) - |psi_1><psi_1|||_1 / 4, the
  same 1/4 trace-norm convention used by ``states.helstrom_probability``.

The two use different conventions and generally disagree; downstream
consumers get both columns and can judge for themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seal
from .states import DensityMatrix, Povm, PureState, densify, helstrom_probability

_TWO_PI = 2.0 * math.pi
# Sizes of the even phase grids of phi_invariance_spread and bloch_centroid.
_SPREAD_PHASES = 64
_CENTROID_PHASES = 360


def _require_p(p: float, low_open: bool) -> float:
    p = float(p)
    lo_ok = p > 0.5 if low_open else p >= 0.5
    if not (lo_ok and p <= 1.0):
        bracket = "(1/2, 1]" if low_open else "[1/2, 1]"
        raise ValueError(f"p must lie in {bracket}, got {p!r}")
    return p


def state_pair(p: float, phi: float = 0.0) -> tuple:
    """(|psi_1>, |psi_2>) at weight p and relative phase phi.

    Accepts the closed boundary p = 1/2 so sweeps can report the degenerate
    endpoint, even though a usable seal needs p > 1/2.
    """
    p = _require_p(p, low_open=False)
    phase = complex(math.cos(phi), math.sin(phi))
    one = PureState(np.array([math.sqrt(p), phase * math.sqrt(1.0 - p)]), (1, 2))
    two = PureState(np.array([math.sqrt(1.0 - p), phase * math.sqrt(p)]), (1, 2))
    return one, two


def z_state(x: float) -> DensityMatrix:
    """Dephased qubit Z(x) = diag(x, 1-x)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return DensityMatrix(np.diag([x, 1.0 - x]).astype(np.complex128))


@dataclass(frozen=True)
class QubitSealFamily:
    """Family member at promise p in (1/2, 1] and phase phi in [0, 2*pi)."""

    p: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _require_p(self.p, low_open=True))
        phi = float(self.phi)
        if not 0.0 <= phi < _TWO_PI:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")
        object.__setattr__(self, "phi", phi)

    def states(self) -> tuple:
        return state_pair(self.p, self.phi)

    def scheme(self) -> seal.SealScheme:
        povm = Povm((
            ((1, 1), np.diag([1.0, 0.0]).astype(np.complex128)),
            ((2, 1), np.diag([0.0, 1.0]).astype(np.complex128)),
        ))
        return seal.SealScheme(
            n_messages=2,
            dim_a=1,
            dim_b=2,
            promised_p=self.p,
            joint_states=self.states(),
            bob_povm=povm,
        )

    def returned_state(self, m: int) -> DensityMatrix:
        """Closed form of the merged-cheat return: Z(p) or Z(1-p)."""
        if m == 1:
            return z_state(self.p)
        if m == 2:
            return z_state(1.0 - self.p)
        raise ValueError(f"message index must be 1 or 2, got {m}")


def p_dist_lower_paper(p: float) -> float:
    """Closed-form detection floor 1/2 + sqrt(2 p (1-p)) / 4."""
    p = _require_p(p, low_open=False)
    return 0.5 + math.sqrt(2.0 * p * (1.0 - p)) / 4.0


def p_dist_lower_numeric(p: float, phi: float = 0.0) -> float:
    """Detection floor evaluated numerically:
    1/2 + ||Z(p) - |psi_1><psi_1|||_1 / 4."""
    psi_one, _ = state_pair(p, phi)  # validates p
    return helstrom_probability(z_state(p), densify(psi_one))


def phi_invariance_spread(p: float) -> float:
    """Max minus min of the numeric floor over an even grid of phases."""
    values = [p_dist_lower_numeric(p, phi)
              for phi in np.linspace(0.0, _TWO_PI, _SPREAD_PHASES, endpoint=False)]
    return max(values) - min(values)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(x, y, z) with rho = (I + x X + y Y + z Z) / 2."""
    if rho.dim != 2:
        raise ValueError(f"Bloch coordinates need a qubit, got dimension {rho.dim}")
    m = rho.matrix
    return np.array([2.0 * m[0, 1].real,
                     2.0 * m[1, 0].imag,
                     (m[0, 0] - m[1, 1]).real])


def state_from_bloch(vec) -> DensityMatrix:
    """Inverse of ``bloch_vector`` (requires |vec| <= 1)."""
    x, y, z = (float(c) for c in np.asarray(vec, dtype=np.float64))
    if math.hypot(x, y, z) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector {vec!r} lies outside the unit ball")
    return DensityMatrix(0.5 * np.array([[1.0 + z, x - 1j * y],
                                         [x + 1j * y, 1.0 - z]]))


def bloch_centroid(p: float) -> np.ndarray:
    """Average Bloch vector of |psi_1> over an even grid of phases.

    The pure states at fixed p trace a circle at height 2p - 1; their
    centroid is the Bloch vector of Z(p), which is how the dephased return
    sits at the circle's center.
    """
    total = np.zeros(3)
    for phi in np.linspace(0.0, _TWO_PI, _CENTROID_PHASES, endpoint=False):
        psi_one, _ = state_pair(p, phi)
        total += bloch_vector(densify(psi_one))
    return total / _CENTROID_PHASES
