"""Two-message qubit seals that meet the detection floor.

The family is parametrized by the promise level p in (1/2, 1] and a phase
phi: |psi_1> = sqrt(p)|0> + e^{i phi} sqrt(1-p)|1>, with |psi_2> mirroring
the weights.  Bob's prescribed POVM is the standard basis ((1, 1) -> |0><0|,
(2, 1) -> |1><1|), and his merged cheat measurement hands back exactly
Z(p) = diag(p, 1-p) for message 1 (Z(1-p) for message 2) -- the same dephased
state for every phi, which is what makes the family a clean worst case
(``returned_state``; acceptance criterion 07 checks it against the dense
cheat state over a (p, phi) grid).

Two flavors of Alice's distinguishing probability against that cheat are
reported side by side and deliberately never equated:

* ``p_dist_lower_paper``   -- the closed form 1/2 + sqrt(2 p (1-p)) / 4;
* ``p_dist_lower_numeric`` -- 1/2 + ||Z(p) - |psi_1><psi_1|||_1 / 4, through
  the same 1/4 conversion, ``states.helstrom_from_norm``.

Both floors take a number (and return a float) or an array of levels (and
return one value per entry), so a sweep makes one call of each.

The numeric floor is exactly 1/2 + sqrt(p (1-p)) / 2; the paper's form is
the same expression with the Hilbert-Schmidt norm of Z(p) - |psi_1><psi_1|
in place of its trace norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, seal
from .states import (DensityMatrix, Povm, PureState, helstrom_from_norm, number_or_array,
                     require_within)

_TWO_PI = 2.0 * math.pi
# Size of the even phase grid of phi_invariance_spread.
_SPREAD_PHASES = 64


def _require_p(p, low_open: bool) -> np.ndarray:
    """The level p, or each entry of an array of levels, as float64, checked
    against (1/2, 1] or [1/2, 1]."""
    p = np.asarray(p, dtype=np.float64)
    low_ok = p > 0.5 if low_open else p >= 0.5
    require_within(p, low_ok & (p <= 1.0), "p", "(1/2, 1]" if low_open else "[1/2, 1]")
    return p


def state_pair(p: float, phi: float = 0.0) -> tuple:
    """(|psi_1>, |psi_2>) at weight p and relative phase phi.

    Accepts the closed boundary p = 1/2 so sweeps can report the degenerate
    endpoint, even though a usable seal needs p > 1/2.
    """
    p = _require_p(p, low_open=False)
    return (PureState(_ket(p, 1.0 - p, phi), (1, 2)),
            PureState(_ket(1.0 - p, p, phi), (1, 2)))


def _ket(weight_0, weight_1, phi: float) -> np.ndarray:
    """sqrt(w0)|0> + e^{i phi} sqrt(w1)|1>, or one such ket per entry of
    equally shaped arrays of weights, (..., 2)."""
    phase = complex(math.cos(phi), math.sin(phi))
    return np.stack([np.sqrt(weight_0), phase * np.sqrt(weight_1)], axis=-1)


def z_state(x: float) -> DensityMatrix:
    """Dephased qubit Z(x) = diag(x, 1-x)."""
    x = float(x)
    require_within(x, 0.0 <= x <= 1.0, "x", "[0, 1]")
    return DensityMatrix(np.diag([x, 1.0 - x]).astype(np.complex128))


@dataclass(frozen=True)
class QubitSealFamily:
    """Family member at promise p in (1/2, 1] and phase phi in [0, 2*pi)."""

    p: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", float(_require_p(self.p, low_open=True)))
        phi = float(self.phi)
        require_within(self.phi, 0.0 <= phi < _TWO_PI, "phi", "[0, 2*pi)")
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


def p_dist_lower_paper(p):
    """Closed-form detection floor 1/2 + sqrt(2 p (1-p)) / 4: a float for a
    number in [1/2, 1], an array of one floor per entry for an array."""
    p = _require_p(p, low_open=False)
    return number_or_array(helstrom_from_norm(np.sqrt(2.0 * p * (1.0 - p))))


def p_dist_lower_numeric(p, phi: float = 0.0):
    """Detection floor evaluated numerically:
    1/2 + ||Z(p) - |psi_1><psi_1|||_1 / 4 (``helstrom_probability`` of the
    two states).

    A float for a scalar p, an array of one value per entry for an array of
    p.  The levels are checked once, and both states are built as (..., 2,
    2) stacks from them, so a sweep takes one batched trace norm.
    """
    p = _require_p(p, low_open=False)
    psi_one = _ket(p, 1.0 - p, phi)
    pure = psi_one[..., :, None] * psi_one.conj()[..., None, :]
    dephased = np.zeros(p.shape + (2, 2), dtype=np.complex128)
    dephased[..., [0, 1], [0, 1]] = np.stack([p, 1.0 - p], axis=-1)
    return helstrom_from_norm(linalg.trace_norm(dephased - pure))


def phi_invariance_spread(p: float) -> float:
    """Max minus min of the numeric floor over an even grid of phases."""
    values = [p_dist_lower_numeric(p, phi)
              for phi in np.linspace(0.0, _TWO_PI, _SPREAD_PHASES, endpoint=False)]
    return max(values) - min(values)
