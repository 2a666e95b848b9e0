import math

import numpy as np
import pytest
from hypothesis import given

from conftest import assert_entrywise, level_arrays, random_density_matrix, with_offenders
from oracles import measure_probabilities
from qseal.linalg import trace_norm
from qseal.qubit_seal import (
    QubitSealFamily,
    p_dist_lower_numeric,
    p_dist_lower_paper,
    phi_invariance_spread,
    state_pair,
    z_state,
)
from qseal.seal import coarse_cheat_state, p_dist_upper_bound
from qseal.states import densify, helstrom_probability

P_GRID = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


class TestFamilyConstruction:
    def test_domain_of_p(self):
        QubitSealFamily(0.75)
        QubitSealFamily(1.0)
        for bad in (0.5, 0.4, 1.1, -0.1):
            with pytest.raises(ValueError):
                QubitSealFamily(bad)

    def test_domain_of_phi(self):
        QubitSealFamily(0.75, 0.0)
        QubitSealFamily(0.75, 6.28)
        for bad in (-0.1, 2.0 * np.pi, 7.0):
            with pytest.raises(ValueError):
                QubitSealFamily(0.75, bad)

    def test_extreme_p_gives_basis_states(self):
        s1, s2 = QubitSealFamily(1.0).states()
        np.testing.assert_allclose(s1.amplitudes, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(s2.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_state_overlap_is_phase_free(self):
        # <psi1|psi2> = 2 sqrt(p(1-p)) no matter the phase
        for p in (0.6, 0.8):
            for phi in (0.0, 1.3, 5.9):
                s1, s2 = state_pair(p, phi)
                overlap = np.vdot(s1.amplitudes, s2.amplitudes)
                assert overlap.imag == pytest.approx(0.0, abs=1e-15)
                assert overlap.real == pytest.approx(
                    2.0 * np.sqrt(p * (1.0 - p)), abs=1e-14)

    def test_scheme_promise_is_p(self):
        family = QubitSealFamily(0.8, 0.7)
        scheme = family.scheme()
        assert scheme.n_messages == 2
        assert (scheme.dim_a, scheme.dim_b) == (1, 2)
        assert scheme.bob_povm.labels == ((1, 1), (2, 1))
        assert scheme.promised_p == pytest.approx(0.8, abs=1e-12)

    def test_readout_achieves_helstrom_optimum(self):
        # the standard-basis readout is the optimal discriminator here:
        # average success equals 1/2 + trace-distance/4 equals p itself
        for p in (0.55, 0.75, 0.95, 1.0):
            family = QubitSealFamily(p)
            rho1, rho2 = (densify(s) for s in family.states())
            assert helstrom_probability(rho1, rho2) == pytest.approx(p,
                                                                     abs=1e-10)
            scheme = family.scheme()
            succ1 = measure_probabilities(densify(scheme.state(1)),
                                          scheme.bob_povm)[0]
            succ2 = measure_probabilities(densify(scheme.state(2)),
                                          scheme.bob_povm)[1]
            # the read probabilities `simulate achieve` prints
            assert scheme.read_probabilities == pytest.approx((succ1, succ2),
                                                              abs=1e-12)
            assert (succ1 + succ2) / 2.0 == pytest.approx(p, abs=1e-12)


class TestReturnedState:
    def test_z_state_hand_values(self):
        np.testing.assert_allclose(z_state(0.75).matrix,
                                   np.diag([0.75, 0.25]), atol=1e-15)
        with pytest.raises(ValueError):
            z_state(1.2)

    @pytest.mark.parametrize("p", P_GRID)
    def test_dephased_on_full_phase_grid(self, p):
        for phi in PHI_GRID:
            family = QubitSealFamily(p, float(phi))
            np.testing.assert_allclose(family.returned_state(1).matrix,
                                       np.diag([p, 1.0 - p]), atol=1e-10)
            np.testing.assert_allclose(family.returned_state(2).matrix,
                                       np.diag([1.0 - p, p]), atol=1e-10)

    def test_agrees_with_scheme_cheat_state(self):
        for p in (0.6, 0.85, 1.0):
            family = QubitSealFamily(p, 0.9)
            scheme = family.scheme()
            for m in (1, 2):
                np.testing.assert_allclose(
                    family.returned_state(m).matrix,
                    coarse_cheat_state(scheme, m).matrix, atol=1e-12)

    def test_message_validation(self):
        with pytest.raises(ValueError):
            QubitSealFamily(0.75).returned_state(3)


class TestDetectionValues:
    @pytest.mark.parametrize("p", P_GRID)
    def test_trace_norm_identity(self, p):
        # || Z(p) - |psi><psi| ||_1 = 2 sqrt(p(1-p)), via an eigenvalue oracle
        psi = state_pair(p)[0]
        gap = z_state(p).matrix - densify(psi).matrix
        oracle = np.abs(np.linalg.eigvalsh(gap)).sum()
        assert oracle == pytest.approx(2.0 * np.sqrt(p * (1.0 - p)), abs=1e-10)
        assert trace_norm(gap) == pytest.approx(oracle, abs=1e-12)

    def test_lower_bound_hand_values(self):
        assert p_dist_lower_paper(1.0) == pytest.approx(0.5, abs=1e-15)
        assert p_dist_lower_paper(0.75) == pytest.approx(
            0.5 + np.sqrt(2.0 * 0.75 * 0.25) / 4.0, abs=1e-15)
        assert p_dist_lower_numeric(1.0) == pytest.approx(0.5, abs=1e-12)
        assert p_dist_lower_numeric(0.75) == pytest.approx(
            0.5 + 2.0 * np.sqrt(0.75 * 0.25) / 4.0, abs=1e-10)

    @pytest.mark.parametrize("p", P_GRID)
    def test_numeric_lower_stays_below_upper(self, p):
        assert p_dist_lower_numeric(p) <= p_dist_upper_bound(p) + 1e-9

    @pytest.mark.parametrize("p", P_GRID)
    def test_phase_invariance(self, p):
        assert phi_invariance_spread(p) <= 1e-10

    def test_closed_forms_of_both_floors(self):
        # the numeric floor is 1/2 + sqrt(p(1-p))/2 at every phase, and the
        # paper's form is the same Helstrom expression with the
        # Hilbert-Schmidt norm of Z(p) - |psi_1><psi_1| for the trace norm
        rng = np.random.default_rng(239)
        for p in np.linspace(0.5, 1.0, 1001):
            phi = rng.uniform(0.0, 2.0 * np.pi)
            assert abs(p_dist_lower_numeric(p, phi)
                       - (0.5 + np.sqrt(p * (1.0 - p)) / 2.0)) <= 1e-14
            gap = z_state(p).matrix - densify(state_pair(p, phi)[0]).matrix
            assert abs(p_dist_lower_paper(p)
                       - (0.5 + np.linalg.norm(gap, "fro") / 4.0)) <= 1e-14

    LEVELS = level_arrays(0.5, 1.0, [0.5, 1.0])

    @given(values=LEVELS)
    def test_paper_floor_array_matches_scalar_calls(self, values):
        assert_entrywise(p_dist_lower_paper, values,
                         lambda p: 0.5 + math.sqrt(2.0 * p * (1.0 - p)) / 4.0)

    @given(values=with_offenders(LEVELS, 0.5, 1.0))
    def test_floor_array_names_first_offender(self, values):
        assert_entrywise(p_dist_lower_paper, values)
        assert_entrywise(p_dist_lower_numeric, values)

    def test_both_conventions_are_reported(self):
        # the two lower-bound flavors are emitted side by side; nothing in
        # the suite equates them
        paper = p_dist_lower_paper(0.75)
        numeric = p_dist_lower_numeric(0.75)
        assert 0.5 <= paper <= 1.0
        assert 0.5 <= numeric <= 1.0


class TestBlochGeometry:
    def test_trace_norm_is_half_euclidean_gap(self):
        # ||a - b||_1 is the Euclidean distance of the Bloch vectors, with
        # rho = (I + x X + y Y + z Z) / 2
        def bloch(rho):
            m = rho.matrix
            return np.array([2.0 * m[0, 1].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real])

        rng = np.random.default_rng(211)
        for _ in range(10):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(2, rng)
            euclid = np.linalg.norm(bloch(a) - bloch(b))
            assert trace_norm(a.matrix - b.matrix) == pytest.approx(euclid,
                                                                    abs=1e-10)
