"""Every closed form a CSV prints, held within 4 ulp of its value at 50
digits (mpmath), on the points the commands print at ``--grid 10001`` and
on points log-spaced towards each end of its domain, where a form that
cancels loses its leading digits."""

import math

import mpmath
import numpy as np
import pytest

from qseal import cli, gentle, naive, qubit_seal, seal

ULP_LIMIT = 4
GRID = 10_001
# Points log-spaced towards each endpoint, from 1e-16 to 1e-1 of the span.
ENDPOINT_POINTS = 400
# Message counts of the nfp columns: the defaults, the bytecheck row's and
# the largest --M.
MESSAGE_COUNTS = (2, 3, 4, 7, 16, 256, 1000, cli.MAX_M)


def towards_ends(low: float, high: float) -> np.ndarray:
    offsets = (high - low) * np.logspace(-16.0, -1.0, ENDPOINT_POINTS)
    return np.clip(np.concatenate([low + offsets, high - offsets]), low, high)


def worst_ulps(values, points, reference) -> tuple:
    """(largest distance of ``values`` from ``reference`` at ``points``, in
    ulps of the reference's float, and the point where it is)."""
    worst = (0.0, None)
    with mpmath.workdps(50):
        for value, point in zip(np.ravel(values).tolist(), np.ravel(points).tolist()):
            exact = reference(mpmath.mpf(point))
            ulps = float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))
            if ulps > worst[0]:
                worst = (ulps, point)
    return worst


def p_dist_upper(p):
    return 0.5 + (2 * mpmath.sqrt(1 - p) + (1 - p)) / 4


def p_dist_lower_paper(p):
    return 0.5 + mpmath.sqrt(2 * p * (1 - p)) / 4


def p_nfp_upper(m_count):
    return lambda p: 1 - p * p - (1 - p) ** 2 / (m_count - 1)


def assert_within_limit(values, points, reference):
    ulps, point = worst_ulps(values, points, reference)
    assert ulps <= ULP_LIMIT, f"{ulps:.0f} ulp at {point!r}"


class TestPrintedCells:
    """The closed-form cells of both bound sweeps at ``--grid 10001``."""

    def test_bounds_dist(self):
        rows = np.array(cli.cmd_bounds_fig1(cli.RunConfig(), GRID).rows)
        ps = rows[:, 0]
        assert_within_limit(rows[:, 1], ps, lambda p: min(p_dist_upper(p), 1))
        assert_within_limit(rows[:, 2], ps, p_dist_lower_paper)

    def test_bounds_nfp(self):
        table = cli.cmd_bounds_fig2(cli.RunConfig(), MESSAGE_COUNTS, GRID)
        rows = np.array(table.rows, dtype=object)
        for column, m_count in enumerate(MESSAGE_COUNTS, 1):
            filled = rows[:, column] != None  # noqa: E711 -- elementwise
            levels = seal.clamp_promise(rows[filled, 0].astype(float), m_count)
            assert_within_limit(rows[filled, column].astype(float), levels,
                                p_nfp_upper(m_count))


class TestTowardsEnds:
    """Each closed form on points log-spaced towards its domain's ends."""

    def test_p_dist_upper(self):
        ps = towards_ends(0.0, 1.0)
        assert_within_limit(seal.p_dist_upper_bound(ps), ps, p_dist_upper)

    def test_p_dist_lower_paper(self):
        ps = towards_ends(0.5, 1.0)
        assert_within_limit(qubit_seal.p_dist_lower_paper(ps), ps, p_dist_lower_paper)

    @pytest.mark.parametrize("m_count", MESSAGE_COUNTS)
    def test_p_nfp_upper(self, m_count):
        ps = towards_ends(1.0 / m_count, 1.0)
        assert_within_limit(seal.p_nfp_upper_bound(ps, m_count), ps, p_nfp_upper(m_count))

    def test_gentle_bounds(self):
        eps = np.concatenate([np.linspace(0.0, 1.0, GRID), towards_ends(0.0, 1.0)])
        assert_within_limit(gentle.classic_bound(eps), eps, lambda e: 2 * mpmath.sqrt(e))
        assert_within_limit(gentle.unknown_outcome_bound(eps), eps,
                            lambda e: 2 * mpmath.sqrt(e) + e)


def test_mean_fidelity_exact_at_every_q():
    qs = np.arange(1, cli.MAX_Q + 1)
    assert_within_limit([naive.mean_fidelity_exact(q) for q in qs.tolist()], qs,
                        lambda q: (mpmath.mpf(3) / 4) ** q)
