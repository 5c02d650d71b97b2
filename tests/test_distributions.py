import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobandit import (
    SupportSet,
    empirical_distribution,
    kl_divergence,
    make_distribution,
    total_variation,
)
from drobandit.distributions import POINT_MATCH_ATOL, match_indices, unique_rows
from drobandit.errors import (
    LengthMismatch,
    NegativeWeight,
    NotNormalizable,
    SampleOffSupport,
    SupportMismatch,
)

S01 = SupportSet.from_scalars([0.0, 1.0])
S012 = SupportSet.from_scalars([0.0, 1.0, 2.0])


def test_make_distribution_uniform():
    d = make_distribution(S01, [0.5, 0.5])
    assert np.allclose(d.weights, [0.5, 0.5])


def test_make_distribution_negative_weight():
    with pytest.raises(NegativeWeight):
        make_distribution(S01, [2.0, -1.0])


def test_make_distribution_not_normalizable_without_pre_normalize():
    with pytest.raises(NotNormalizable):
        make_distribution(S012, [1.0, 1.0, 1.0])
    d = make_distribution(S012, [1.0, 1.0, 1.0], pre_normalize=True)
    assert np.allclose(d.weights, 1.0 / 3.0)


def test_make_distribution_small_drift_renormalized():
    d = make_distribution(S01, [0.5, 0.5 + 5e-10])
    assert abs(d.weights.sum() - 1.0) <= 1e-15


def test_make_distribution_length_mismatch():
    with pytest.raises(LengthMismatch):
        make_distribution(S01, [1.0])


def test_support_points_must_be_distinct():
    with pytest.raises(ValueError):
        SupportSet.from_scalars([1.0, 1.0])


def test_support_rejects_near_points_that_do_not_sort_side_by_side():
    # (2e-13, 7) sorts between (0, 1) and (5e-13, 1), which agree to 1e-12
    with pytest.raises(ValueError, match="distinct"):
        SupportSet([[0, 1], [2e-13, 7], [5e-13, 1]])
    support = SupportSet([[0, 1], [2e-13, 7], [5e-12, 1]])
    assert match_indices([[5e-12, 1]], support).tolist() == [2]


# a few base values, each shifted by offsets that fall within the tolerance
# of some others and chain past it: near pairs, and runs of points that are
# near only step by step
OFFSETS = st.sampled_from([0.0, 2e-13, -5e-13, 9e-13, 1.5e-12, 2.4e-12, 1.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), n=st.integers(1, 10))
def test_support_rejects_exactly_the_near_pairs(data, dim, n):
    base = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=dim,
                                                max_size=dim), min_size=n, max_size=n)))
    shift = np.array(data.draw(st.lists(st.lists(OFFSETS, min_size=dim, max_size=dim),
                                        min_size=n, max_size=n)))
    pts = base + shift
    near = any(np.all(np.abs(pts[i] - pts[j]) <= POINT_MATCH_ATOL)
               for i in range(n) for j in range(i))
    if near:
        with pytest.raises(ValueError, match="distinct"):
            SupportSet(pts)
    else:
        assert match_indices(pts, SupportSet(pts)).tolist() == list(range(n))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unique_rows_matches_np_unique_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    pts = rng.choice([-1.5, -0.0, 0.0, 0.1, 2.0, 7.25], size=(200, dim))
    union, inverse = unique_rows(pts)
    rows, rows_inverse = np.unique(pts, axis=0, return_inverse=True)
    assert inverse.shape == (200,) and union.shape == rows.shape
    assert np.array_equal(union, rows) and np.array_equal(inverse, rows_inverse.ravel())
    # bit for bit but for the sign of a zero: -0.0 and 0.0 are one level, kept
    # with either sign (adding 0.0 turns -0.0 into 0.0)
    assert np.array_equal((union + 0.0).view(np.int64), (rows + 0.0).view(np.int64))
    if dim == 1:
        column, column_inverse = np.unique(pts[:, 0], return_inverse=True)
        assert np.array_equal(union[:, 0], column) and np.array_equal(inverse, column_inverse)
    # the composition `distance --kl` replaced: match each row onto the union
    assert np.array_equal(inverse, match_indices(pts, SupportSet(union)))


def test_empirical_even_split():
    d = empirical_distribution([0.0, 0.0, 1.0, 1.0], S01)
    assert np.allclose(d.weights, [0.5, 0.5])


def test_empirical_point_mass_keeps_unseen_points():
    d = empirical_distribution([0.0, 0.0, 0.0], S012)
    assert np.allclose(d.weights, [1.0, 0.0, 0.0])
    assert len(d.support) == 3


def test_empirical_off_support():
    with pytest.raises(SampleOffSupport):
        empirical_distribution([3.0], S01)


def test_total_variation_examples():
    p = make_distribution(S01, [0.5, 0.5])
    assert total_variation(p, p) == 0.0
    disjoint = total_variation(
        make_distribution(S01, [1.0, 0.0]), make_distribution(S01, [0.0, 1.0])
    )
    assert disjoint == 2.0
    assert total_variation(p, make_distribution(S01, [0.25, 0.75])) == pytest.approx(0.5, abs=1e-15)


def test_total_variation_support_mismatch():
    with pytest.raises(SupportMismatch):
        total_variation(make_distribution(S01, [0.5, 0.5]),
                        make_distribution(S012, [0.5, 0.25, 0.25]))


def test_kl_examples():
    p = make_distribution(S01, [0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    # mass where the reference has none
    q = make_distribution(S01, [0.5, 0.5])
    ref = make_distribution(S01, [1.0, 0.0])
    assert kl_divergence(q, ref) == math.inf
    # 0.5*ln 2 + 0.5*ln(2/3), summed directly
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    got = kl_divergence(make_distribution(S01, [0.5, 0.5]),
                        make_distribution(S01, [0.25, 0.75]))
    assert got == pytest.approx(expected, abs=1e-12)


def _random_distribution(rng, support):
    return make_distribution(support, rng.dirichlet(np.ones(len(support))))


def test_total_variation_symmetric_and_triangle():
    rng = np.random.default_rng(7)
    support = SupportSet.from_scalars(np.arange(5.0))
    for _ in range(300):
        p, q, r = (_random_distribution(rng, support) for _ in range(3))
        assert total_variation(p, q) == total_variation(q, p)
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(11)
    support = SupportSet.from_scalars(np.arange(4.0))
    for _ in range(1000):
        p, q = _random_distribution(rng, support), _random_distribution(rng, support)
        val = kl_divergence(q, p)
        assert val >= -1e-10
        if np.max(np.abs(p.weights - q.weights)) > 1e-6:
            assert val > 0.0
    p = _random_distribution(rng, support)
    assert kl_divergence(p, p) <= 1e-10


def test_empirical_concentration_monte_carlo():
    # TV(empirical, truth) <= sqrt(2 ln(1/delta)/n) + sqrt(m/n) should hold
    # with probability at least 1 - delta; allow 3-sigma binomial slack.
    rng = np.random.default_rng(2024)
    m, n, delta, trials = 8, 500, 0.1, 1000
    support = SupportSet.from_scalars(np.arange(float(m)))
    truth = make_distribution(support, rng.dirichlet(np.full(m, 2.0)))
    bound = math.sqrt(2.0 * math.log(1.0 / delta) / n) + math.sqrt(m / n)
    hits = 0
    for _ in range(trials):
        samples = rng.choice(m, size=n, p=truth.weights).astype(float)
        emp = empirical_distribution(samples, support)
        if total_variation(emp, truth) <= bound:
            hits += 1
    floor = (1 - delta) * trials - 3 * math.sqrt(trials * delta * (1 - delta))
    assert hits >= floor
