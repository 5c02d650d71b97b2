import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobandit import duals
from drobandit import (
    GroundCost,
    BanditDataset,
    CostModel,
    CostVector,
    Policy,
    RobustCostTable,
    SupportSet,
    empirical_distribution,
    evaluate_policy,
    make_distribution,
    primal_oracle,
    rate_experiment,
    robust_cost_table,
    uniform_distribution,
)
from drobandit.data import canonical_rate_config
from drobandit.ope import METHODS, solve_shared_support
from drobandit.errors import (
    EmptyExperiment,
    MissingPair,
    PolicyContextMismatch,
    ValidationError,
)


def build_dataset(x_idx, a_idx, xi_idx, contexts, n_actions, cost_model):
    x_idx = np.asarray(x_idx)
    a_idx = np.asarray(a_idx)
    xi_idx = np.asarray(xi_idx)
    return BanditDataset(
        context_idx=x_idx,
        action_idx=a_idx,
        xi_idx=xi_idx,
        costs=cost_model.y[x_idx, a_idx, xi_idx],
        contexts=contexts,
        actions=tuple(f"a{i}" for i in range(n_actions)),
        xi_support=cost_model.xi_support,
        y_max=cost_model.y_max,
    )


def random_covered_dataset(rng, n_contexts=3, n_actions=2, n_xi=4, extra=40):
    contexts = SupportSet.from_scalars(np.linspace(0.0, 1.0, n_contexts))
    xi_support = SupportSet.from_scalars(np.linspace(0.0, 1.0, n_xi))
    y = rng.random((n_contexts, n_actions, n_xi))
    cost_model = CostModel(xi_support, y, y_max=1.0)
    # one record per pair guarantees coverage, then random extras
    xs = [x for x in range(n_contexts) for _ in range(n_actions)]
    aa = [a for _ in range(n_contexts) for a in range(n_actions)]
    ks = list(rng.integers(0, n_xi, size=len(xs)))
    xs += list(rng.integers(0, n_contexts, size=extra))
    aa += list(rng.integers(0, n_actions, size=extra))
    ks += list(rng.integers(0, n_xi, size=extra))
    return build_dataset(xs, aa, ks, contexts, n_actions, cost_model), cost_model


# -- robust cost table -----------------------------------------------------------

def test_table_plugin_at_zero_radius():
    rng = np.random.default_rng(1)
    dataset, cost_model = random_covered_dataset(rng)
    table = robust_cost_table(dataset, cost_model, epsilon_c=0.0)
    for x in range(table.n_contexts):
        for a in range(table.n_actions):
            mask = (dataset.context_idx == x) & (dataset.action_idx == a)
            mean = cost_model.y[x, a, dataset.xi_idx[mask]].mean()
            assert table.m_hat[x, a] == pytest.approx(mean, abs=1e-12)


def test_table_constant_costs():
    contexts = SupportSet.from_scalars([0.0, 1.0])
    xi_support = SupportSet.from_scalars([0.0, 1.0])
    cost_model = CostModel(xi_support, np.full((2, 2, 2), 0.3), y_max=1.0)
    dataset = build_dataset(
        [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 1], contexts, 2, cost_model
    )
    for eps in (0.0, 0.2, 5.0):
        table = robust_cost_table(dataset, cost_model, eps)
        assert np.allclose(table.m_hat, 0.3, atol=1e-9)


def test_table_single_pair_derived_value():
    # all mass at xi=0, y=(0 at 0, 1 at 1), eps_c=0.5: move half the mass
    # across unit squared distance
    contexts = SupportSet.from_scalars([0.0])
    xi_support = SupportSet.from_scalars([0.0, 1.0])
    cost_model = CostModel(xi_support, np.array([[[0.0, 1.0]]]), y_max=1.0)
    dataset = build_dataset([0, 0], [0, 0], [0, 0], contexts, 1, cost_model)
    table = robust_cost_table(dataset, cost_model, epsilon_c=0.5)
    assert table.m_hat[0, 0] == pytest.approx(0.5, abs=1e-8)


def test_table_missing_pair_lists_offenders():
    contexts = SupportSet.from_scalars([0.0, 1.0])
    xi_support = SupportSet.from_scalars([0.0, 1.0])
    cost_model = CostModel(xi_support, np.zeros((2, 2, 2)), y_max=1.0)
    dataset = build_dataset([0, 0, 1], [0, 1, 0], [0, 0, 0], contexts, 2, cost_model)
    with pytest.raises(MissingPair) as err:
        robust_cost_table(dataset, cost_model, 0.1)
    assert err.value.pairs == ((1, 1),)
    table = robust_cost_table(dataset, cost_model, 0.1, impute_missing_ymax=True)
    assert table.m_hat[1, 1] == cost_model.y_max


# the batched solver against one solve per problem: both land within tol
# of the same minimum; small block sizes put block boundaries inside the batch
BATCH_TOL = 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data(), method=st.sampled_from(METHODS),
       epsilon=st.sampled_from([0.0, 1e-3, 0.1, 2.0]), eta=st.sampled_from([0.5, 20.0]))
def test_batched_duals_match_single_solves(data, method, epsilon, eta):
    n = data.draw(st.integers(1, 5), label="atoms")
    p = data.draw(st.integers(1, 9), label="problems")
    rows = lambda elements: st.lists(  # noqa: E731
        st.lists(elements, min_size=n, max_size=n), min_size=p, max_size=p)
    # few levels, some negative, so costs tie; zero weights drop atoms
    values = np.array(data.draw(rows(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]))))
    raw = np.array(data.draw(rows(st.sampled_from([0.0, 0.0, 1.0, 2.5]))))
    raw[:, 0] += raw.sum(axis=1) == 0
    weights = raw / raw.sum(axis=1, keepdims=True)
    points = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n), label="points")
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    block = data.draw(st.sampled_from([duals._BLOCK_CELLS, n * n, 2 * n * n + 1]), label="block")
    with patch.object(duals, "_BLOCK_CELLS", block):
        batch = solve_shared_support(weights, values, cmat, epsilon, method, eta, BATCH_TOL)
    for k in range(p):
        single = solve_shared_support(weights[k], values[k], cmat, epsilon, method, eta, BATCH_TOL)
        assert abs(batch.value[k] - single.value) <= BATCH_TOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(METHODS),
       epsilon=st.sampled_from([0.0, 0.05, 0.5]), small_blocks=st.booleans())
def test_batched_table_matches_per_pair_solves(seed, method, epsilon, small_blocks):
    rng = np.random.default_rng(seed)
    drawn, cost_model = random_covered_dataset(rng, n_contexts=4, n_actions=3, n_xi=5, extra=12)
    # per-pair costs rounded to halves, so values tie within and across pairs
    tied = CostModel(cost_model.xi_support, np.round(cost_model.y * 2) / 2, y_max=1.0)
    dataset = build_dataset(drawn.context_idx, drawn.action_idx, drawn.xi_idx,
                            drawn.contexts, 3, tied)
    with patch.object(duals, "_BLOCK_CELLS", 50 if small_blocks else duals._BLOCK_CELLS):
        table = robust_cost_table(dataset, tied, epsilon, method=method, eta=10.0)
    points = tied.xi_support.points
    xi_costs = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    for x in range(4):
        for a in range(3):
            mask = (dataset.context_idx == x) & (dataset.action_idx == a)
            weights = np.bincount(dataset.xi_idx[mask], minlength=5) / mask.sum()
            single = solve_shared_support(weights, tied.y[x, a], xi_costs, epsilon, method, 10.0)
            assert abs(table.m_hat[x, a] - single.value) <= BATCH_TOL


# -- policy evaluation -------------------------------------------------------------

def test_evaluate_single_context_support():
    table = RobustCostTable(np.array([[0.2, 0.8]]))
    context_dist = make_distribution(SupportSet.from_scalars([0.0]), [1.0])
    policy = Policy(np.array([[0.25, 0.75]]))
    expected = 0.25 * 0.2 + 0.75 * 0.8
    for eps_x in (0.0, 0.3, 10.0):
        sol = evaluate_policy(policy, table, context_dist, eps_x)
        assert sol.value == pytest.approx(expected, abs=1e-9)


def test_policy_rows_within_1e9_are_renormalized():
    rounded = Policy(np.array([[0.3333333333] * 3, [0.2, 0.3, 0.5]]))
    assert np.allclose(rounded.probs[0], 1.0 / 3.0, rtol=0, atol=1e-15)
    assert abs(rounded.probs[0].sum() - 1.0) <= 1e-15
    # rows already one to rounding are kept bit for bit
    exact = np.full((2, 6), 1.0 / 6.0)
    assert exact[0].sum() != 1.0
    assert np.array_equal(Policy(exact).probs, exact)
    with pytest.raises(ValidationError):
        Policy(np.array([[0.33333333] * 3]))
    with pytest.raises(ValidationError):
        Policy(np.array([[1.2, -0.2]]))


def test_nan_policy_probabilities_are_refused():
    with pytest.raises(ValidationError):
        Policy(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_nan_costs_are_refused():
    with pytest.raises(ValidationError):
        CostModel(SupportSet.from_scalars([0.0, 1.0]), np.array([[[0.0, np.nan]]]), y_max=1.0)


def test_evaluate_all_zero_radii_is_plugin():
    rng = np.random.default_rng(9)
    dataset, cost_model = random_covered_dataset(rng)
    table = robust_cost_table(dataset, cost_model, 0.0)
    policy = Policy.uniform(table.n_contexts, table.n_actions)
    context_dist = dataset.empirical_context_distribution()
    sol = evaluate_policy(policy, table, context_dist, 0.0)
    plugin = float(context_dist.weights @ (policy.probs * table.m_hat).sum(axis=1))
    assert sol.value == pytest.approx(plugin, abs=1e-12)


def test_evaluate_derived_two_context_instance():
    # per-context costs (0, 1) over uniform contexts reduces to the dual
    # solver's 0.75 instance
    table = RobustCostTable(np.array([[0.0], [1.0]]))
    context_dist = make_distribution(SupportSet.from_scalars([0.0, 1.0]), [0.5, 0.5])
    policy = Policy(np.array([[1.0], [1.0]]))
    sol = evaluate_policy(policy, table, context_dist, 0.25)
    assert sol.value == pytest.approx(0.75, abs=1e-8)


def test_evaluate_policy_shape_mismatch():
    table = RobustCostTable(np.array([[0.2, 0.8]]))
    context_dist = make_distribution(SupportSet.from_scalars([0.0]), [1.0])
    with pytest.raises(PolicyContextMismatch):
        evaluate_policy(Policy.uniform(2, 2), table, context_dist, 0.1)


# -- invariants ----------------------------------------------------------------------

def test_value_bounded_by_ymax_and_monotone_in_radii():
    rng = np.random.default_rng(13)
    for _ in range(5):
        dataset, cost_model = random_covered_dataset(rng)
        policy = Policy.uniform(len(dataset.contexts), len(dataset.actions))
        context_dist = dataset.empirical_context_distribution()
        grid = [0.0, 0.05, 0.2, 1.0, 5.0]
        values_x, values_c = [], []
        for eps in grid:
            table = robust_cost_table(dataset, cost_model, 0.1)
            values_x.append(evaluate_policy(policy, table, context_dist, eps).value)
            table_c = robust_cost_table(dataset, cost_model, eps)
            values_c.append(evaluate_policy(policy, table_c, context_dist, 0.1).value)
        for seq in (values_x, values_c):
            assert all(0.0 - 1e-12 <= v <= cost_model.y_max + 1e-9 for v in seq)
            assert all(a <= b + 1e-8 for a, b in zip(seq, seq[1:]))


def test_smoothing_gap_bounded_at_both_levels():
    rng = np.random.default_rng(17)
    for eta in (10.0, 100.0):
        for _ in range(10):
            dataset, cost_model = random_covered_dataset(rng)
            policy = Policy.uniform(len(dataset.contexts), len(dataset.actions))
            context_dist = dataset.empirical_context_distribution()
            exact_t = robust_cost_table(dataset, cost_model, 0.15, method="exact")
            smooth_t = robust_cost_table(dataset, cost_model, 0.15, method="regularized", eta=eta)
            v_exact = evaluate_policy(policy, exact_t, context_dist, 0.25, method="exact").value
            v_smooth = evaluate_policy(
                policy, smooth_t, context_dist, 0.25, method="regularized", eta=eta
            ).value
            bound = math.log(len(dataset.contexts)) / eta + math.log(len(dataset.xi_support)) / eta
            assert abs(v_exact - v_smooth) <= bound


def test_pointwise_dominant_policy_is_costlier():
    rng = np.random.default_rng(19)
    for _ in range(20):
        m_hat = rng.random((3, 3))
        table = RobustCostTable(m_hat)
        worst = np.eye(3)[m_hat.argmax(axis=1)]
        best = np.eye(3)[m_hat.argmin(axis=1)]
        context_dist = uniform_distribution(SupportSet.from_scalars([0.0, 1.0, 2.0]))
        hi = evaluate_policy(Policy(worst), table, context_dist, 0.3).value
        lo = evaluate_policy(Policy(best), table, context_dist, 0.3).value
        assert hi >= lo - 1e-9


def test_two_level_agreement_with_monolithic_primal():
    rng = np.random.default_rng(23)
    for _ in range(5):
        dataset, cost_model = random_covered_dataset(rng, n_contexts=3, n_actions=2, n_xi=3)
        policy = Policy.uniform(3, 2)
        eps_x, eps_c = 0.2, 0.15
        context_dist = dataset.empirical_context_distribution()
        dual_value = evaluate_policy(
            policy, robust_cost_table(dataset, cost_model, eps_c), context_dist, eps_x
        ).value

        # primal route at both levels
        m_primal = np.empty((3, 2))
        for x in range(3):
            for a in range(2):
                mask = (dataset.context_idx == x) & (dataset.action_idx == a)
                pair_dist = empirical_distribution(
                    cost_model.xi_support.points[dataset.xi_idx[mask]],
                    cost_model.xi_support,
                )
                m_primal[x, a] = primal_oracle(
                    pair_dist, CostVector(cost_model.xi_support, cost_model.y[x, a]), eps_c
                )
        mixed = (policy.probs * m_primal).sum(axis=1)
        primal_value = primal_oracle(
            context_dist, CostVector(dataset.contexts, mixed), eps_x
        )
        assert dual_value == pytest.approx(primal_value, abs=1e-6)


# -- rate experiment ---------------------------------------------------------------

def test_rate_experiment_rejects_empty_runs():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=1)
    with pytest.raises(EmptyExperiment):
        rate_experiment(config, [64], trials=0, seed=0)
    with pytest.raises(EmptyExperiment):
        rate_experiment(config, [], trials=5, seed=0)


def test_rate_experiment_plugin_errors_shrink():
    # zero radii: estimator reduces to the plug-in mean, whose error obeys
    # the law of large numbers
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=3)
    result = rate_experiment(
        config, [32, 256, 2048], trials=30, seed=7, epsilon_x=0.0, epsilon_c=0.0
    )
    medians = [med for _, med in result.rows]
    assert medians[-1] < medians[0]
    assert medians[-1] < 0.02
    assert result.slope < -0.2
