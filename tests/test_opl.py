import math
import tracemalloc

import numpy as np
import pytest

from drobandit import (
    BsgdConfig,
    Parameterization,
    Policy,
    PolicyParams,
    RobustCostTable,
    SupportSet,
    bsgd_learn,
    evaluate_policy,
    exact_opl,
    make_distribution,
    policy_probs,
    robust_cost_table,
    robust_policy_cost,
    smoothed_gradients,
    smoothed_learning_objective,
    synth_generate,
    true_robust_table,
    uniform_distribution,
)
from drobandit import duals, opl
from drobandit.data import canonical_rate_config, sample_dataset
from drobandit.errors import DimensionTooLarge, InvalidConfig, UnknownContext
from drobandit.ope import solve_shared_support
from drobandit.opl import policy_costs_and_grads, project_theta
from drobandit.transport import MAX_PAIRWISE_CELLS, GroundCost

from oracles import transport_dual_reference

CLAMP = Parameterization.GROUP_PROB_CLAMP
SOFTMAX = Parameterization.GROUP_SOFTMAX


def two_context_table(m_hat=((0.2, 0.8), (0.9, 0.3)), epsilon_c=0.1):
    return RobustCostTable(np.asarray(m_hat, dtype=float), method="exact",
                           epsilon_c=epsilon_c)


# -- parameterizations -----------------------------------------------------------

def test_softmax_zero_theta_is_uniform():
    params = PolicyParams(np.zeros(3), np.array([0]), n_actions=4,
                          parameterization=SOFTMAX)
    assert np.allclose(policy_probs(params, 0), 0.25)


def test_clamp_two_actions():
    params = PolicyParams(np.array([0.8]), np.array([0]), n_actions=2,
                          parameterization=CLAMP)
    assert np.allclose(policy_probs(params, 0), [0.8, 0.2])


def test_probabilities_sum_to_one_random_thetas():
    rng = np.random.default_rng(3)
    grouping = np.array([0, 1, 1, 0])
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        soft = PolicyParams(rng.normal(size=2 * (k - 1)) * 3, grouping, k, SOFTMAX)
        mat = np.vstack([policy_probs(soft, c) for c in range(4)])
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12
        lead = rng.dirichlet(np.ones(k))[: k - 1]
        clamp = PolicyParams(np.tile(lead, 2), grouping, k, CLAMP)
        mat = np.vstack([policy_probs(clamp, c) for c in range(4)])
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12


def test_unknown_context_rejected():
    params = PolicyParams(np.array([0.5]), np.array([0]), 2, CLAMP)
    with pytest.raises(UnknownContext):
        policy_probs(params, 5)


# -- per-context cost and gradient ------------------------------------------------

def test_cost_flat_table_has_zero_gradient():
    table = RobustCostTable(np.full((2, 2), 0.6), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.3, 0.7]), np.array([0, 1]), 2, CLAMP)
    for ctx in (0, 1):
        value, grad = robust_policy_cost(params, table, ctx)
        assert value == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(grad, 0.0, atol=1e-12)


def test_cost_linear_in_clamp_probability():
    table = RobustCostTable(np.array([[0.0, 1.0]]), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.35]), np.array([0]), 2, CLAMP)
    value, grad = robust_policy_cost(params, table, 0)
    assert value == pytest.approx(0.65, abs=1e-12)
    assert grad[0] == pytest.approx(-1.0, abs=1e-12)


def _fd_gradient(fn, theta, h=1e-6):
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def test_cost_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    grouping = np.array([0, 1, 0])
    for trial in range(100):
        k = int(rng.integers(2, 5))
        m_hat = rng.random((3, k))
        table = RobustCostTable(m_hat, method="exact", epsilon_c=0.0)
        param_kind = CLAMP if trial % 2 == 0 else SOFTMAX
        if param_kind is CLAMP:
            theta = np.concatenate([rng.dirichlet(np.ones(k))[: k - 1] * 0.9 + 0.02
                                    for _ in range(2)])
        else:
            theta = rng.normal(size=2 * (k - 1))
        ctx = int(rng.integers(0, 3))
        params = PolicyParams(theta, grouping, k, param_kind)
        _, grad = robust_policy_cost(params, table, ctx)

        def value_at(t):
            return robust_policy_cost(PolicyParams(t, grouping, k, param_kind), table, ctx)[0]

        fd = _fd_gradient(fn=value_at, theta=theta)
        err = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        assert err <= 1e-5


def test_costs_for_requested_contexts_equal_rows_of_full_call():
    rng = np.random.default_rng(19)
    grouping = rng.integers(0, 3, size=50)
    for kind in (CLAMP, SOFTMAX):
        theta = (np.tile([0.2, 0.5], 3) if kind is CLAMP else rng.normal(size=6))
        params = PolicyParams(theta, grouping, 3, kind)
        table = RobustCostTable(rng.random((50, 3)), method="exact", epsilon_c=0.0)
        costs, grads = policy_costs_and_grads(params, table)
        ctx = np.array([7, 0, 7, 49])
        sub_costs, sub_grads = policy_costs_and_grads(params, table, ctx)
        assert np.array_equal(sub_costs, costs[ctx])
        assert np.array_equal(sub_grads, grads[ctx])
        value, grad = robust_policy_cost(params, table, 7)
        assert value == costs[7] and np.array_equal(grad, grads[7])


# -- smoothed gradients ------------------------------------------------------------

def full_objective(params, lam, table, cost_row, eta, epsilon_x):
    costs, _ = policy_costs_and_grads(params, table)
    z = eta * (costs - lam * cost_row)
    top = z.max()
    return epsilon_x * lam + (top + math.log(np.mean(np.exp(z - top)))) / eta


def test_full_enumeration_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    support = SupportSet.from_scalars(np.linspace(0.0, 1.0, 4))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    grouping = np.array([0, 0, 1, 1])
    eta, eps_x = 8.0, 0.2
    for trial in range(30):
        table = RobustCostTable(rng.random((4, 2)), method="exact", epsilon_c=0.0)
        theta = rng.random(2) * 0.8 + 0.1
        lam = float(rng.random() * 2 + 0.05)
        params = PolicyParams(theta, grouping, 2, CLAMP)
        x_idx = int(rng.integers(0, 4))
        zeta = np.arange(4)
        _, theta_grad, lambda_grad = smoothed_gradients(
            params, lam, table, cmat[x_idx], zeta, eta, eps_x
        )

        fd_theta = _fd_gradient(
            lambda t: full_objective(PolicyParams(t, grouping, 2, CLAMP), lam, table,
                                     cmat[x_idx], eta, eps_x),
            theta,
        )
        h = 1e-6
        fd_lambda = (
            full_objective(params, lam + h, table, cmat[x_idx], eta, eps_x)
            - full_objective(params, lam - h, table, cmat[x_idx], eta, eps_x)
        ) / (2 * h)
        scale = max(1.0, np.max(np.abs(theta_grad)), abs(lambda_grad))
        assert np.max(np.abs(fd_theta - theta_grad)) / scale <= 1e-5
        assert abs(fd_lambda - lambda_grad) / scale <= 1e-5


def test_sampled_gradient_bias_shrinks_with_batch():
    rng = np.random.default_rng(17)
    support = SupportSet.from_scalars(np.linspace(0.0, 1.0, 6))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    table = RobustCostTable(rng.random((6, 2)), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.4]), np.zeros(6, dtype=int), 2, CLAMP)
    lam, eta, eps_x = 0.8, 8.0, 0.2
    x_idx = 2
    _, full_theta, full_lambda = smoothed_gradients(
        params, lam, table, cmat[x_idx], np.arange(6), eta, eps_x
    )
    full = np.append(full_theta, full_lambda)
    medians = []
    for m in (2, 8, 32, 128):
        errs = np.empty(2000)
        for r in range(2000):
            zeta = rng.integers(0, 6, size=m)
            _, tg, lg = smoothed_gradients(params, lam, table, cmat[x_idx], zeta, eta, eps_x)
            errs[r] = np.linalg.norm(np.append(tg, lg) - full)
        medians.append(float(np.median(errs)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


# -- biased SGD ---------------------------------------------------------------------

def convex_fixture():
    support = SupportSet.from_scalars([0.0, 1.0])
    table = two_context_table()
    context_dist = make_distribution(support, [0.5, 0.5])
    policy0 = PolicyParams(np.array([0.5, 0.5]), np.array([0, 1]), 2, CLAMP)
    return support, table, context_dist, policy0


def test_bsgd_theta_frozen_when_costs_flat():
    support = SupportSet.from_scalars([0.0, 1.0])
    table = RobustCostTable(np.full((2, 2), 0.5), method="exact", epsilon_c=0.0)
    context_dist = uniform_distribution(support)
    policy0 = PolicyParams(np.array([0.3, 0.6]), np.array([0, 1]), 2, CLAMP)
    config = BsgdConfig(iterations=200, inner_batch=8, eta=5.0, epsilon_x=0.2, seed=0)
    params, _, trace = bsgd_learn(table, context_dist, support, config, policy0)
    assert np.array_equal(params.theta, policy0.theta)
    assert np.all(trace.theta == policy0.theta)


def test_bsgd_lambda_stays_in_bracket():
    support, table, context_dist, policy0 = convex_fixture()
    config = BsgdConfig(iterations=500, inner_batch=4, eta=5.0, epsilon_x=0.6,
                        seed=3, lambda0=0.0)
    _, lam, trace = bsgd_learn(table, context_dist, support, config, policy0)
    cap = float(table.m_hat.max()) / 0.6
    assert np.all(trace.lam >= 0.0)
    assert np.all(trace.lam <= cap + 1e-12)
    assert 0.0 <= lam <= cap + 1e-12


def test_bsgd_deterministic_given_seed():
    support, table, context_dist, policy0 = convex_fixture()
    config = BsgdConfig(iterations=300, inner_batch=8, eta=5.0, epsilon_x=0.2, seed=11)
    first = bsgd_learn(table, context_dist, support, config, policy0)
    second = bsgd_learn(table, context_dist, support, config, policy0)
    assert np.array_equal(first[0].theta, second[0].theta)
    assert first[1] == second[1]
    assert np.array_equal(first[2].objective, second[2].objective)


def test_bsgd_default_step_is_the_constant_gamma_it_equals():
    # 0.5 / sqrt(T) is one constant step, so passing it as gamma changes no bit
    support, table, context_dist, policy0 = convex_fixture()
    runs = [bsgd_learn(table, context_dist, support,
                       BsgdConfig(iterations=300, inner_batch=8, eta=5.0, epsilon_x=0.2,
                                  seed=11, **gamma), policy0)
            for gamma in ({}, {"gamma": 0.5 / math.sqrt(300)})]
    (params, lam, trace), (params_g, lam_g, trace_g) = runs
    assert np.array_equal(params.theta, params_g.theta) and lam == lam_g
    for name in ("theta", "lam", "context_index", "objective"):
        assert np.array_equal(getattr(trace, name), getattr(trace_g, name))


def test_bsgd_config_validation():
    with pytest.raises(InvalidConfig):
        BsgdConfig(iterations=0, inner_batch=8, eta=5.0, epsilon_x=0.2, seed=0)
    with pytest.raises(InvalidConfig):
        BsgdConfig(iterations=10, inner_batch=8, eta=-1.0, epsilon_x=0.2, seed=0)


def test_bsgd_converges_to_grid_optimum_small():
    # light version of the acceptance fixture
    support, table, context_dist, policy0 = convex_fixture()
    eta, eps_x = 5.0, 0.2
    config = BsgdConfig(iterations=4000, inner_batch=32, eta=eta, epsilon_x=eps_x, seed=7)
    params, lam, _ = bsgd_learn(table, context_dist, support, config, policy0)
    final = smoothed_learning_objective(params, lam, table, context_dist, eta, eps_x)
    _, best = exact_opl(table, context_dist, np.array([0, 1]), CLAMP, eps_x,
                        method="regularized", eta=eta, resolution=101)
    assert final - best <= 5e-2


def reference_bsgd(table, context_dist, support, config, policy0):
    """The SGD loop written out plainly: a full cost matrix, `Generator.choice`
    for the context and a validated PolicyParams at every step."""
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    k, kind = policy0.n_actions, policy0.parameterization
    params = PolicyParams(project_theta(policy0.theta, k, kind), policy0.grouping, k, kind)
    lam = config.lambda0
    cap = float(table.m_hat.max()) / config.epsilon_x
    rng = np.random.default_rng(config.seed)
    n = len(support)
    rows = []
    for _ in range(config.iterations):
        x_idx = int(rng.choice(n, p=context_dist.weights))
        zeta = rng.integers(0, n, size=config.inner_batch)
        obj, theta_grad, lambda_grad = smoothed_gradients(
            params, lam, table, cmat[x_idx], zeta, config.eta, config.epsilon_x)
        rows.append((params.theta, lam, x_idx, obj))
        theta = project_theta(params.theta - config.step_size * theta_grad, k, kind)
        params = PolicyParams(theta, params.grouping, k, kind)
        lam = float(np.clip(lam - config.step_size * lambda_grad, 0.0, cap))
    return params, lam, rows


def test_bsgd_trace_bit_identical_to_reference_loop():
    rng = np.random.default_rng(29)
    n = 40
    support = SupportSet(rng.normal(size=(n, 2)))
    weights = rng.random(n)
    weights[rng.random(n) < 0.4] = 0.0
    context_dist = make_distribution(support, weights / weights.sum())
    table = RobustCostTable(rng.random((n, 3)), method="exact", epsilon_c=0.0)
    grouping = np.arange(n) % 2
    for kind, theta0 in ((CLAMP, np.array([0.2, 0.5, 0.6, 0.1])),
                         (SOFTMAX, np.array([0.3, -0.4, 1.0, 0.0]))):
        policy0 = PolicyParams(theta0, grouping, 3, kind)
        config = BsgdConfig(iterations=300, inner_batch=16, eta=4.0, epsilon_x=0.3,
                            seed=8, lambda0=0.5, gamma=0.2)
        params, lam, trace = bsgd_learn(table, context_dist, support, config, policy0)
        ref_params, ref_lam, rows = reference_bsgd(table, context_dist, support, config,
                                                   policy0)
        assert np.all(weights[trace.context_index] > 0)
        assert np.array_equal(trace.theta, np.array([r[0] for r in rows]))
        assert np.array_equal(trace.lam, np.array([r[1] for r in rows]))
        assert np.array_equal(trace.context_index, np.array([r[2] for r in rows]))
        assert np.array_equal(trace.objective, np.array([r[3] for r in rows]))
        assert np.array_equal(params.theta, ref_params.theta)
        assert lam == ref_lam


def test_objective_in_row_blocks_equals_full_matrix():
    rng = np.random.default_rng(31)
    n = 1500  # three row blocks
    support = SupportSet(rng.normal(size=(n, 3)))
    context_dist = make_distribution(support, rng.dirichlet(np.ones(n)))
    table = RobustCostTable(rng.random((n, 2)), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.3, 0.8]), np.arange(n) % 2, 2, CLAMP)
    value = smoothed_learning_objective(params, 0.7, table, context_dist, 6.0, 0.2)
    costs, _ = policy_costs_and_grads(params, table)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    full, _, _ = transport_dual_reference(context_dist.weights[None], costs[None], cmat,
                                          np.array([0.7]), 0.2, 6.0)
    assert abs(value - full[0]) <= 1e-12


def test_objective_with_zero_weight_contexts_equals_full_matrix():
    rng = np.random.default_rng(47)
    n = 1500  # three row blocks before the zero rows are dropped, two after
    support = SupportSet(rng.normal(size=(n, 3)))
    weights = rng.random(n)
    weights[rng.random(n) < 0.3] = 0.0
    weights[:400] = 0.0
    context_dist = make_distribution(support, weights / weights.sum())
    table = RobustCostTable(rng.random((n, 2)), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.3, 0.8]), np.arange(n) % 2, 2, CLAMP)
    value = smoothed_learning_objective(params, 0.7, table, context_dist, 6.0, 0.2)
    costs, _ = policy_costs_and_grads(params, table)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    full, _, _ = transport_dual_reference(context_dist.weights[None], costs[None], cmat,
                                          np.array([0.7]), 0.2, 6.0)
    assert abs(value - full[0]) <= 1e-12


def test_bsgd_runs_above_the_pairwise_limit_in_bounded_memory():
    n = 6000
    assert n * n > MAX_PAIRWISE_CELLS
    rng = np.random.default_rng(37)
    support = SupportSet(rng.normal(size=(n, 2)))
    context_dist = make_distribution(support, rng.dirichlet(np.ones(n)))
    table = RobustCostTable(rng.random((n, 2)), method="exact", epsilon_c=0.0)
    config = BsgdConfig(iterations=200, inner_batch=32, eta=5.0, epsilon_x=0.5, seed=2)
    # two groups, and one group per context (the CLI's identity grouping),
    # where a contexts x dim(theta) gradient matrix would itself be N x N
    for grouping in (np.arange(n) % 2, np.arange(n)):
        policy0 = PolicyParams(np.full(grouping.max() + 1, 0.5), grouping, 2, CLAMP)
        tracemalloc.start()
        try:
            params, lam, _ = bsgd_learn(table, context_dist, support, config, policy0)
            value = smoothed_learning_objective(params, lam, table, context_dist, 5.0, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        full_matrix = n * n * 8  # 288 MB
        assert peak <= full_matrix / 4


def test_smoothed_objective_computes_no_moments(monkeypatch):
    # 1,083 contexts off any grid: row blocks of the dense cost matrix. The
    # value needs neither the softmax moments nor the second buffer that
    # holds the costs for them
    n = 1083
    rng = np.random.default_rng(43)
    support = SupportSet(rng.random((n, 3)))
    context_dist = make_distribution(support, rng.dirichlet(np.ones(n)))
    table = RobustCostTable(rng.random((n, 2)), method="exact", epsilon_c=0.0)
    params = PolicyParams(np.array([0.3]), np.zeros(n, dtype=np.int64), 2, CLAMP)
    tracemalloc.start()
    try:
        value = smoothed_learning_objective(params, 0.7, table, context_dist, 10.0, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24.2e6  # 32 MB with the moments

    kernel = duals._grid_objective
    monkeypatch.setattr(duals, "_grid_objective",
                        lambda *args, moments: kernel(*args, moments=True))
    assert smoothed_learning_objective(params, 0.7, table, context_dist, 10.0, 0.5) == value


def test_kl_methods_run_above_the_pairwise_limit_without_a_cost_matrix():
    # the KL dual reads only weights and values, so no N x N costs are built
    n = 6000
    assert n * n > MAX_PAIRWISE_CELLS
    rng = np.random.default_rng(41)
    support = SupportSet(rng.normal(size=(n, 2)))
    context_dist = make_distribution(support, rng.dirichlet(np.ones(n)))
    table = RobustCostTable(rng.random((n, 2)), method="kl", epsilon_c=0.0)
    grouping = np.arange(n) % 2
    tracemalloc.start()
    try:
        params, value = exact_opl(table, context_dist, grouping, CLAMP, 0.2, method="kl",
                                  resolution=11)
        policy = Policy(np.stack([policy_probs(params, x) for x in range(n)]))
        solution = evaluate_policy(policy, table, context_dist, 0.2, method="kl")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8 / 4
    assert solution.value == pytest.approx(value, abs=1e-12)
    costs = np.einsum("xa,xa->x", policy.probs, table.m_hat)
    assert context_dist.weights @ costs - 1e-9 <= value <= costs.max() + 1e-9


# -- exact grid search ----------------------------------------------------------------

def test_exact_opl_flat_objective_keeps_first_grid_point():
    support = SupportSet.from_scalars([0.0, 1.0])
    table = RobustCostTable(np.full((2, 2), 0.4), method="exact", epsilon_c=0.0)
    params, value = exact_opl(table, uniform_distribution(support), np.array([0, 0]),
                              CLAMP, 0.1, resolution=11)
    assert params.theta[0] == 0.0  # earliest grid point wins ties
    assert value == pytest.approx(0.4, abs=1e-9)


def test_exact_opl_single_context_puts_mass_on_cheap_action():
    support = SupportSet.from_scalars([0.0])
    table = RobustCostTable(np.array([[0.0, 1.0]]), method="exact", epsilon_c=0.0)
    params, value = exact_opl(table, make_distribution(support, [1.0]),
                              np.array([0]), CLAMP, 0.7, resolution=101)
    assert params.theta[0] == pytest.approx(1.0)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_exact_opl_beats_uniform_policy():
    rng = np.random.default_rng(23)
    support = SupportSet.from_scalars([0.0, 1.0])
    for _ in range(5):
        table = RobustCostTable(rng.random((2, 2)), method="exact", epsilon_c=0.0)
        context_dist = uniform_distribution(support)
        _, best = exact_opl(table, context_dist, np.array([0, 1]), CLAMP, 0.2,
                            resolution=41)
        uniform_value = evaluate_policy(Policy.uniform(2, 2), table, context_dist, 0.2).value
        assert best <= uniform_value + 1e-9


def reference_grid(table, context_dist, grouping, kind, epsilon_x, method, eta, resolution):
    """The grid search written out plainly: one 1-d dual solve per grid point in
    np.ndindex order, a strict `<` keeping the earliest of tied points."""
    k = table.n_actions
    n_groups = int(grouping.max()) + 1
    axis = np.linspace(0.0, 1.0, resolution) if kind is CLAMP else np.linspace(-5.0, 5.0,
                                                                                resolution)
    points = context_dist.support.points
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    best_theta, best_value = None, math.inf
    for multi in np.ndindex(*[resolution] * (n_groups * (k - 1))):
        theta = axis[list(multi)]
        if kind is CLAMP and np.any(theta.reshape(n_groups, k - 1).sum(axis=1) > 1 + 1e-12):
            continue
        costs, _ = policy_costs_and_grads(PolicyParams(theta, grouping, k, kind), table)
        value = solve_shared_support(context_dist.weights, costs, cmat, epsilon_x, method,
                                     eta).value
        if value < best_value:
            best_theta, best_value = theta, value
    return best_theta, best_value


def test_exact_opl_chunks_match_one_solve_per_grid_point(monkeypatch):
    # chunks of three grid points over 5 contexts
    monkeypatch.setattr(opl, "_BLOCK_CELLS", 3 * 5)
    rng = np.random.default_rng(53)
    support = SupportSet(rng.normal(size=(5, 2)))
    context_dist = make_distribution(support, [0.4, 0.0, 0.1, 0.3, 0.2])
    for method, eta in (("exact", None), ("regularized", 4.0), ("kl", None)):
        for kind in (CLAMP, SOFTMAX):
            for k, grouping, resolution in ((3, np.zeros(5, dtype=int), 7),
                                            (2, np.array([0, 1, 2, 0, 1]), 4)):
                # negative costs: a clamp point of total mass above one would win
                table = RobustCostTable(rng.random((5, k)) - 0.5, method="exact",
                                        epsilon_c=0.0)
                params, value = exact_opl(table, context_dist, grouping, kind, 0.3,
                                          method=method, eta=eta, resolution=resolution)
                theta, ref = reference_grid(table, context_dist, grouping, kind, 0.3,
                                            method, eta, resolution)
                assert np.array_equal(params.theta, theta)
                assert abs(value - ref) <= 1e-12


def test_exact_opl_tie_across_chunks_keeps_first_grid_point(monkeypatch):
    # context 1 costs zero whatever theta[1]; context 0 is cheapest at the top of
    # theta[0]'s axis, so the last 5 of 25 grid points tie exactly, and chunks of
    # three split them (18-20 | 21-23 | 24)
    monkeypatch.setattr(opl, "_BLOCK_CELLS", 3 * 2)
    support = SupportSet.from_scalars([0.0, 1.0])
    table = RobustCostTable(np.array([[0.0, 1.0], [0.0, 0.0]]), method="exact",
                            epsilon_c=0.0)
    for kind in (CLAMP, SOFTMAX):
        args = (table, uniform_distribution(support), np.array([0, 1]), kind, 0.2, "exact",
                None, 5)
        params, value = exact_opl(*args)
        theta, ref = reference_grid(*args)
        assert params.theta[1] == theta[1] == (0.0 if kind is CLAMP else -5.0)
        assert np.array_equal(params.theta, theta)
        assert value == ref


@pytest.mark.parametrize("support, method", [
    ("grid", "exact"), ("grid", "regularized"), ("dense", "exact"), ("dense", "regularized"),
    ("dense", "kl")])
def test_exact_opl_chunk_size_changes_no_bit(monkeypatch, support, method):
    # the chunks only bound the (points x N) costs: one point per chunk, two,
    # or all at once give the same optimum bit for bit
    rng = np.random.default_rng(59)
    if support == "grid":
        points = np.stack([g.ravel() for g in np.meshgrid([0.0, 0.5, 1.5], [0.0, 1.0, 2.0, 2.5],
                                                          indexing="ij")], axis=1)
    else:
        points = rng.normal(size=(12, 2))
    context_dist = make_distribution(SupportSet(points), rng.dirichlet(np.ones(12)))
    table = RobustCostTable(rng.random((12, 3)), method="exact", epsilon_c=0.0)
    eta = 4.0 if method == "regularized" else None
    results = []
    for cells in (1, 2 * 12, opl._BLOCK_CELLS):
        monkeypatch.setattr(opl, "_BLOCK_CELLS", cells)
        results += [exact_opl(table, context_dist, np.zeros(12, dtype=np.int64), kind, 0.3,
                              method, eta, 9) for kind in (CLAMP, SOFTMAX)]
    for (params, value), (params_ref, value_ref) in zip(results, results[-2:] * 3):
        assert np.array_equal(params.theta, params_ref.theta) and value == value_ref


def test_exact_opl_dimension_limit():
    # 4 groups x 1 = 4 parameters exceeds the grid-search limit
    big_table = RobustCostTable(np.full((4, 2), 0.4), method="exact", epsilon_c=0.0)
    big_support = SupportSet.from_scalars([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DimensionTooLarge):
        exact_opl(big_table, uniform_distribution(big_support), np.arange(4), CLAMP, 0.1)


def test_exact_opl_smoothing_gap_bounded():
    # grid optima under the exact and smoothed evaluations stay within the
    # two-level lse sandwich of each other
    config = canonical_rate_config(n_contexts=4, n_xi=4, n_actions=2, seed=31, n=500)
    train, _, _ = synth_generate(config)
    grouping = np.array([0, 0, 1, 1])
    context_dist = train.empirical_context_distribution()
    for eta in (10.0, 100.0):
        exact_table = robust_cost_table(train, config.cost_model, 0.1, method="exact")
        smooth_table = robust_cost_table(train, config.cost_model, 0.1,
                                         method="regularized", eta=eta)
        _, v_exact = exact_opl(exact_table, context_dist, grouping, CLAMP, 0.2,
                               method="exact", resolution=21)
        _, v_smooth = exact_opl(smooth_table, context_dist, grouping, CLAMP, 0.2,
                                method="regularized", eta=eta, resolution=21)
        bound = (math.log(4) + math.log(4)) / eta
        assert abs(v_exact - v_smooth) <= bound + 1e-9


def test_learned_optimum_converges_with_sample_size():
    # |V-hat* - V*| shrinks roughly like n^(-1/2) on a small generator
    config = canonical_rate_config(n_contexts=3, n_xi=3, n_actions=2, seed=5)
    grouping = np.zeros(3, dtype=int)
    eps = 0.1
    true_table = true_robust_table(config, eps)
    _, v_star = exact_opl(true_table, config.context_dist, grouping, CLAMP, eps,
                          resolution=41)
    rng = np.random.default_rng(2)
    n_grid = [128, 512, 2048, 8192]
    medians = []
    for n in n_grid:
        errs = []
        for _ in range(30):
            ds = sample_dataset(config.context_dist, config.xi_dists,
                                config.behavior_policy, config.cost_model, n, rng)
            table = robust_cost_table(ds, config.cost_model, eps, impute_missing_ymax=True)
            _, v_hat = exact_opl(table, ds.empirical_context_distribution(), grouping,
                                 CLAMP, eps, resolution=41)
            errs.append(abs(v_hat - v_star))
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(n_grid), np.log(np.maximum(medians, 1e-12)), 1)[0])
    assert -0.85 <= slope <= -0.15
