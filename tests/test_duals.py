import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobandit import (
    NON_ROBUST_SHORTCUT,
    CostVector,
    SupportSet,
    dual_objective,
    kl_dual_solve,
    lse,
    make_distribution,
    primal_oracle,
    wasserstein_dual_solve,
)
from drobandit.ope import Policy, RobustCostTable, evaluate_policy
from drobandit.opl import Parameterization, PolicyParams, exact_opl, smoothed_learning_objective
from drobandit import duals
from drobandit.distributions import match_indices
from drobandit.duals import _grid_pass, convex_minimize
from drobandit.errors import (
    EmptyInput,
    InfeasiblePrimal,
    InstanceTooLarge,
    InvalidTolerance,
    NegativeEpsilon,
    NegativeLambda,
    NonPositiveEta,
    NumericalError,
)
from drobandit.transport import GroundCost

from instances import random_dual_instance
from oracles import rational_simplex_max

S01 = SupportSet.from_scalars([0.0, 1.0])
UNIFORM01 = make_distribution(S01, [0.5, 0.5])
STEP_COST = CostVector(S01, np.array([0.0, 1.0]))


# -- dual objective ------------------------------------------------------------

def test_dual_objective_at_lambda_zero_is_fmax_plus_nothing():
    assert dual_objective(0.0, UNIFORM01, STEP_COST, 0.25) == pytest.approx(1.0)


def test_dual_objective_constant_costs():
    const = CostVector(S01, np.array([0.7, 0.7]))
    for lam in (0.0, 0.5, 3.0):
        assert dual_objective(lam, UNIFORM01, const, 0.1) == pytest.approx(0.1 * lam + 0.7)


def test_dual_objective_hand_enumeration():
    # eps*lam + 0.5*max(0, 1-1) + 0.5*max(-1, 1) = 0.25 + 0 + 0.5
    assert dual_objective(1.0, UNIFORM01, STEP_COST, 0.25) == pytest.approx(0.75)


def test_dual_objective_rejects_negative_lambda():
    with pytest.raises(NegativeLambda):
        dual_objective(-0.1, UNIFORM01, STEP_COST, 0.25)


# -- exact transport dual --------------------------------------------------------

def test_solve_constant_costs():
    const = CostVector(S01, np.array([0.7, 0.7]))
    sol = wasserstein_dual_solve(UNIFORM01, const, 0.25)
    assert sol.value == pytest.approx(0.7, abs=1e-12)
    assert sol.lambda_star == pytest.approx(0.0)


def test_solve_derived_instance():
    sol = wasserstein_dual_solve(UNIFORM01, STEP_COST, 0.25)
    assert sol.value == pytest.approx(0.75, abs=1e-8)


def test_solve_budget_covers_moving_everything():
    # E[c(x, argmax f)] = 0.5; any eps above that reaches f_max
    sol = wasserstein_dual_solve(UNIFORM01, STEP_COST, 0.6)
    assert sol.value == pytest.approx(1.0, abs=1e-8)


def test_solve_epsilon_zero_shortcut():
    sol = wasserstein_dual_solve(UNIFORM01, STEP_COST, 0.0)
    assert sol.value == pytest.approx(0.5)
    assert sol.shortcut == NON_ROBUST_SHORTCUT


def test_solve_validates_inputs():
    with pytest.raises(NegativeEpsilon):
        wasserstein_dual_solve(UNIFORM01, STEP_COST, -1.0)
    with pytest.raises(InvalidTolerance):
        wasserstein_dual_solve(UNIFORM01, STEP_COST, 0.25, tol=0.0)


# -- primal oracle ----------------------------------------------------------------

def test_primal_epsilon_zero_is_plugin():
    assert primal_oracle(UNIFORM01, STEP_COST, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_primal_derived_instance():
    assert primal_oracle(UNIFORM01, STEP_COST, 0.25) == pytest.approx(0.75, abs=1e-12)


def test_primal_huge_budget_reaches_fmax():
    assert primal_oracle(UNIFORM01, STEP_COST, 100.0) == pytest.approx(1.0, abs=1e-12)


def test_primal_survives_degenerate_pivots():
    # regression: this instance once produced a negative ratio in a dense
    # simplex's tie-break during a degenerate pivot
    support5 = SupportSet.from_scalars([0.0, 0.5, 1.0, 1.5, 2.0])
    p0 = make_distribution(support5, [0.35, 0.3, 0.2, 0.1, 0.05])
    f = CostVector(support5, np.array([0.05, 0.2, 0.45, 0.7, 1.0]))
    primal = primal_oracle(p0, f, 0.3)
    dual = wasserstein_dual_solve(p0, f, 0.3)
    assert primal == pytest.approx(dual.value, abs=1e-6)


def test_primal_budget_below_the_cheapest_move_is_infeasible():
    # every candidate lies at squared distance >= 1 from the only atom
    p0 = make_distribution(SupportSet.from_scalars([0.0]), [1.0])
    f = CostVector(SupportSet.from_scalars([1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(InfeasiblePrimal):
        primal_oracle(p0, f, 0.5)
    assert primal_oracle(p0, f, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_primal_instance_too_large():
    # 5,001^2 costs exceed MAX_PAIRWISE_CELLS: refused before the matrix exists
    big = SupportSet.from_scalars(np.arange(5001.0))
    p = make_distribution(big, np.full(5001, 1 / 5001))
    f = CostVector(big, np.zeros(5001))
    with pytest.raises(InstanceTooLarge):
        primal_oracle(p, f, 1.0)


# -- convex minimizer -----------------------------------------------------------------

def test_convex_minimize_raises_at_the_iteration_cap():
    def parabola(index, x):
        return (x - 0.3) ** 2, 2.0 * (x - 0.3), np.zeros_like(x)  # tangent steps only

    with pytest.raises(NumericalError):
        convex_minimize(parabola, 1.0, 1e-300, max_iter=3)
    # a problem that meets its tolerance within the cap returns
    x, value, gap, evals = convex_minimize(parabola, 1.0, 1e-2, max_iter=20)
    assert evals[0] <= 20 and abs(x[0] - 0.3) <= 0.1
    assert 0.0 <= gap[0] <= 1e-2 and value[0] - gap[0] <= 0.0


def affine_max(pieces, t=None):
    """(value, right derivative, curvature) at x of max_k (a_k + b_k x) over
    `pieces` (a_k, b_k), or with a sharpness `t` of its smoothing (1/t) log
    sum_k exp(t (a_k + b_k x)), exponents floored at -700 as the kernel's."""
    def at(x):
        lines = [a + b * x for a, b in pieces]
        top = max(lines)
        if t is None:
            return top, max(b for line, (_, b) in zip(lines, pieces) if line == top), 0.0
        w = [math.exp(max(t * (line - top), -700.0)) for line in lines]
        total = sum(w)
        mean = sum(wk * b for wk, (_, b) in zip(w, pieces)) / total
        spread = sum(wk * (b - mean) ** 2 for wk, (_, b) in zip(w, pieces)) / total
        return top + math.log(total) / t, mean, t * spread
    return at


def batch_objective(problems):
    """`convex_minimize`'s fn over scalar problems, row by row, so a row's
    arithmetic does not depend on the batch around it."""
    def fn(index, x):
        rows = [problems[p](v) for p, v in zip(index.tolist(), x.tolist())]
        return tuple(np.array(column) for column in zip(*rows))
    return fn


def assert_lone_solves_match_the_batch(problems, hi, tol, max_iter):
    """Each problem alone (the float path) against its row of the batch (the
    array path), bit for bit; with a cap that some problem exceeds, the batch
    raises, and a lone problem raises iff it is the one."""
    uncapped = convex_minimize(batch_objective(problems), hi, tol)
    capped = [evals > max(max_iter, 2) for evals in uncapped[3]]  # the first two always run
    if any(capped):
        with pytest.raises(NumericalError):
            convex_minimize(batch_objective(problems), hi, tol, max_iter)
    else:
        assert all(np.array_equal(a, b) for a, b in
                   zip(convex_minimize(batch_objective(problems), hi, tol, max_iter), uncapped))
    for p, problem in enumerate(problems):
        if capped[p]:
            with pytest.raises(NumericalError):
                convex_minimize(batch_objective([problem]), hi[p], tol[p], max_iter)
            continue
        alone = convex_minimize(batch_objective([problem]), hi[p], tol[p], max_iter)
        for got, want in zip(alone, uncapped):
            assert got.dtype == want.dtype and got.shape == (1,)
            assert np.array_equal(got, want[p : p + 1])


QUARTERS = st.integers(-16, 16).map(lambda k: k / 4)
CONVEX_PROBLEMS = st.tuples(
    st.lists(st.tuples(QUARTERS, QUARTERS), min_size=1, max_size=4),  # (a_k, b_k)
    st.sampled_from([None, 0.5, 5.0, 50.0]),  # exact or smoothed
    st.sampled_from([0.0, 1e-3, 0.5, 3.0, 40.0]),  # hi
    st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]),  # tol; at 0 only rounding or cut 0 stops
)


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(CONVEX_PROBLEMS, min_size=2, max_size=5),
       max_iter=st.sampled_from([1, 3, 6, 400]))
def test_a_lone_solve_matches_its_row_in_a_batch(drawn, max_iter):
    assert_lone_solves_match_the_batch([affine_max(pieces, t) for pieces, t, _, _ in drawn],
                                       [hi for *_, hi, _ in drawn],
                                       [tol for *_, tol in drawn], max_iter)


@pytest.mark.parametrize("pieces, t, hi, tol, exit, exit_evals", [
    ([(0.0, 1.0), (-1.0, 2.0)], None, 3.0, 1e-9, "at 0", 1),  # slope(0) >= 0
    ([(0.0, -1.0), (-1.0, 2.0)], 5.0, 0.0, 1e-9, "at 0", 1),  # hi = 0
    ([(1.0, -1.0), (0.5, -1.0)], None, 3.0, 1e-9, "at hi", 2),  # equal end slopes <= 0
    ([(1.0, -1.0)], 5.0, 3.0, 1e-9, "at hi", 2),  # the same, smoothed
    ([(1.5, 1.5), (3.25, -3.0), (-2.75, -1.5)], None, 3.0, 0.0, "rounding", 3),
    ([(0.25, -4.0), (3.0, 0.0), (-2.75, 0.75), (-0.25, -3.75)], 5.0, 3.0, 0.0, "tol", 15),
    ([(0.0, -1.0), (-2.0, 1.0)], None, 2.0, 1.0, "tol", 2),  # ends tie: the best is a
])
def test_lone_solve_matches_its_batch_row_at_the_edge_exits(pieces, t, hi, tol, exit, exit_evals):
    # each edge problem alone, then first and last in a batch of three; at a cap
    # of exit_evals - 1 the ones that make more than two evaluations raise
    edge = affine_max(pieces, t)
    x, _, gap, evals = convex_minimize(batch_objective([edge]), hi, tol)
    assert evals[0] == exit_evals
    assert {"at 0": x[0] == 0.0 and gap[0] == 0.0, "at hi": x[0] == hi and gap[0] == 0.0,
            "rounding": gap[0] > tol, "tol": 0.0 <= gap[0] <= tol}[exit]
    others = [affine_max([(0.0, -1.0), (-2.0, 1.0)]), affine_max([(0.0, -1.0), (-2.0, 1.0)], 5.0)]
    for problems in ([edge] + others, others + [edge]):
        hi_all, tol_all = [hi if f is edge else 3.0 for f in problems], [tol, tol, tol]
        assert_lone_solves_match_the_batch(problems, hi_all, tol_all, 400)
        assert_lone_solves_match_the_batch(problems, hi_all, tol_all, exit_evals - 1)


# -- log-sum-exp -------------------------------------------------------------------

def test_lse_equal_entries_exact():
    assert lse([0.3, 0.3, 0.3], eta=5.0) == pytest.approx(0.3, abs=1e-15)


def test_lse_two_point_value():
    assert lse([0.0, 1.0], eta=1.0) == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)


def test_lse_sharp_eta_sandwich():
    val = lse([0.0, 1.0], eta=100.0)
    assert 1.0 - math.log(2) / 100.0 <= val <= 1.0


def test_lse_validation():
    with pytest.raises(EmptyInput):
        lse([], eta=1.0)
    with pytest.raises(NonPositiveEta):
        lse([1.0], eta=0.0)


# -- smoothed dual ------------------------------------------------------------------

def test_smoothed_inner_values_floor_leaves_values_unchanged():
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 10.0, size=(40, 2))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points[:25], points)
    values, eta = rng.random(40), 10.0
    table = np.ascontiguousarray(cmat.T)  # the kernel's layout, candidates first
    buffers = (np.empty(cmat.size), np.empty(cmat.size))
    for lam in (0.5, 20.0):
        z = eta * values[:, None] - (eta * lam) * table
        top = z.max(axis=0)
        z -= top
        assert z.min() < -708.0  # exp() would reach subnormals or zero
        unfloored = top + np.log(np.exp(z).sum(axis=0))
        inner, _ = _grid_pass(np.array([eta * lam]), eta * values[None], [table],
                              slice(None), buffers, eta)
        assert np.array_equal(inner[0], unfloored)


def test_exact_solve_stops_at_zero_when_a_free_candidate_ties():
    # at lam = 0 candidates 0 and 1 tie for the max and the atom sits on 1 at
    # no cost: the right derivative there is +0.1, so the solve stops at 0
    p0 = make_distribution(SupportSet(np.array([[0.0], [1.0]])), np.array([0.0, 1.0]))
    sol = wasserstein_dual_solve(p0, CostVector(p0.support, np.array([1.0, 1.0])), 0.1)
    assert (sol.lambda_star, sol.value, sol.iterations, sol.gap) == (0.0, 1.0, 1, 0.0)


def test_regularized_large_eta_matches_exact():
    sol = wasserstein_dual_solve(UNIFORM01, STEP_COST, 0.25, eta=1e4)
    assert abs(sol.value - 0.75) <= math.log(2) / 1e4 + 1e-7


def test_regularized_constant_costs():
    # constant costs survive smoothing up to the lse sandwich slack: at
    # lam > 0 the smoothed inner values dip below the max by at most
    # log(n)/eta, and they equal the constant exactly once eta is sharp
    const = CostVector(S01, np.array([0.4, 0.4]))
    for eta in (0.5, 5.0, 500.0):
        sol = wasserstein_dual_solve(UNIFORM01, const, 0.3, eta=eta)
        assert abs(sol.value - 0.4) <= math.log(2) / eta + 1e-9
    sharp = wasserstein_dual_solve(UNIFORM01, const, 0.3, eta=1e6)
    assert sharp.value == pytest.approx(0.4, abs=1e-5)


def test_regularized_single_point_support():
    single = SupportSet.from_scalars([2.0])
    p = make_distribution(single, [1.0])
    f = CostVector(single, np.array([0.9]))
    sol = wasserstein_dual_solve(p, f, 0.5, eta=3.0)
    assert sol.value == pytest.approx(0.9, abs=1e-12)
    assert sol.lambda_star == pytest.approx(0.0, abs=1e-9)


def test_regularized_bracket_holds_the_minimizer():
    # regression: lam* = 12.98 lies beyond the exact dual's f_max/eps = 8.9,
    # where the search once stopped at -0.5947
    rng = np.random.default_rng(0)
    support = SupportSet(rng.random((20, 2)))
    f = CostVector(support, rng.random(20))
    p0 = make_distribution(support, np.full(20, 0.05))
    sol = wasserstein_dual_solve(p0, f, 0.1, eta=0.5)
    objective = smoothed_objective(p0, f, 0.1, 0.5)
    grid = np.linspace(0.0, 100.0, 20001)
    for _ in range(3):  # convex: zoom in on the best grid cell
        k = int(np.argmin(objective(grid)))
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], 2001)
    reference = float(objective(grid).min())
    assert reference == pytest.approx(-0.66286, abs=1e-5)
    assert sol.value == pytest.approx(reference, abs=1e-9)
    assert sol.lambda_star < sol.bracket[1] * (1 - 1e-6)


def _contract_entries():
    """Every entry that reaches a transport dual, as a call (epsilon, eta, lam),
    with the arguments it takes besides epsilon."""
    rng = np.random.default_rng(7)
    points = rng.random((6, 2))  # not a grid: the dense path
    p0 = make_distribution(SupportSet(points), np.full(6, 1 / 6))
    f = CostVector(SupportSet(points), rng.random(6))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    table = RobustCostTable(rng.random((6, 2)), method="exact", epsilon_c=0.1)
    clamp = Parameterization.GROUP_PROB_CLAMP
    params = PolicyParams(np.array([0.5]), np.zeros(6, dtype=np.int64), 2, clamp)
    return {
        "solve_transport_duals": (("eta",), lambda eps, eta, lam: duals.solve_transport_duals(
            p0.weights[None], f.values[None], cmat, eps, eta=eta)),
        "transport_objective": (("eta", "lam"), lambda eps, eta, lam: duals.transport_objective(
            lam, p0.weights, f.values, cmat, eps, eta)),
        "dual_objective": (("lam",), lambda eps, eta, lam: dual_objective(lam, p0, f, eps)),
        "wasserstein_dual_solve": (("eta",), lambda eps, eta, lam: wasserstein_dual_solve(
            p0, f, eps, eta=eta)),
        "smoothed_learning_objective": (("eta", "lam"), lambda eps, eta, lam:
                                        smoothed_learning_objective(params, lam, table, p0,
                                                                    eta, eps)),
        "exact_opl": (("eta",), lambda eps, eta, lam: exact_opl(
            table, p0, params.grouping, clamp, eps, method="regularized", eta=eta,
            resolution=3)),
        "evaluate_policy": (("eta",), lambda eps, eta, lam: evaluate_policy(
            Policy.uniform(6, 2), table, p0, eps, method="regularized", eta=eta)),
    }


BAD_ARGUMENTS = (("eta", 0.0, NonPositiveEta), ("eta", -1.0, NonPositiveEta),
                 ("epsilon", -0.1, NegativeEpsilon), ("lam", -1.0, NegativeLambda))


@pytest.mark.parametrize("entry, name, bad, error", [
    (entry, name, bad, error) for entry, (takes, _) in _contract_entries().items()
    for name, bad, error in BAD_ARGUMENTS if name == "epsilon" or name in takes])
def test_transport_entries_reject_bad_arguments(entry, name, bad, error):
    takes, call = _contract_entries()[entry]
    good = {"epsilon": 0.1, "eta": 5.0 if "eta" in takes else None, "lam": 1.0}
    call(good["epsilon"], good["eta"], good["lam"])  # the good arguments pass
    good[name] = bad
    with pytest.raises(error):
        call(good["epsilon"], good["eta"], good["lam"])


# -- KL dual -------------------------------------------------------------------------

def test_kl_constant_costs():
    const = CostVector(S01, np.array([0.6, 0.6]))
    for eps in (0.0, 0.1, 10.0):
        assert kl_dual_solve(UNIFORM01, const, eps).value == pytest.approx(0.6, abs=1e-12)


def test_kl_epsilon_zero_is_plugin():
    sol = kl_dual_solve(UNIFORM01, STEP_COST, 0.0)
    assert sol.value == pytest.approx(0.5)
    assert sol.shortcut == NON_ROBUST_SHORTCUT


def test_kl_derived_instance_frozen_grid_value():
    # dense-grid 1-d oracle (two-stage 1e6-point scan) run ahead of the build
    sol = kl_dual_solve(UNIFORM01, STEP_COST, 0.1)
    assert 0.5 < sol.value < 1.0
    assert sol.value == pytest.approx(0.719794626161, abs=1e-6)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-3])
def test_kl_small_radius_coin_matches_dense_search(eps):
    # lam* ~ sqrt(Var / (2 eps)) outgrows any fixed bracket as eps -> 0; at
    # eps = 1e-9 a [1e-6, 1e3] bracket once pinned lam* at 1000 (0.5001260)
    w, f = np.array([0.5, 0.5]), np.array([0.0, 1.0])

    def objective(lam):
        return eps * lam + 1.0 + lam * np.log(np.exp((f[None, :] - 1.0) / lam[:, None]) @ w)

    grid = np.logspace(-3.0, 15.0, 20001)
    for _ in range(3):
        k = int(np.argmin(objective(grid)))
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], 2001)
    reference = float(objective(grid).min())
    sol = kl_dual_solve(UNIFORM01, STEP_COST, eps)
    assert sol.value == pytest.approx(reference, abs=1e-9)
    assert sol.lambda_star < sol.bracket[1] * (1 - 1e-6)


# -- invariants -----------------------------------------------------------------------

EPS_GRID = (0.01, 0.1, 1.0, 10.0)


def rational_primal(p0, f, eps):
    """The primal transport-budget LP of :func:`primal_oracle`, solved exactly."""
    m, n = len(p0.support), len(f.support)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    obj = [Fraction(v) for v in np.tile(f.values, m)] + [Fraction(0)]
    eq, rhs = [], []
    for r in range(m):
        row = [Fraction(0)] * (m * n + 1)
        for j in range(n):
            row[r * n + j] = Fraction(1)
        eq.append(row)
        rhs.append(Fraction(p0.weights[r]))
    eq.append([Fraction(cmat[k // n][k % n]) for k in range(m * n)] + [Fraction(1)])
    rhs.append(Fraction(eps))
    exact, _ = rational_simplex_max(obj, eq, rhs)
    return exact


def test_primal_oracle_matches_exact_rational_simplex():
    # the HiGHS LP behind primal_oracle, certified by exact arithmetic
    rng = np.random.default_rng(19)
    for i in range(10):
        p0, f = random_dual_instance(rng, max_support=8)
        eps = EPS_GRID[i % len(EPS_GRID)]
        exact = rational_primal(p0, f, eps)
        assert primal_oracle(p0, f, eps) == pytest.approx(float(exact), abs=1e-9)


# atoms on a quarter grid of the plane, a few more candidates; costs from a
# few levels, some negative, so they tie; zero weights are common
GRID_POINTS = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                       min_size=2, max_size=7, unique=True)


EPSILONS = st.one_of(st.sampled_from([1e-12, 1e3]),
                    st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e))


def draw_instance(points, data):
    """Nominal atoms on the first points, costs on all of them."""
    atoms = data.draw(st.integers(1, len(points) - 1), label="atoms")
    raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]),
                                      min_size=atoms, max_size=atoms), label="weights"))
    raw[0] += raw.sum() == 0
    values = data.draw(st.lists(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]),
                                min_size=len(points), max_size=len(points)), label="costs")
    support = SupportSet(np.array(points, dtype=float) * 0.25)
    f = CostVector(support, np.array(values))
    return make_distribution(SupportSet(support.points[:atoms]), raw / raw.sum()), f


@settings(max_examples=60, deadline=None)
@given(points=GRID_POINTS, data=st.data(), eps=EPSILONS)
def test_primal_oracle_across_epsilon(points, data, eps):
    p0, f = draw_instance(points, data)
    primal = primal_oracle(p0, f, eps)
    assert primal == pytest.approx(float(rational_primal(p0, f, eps)), abs=1e-9)
    assert abs(wasserstein_dual_solve(p0, f, eps).value - primal) <= 1e-6


def draw_off_atom_instance(points, data):
    """Nominal atoms on the first points, costs on the others only, so every
    coupling column moves mass at a positive cost."""
    atoms = data.draw(st.integers(1, len(points) - 1), label="atoms")
    raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]),
                                      min_size=atoms, max_size=atoms), label="weights"))
    raw[0] += raw.sum() == 0
    values = data.draw(st.lists(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]),
                                min_size=len(points) - atoms, max_size=len(points) - atoms),
                       label="costs")
    pts = np.array(points, dtype=float) * 0.25
    return (make_distribution(SupportSet(pts[:atoms]), raw / raw.sum()),
            CostVector(SupportSet(pts[atoms:]), np.array(values)))


@settings(max_examples=60, deadline=None)
@given(points=GRID_POINTS, data=st.data(),
       scale=st.sampled_from([0.0, 0.5, 0.99, 1.01, 1.5, 4.0, 1e3]))
def test_primal_oracle_reduced_lp_matches_the_full_lp(points, data, scale):
    # the budget is a multiple of the cheapest coupling's cost, so both
    # sides of the feasibility threshold are drawn
    p0, f = draw_off_atom_instance(points, data)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    eps = scale * float(p0.weights @ cmat.min(axis=1))
    try:
        full = float(rational_primal(p0, f, eps))
    except ArithmeticError:  # the exact full LP is infeasible
        with pytest.raises(InfeasiblePrimal):
            primal_oracle(p0, f, eps)
    else:
        assert primal_oracle(p0, f, eps) == pytest.approx(full, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(points=GRID_POINTS, data=st.data(),
       scale=st.sampled_from([0.5, 0.99, 1.0, 1.01, 1.5, 4.0, 1e3]))
def test_dual_matches_the_primal_when_no_atom_is_a_candidate(points, data, scale):
    # the dual's bracket must reach past f_max / epsilon, a budget below the
    # cheapest move must be refused, as the primal refuses it, and a budget of
    # exactly that move (scale 1) gives the exact dual's flat limit
    p0, f = draw_off_atom_instance(points, data)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    eps = scale * float(p0.weights @ cmat.min(axis=1))
    try:
        primal = primal_oracle(p0, f, eps)
    except InfeasiblePrimal:
        with pytest.raises(InfeasiblePrimal):
            wasserstein_dual_solve(p0, f, eps)
    else:
        assert abs(wasserstein_dual_solve(p0, f, eps).value - primal) <= 1e-6


def test_dual_bracket_when_the_atom_is_not_a_candidate():
    # reach = 1: the only atom moves a squared distance of at least 1
    p0 = make_distribution(SupportSet.from_scalars([0.0]), [1.0])
    f = CostVector(SupportSet.from_scalars([1.0, 1.01]), np.array([0.0, 1.0]))
    sol = wasserstein_dual_solve(p0, f, 1.01)
    assert sol.lambda_star > f.f_max / 1.01  # beyond the bracket that ignored reach
    assert sol.value == pytest.approx(primal_oracle(p0, f, 1.01), abs=1e-9)
    assert sol.value == pytest.approx(0.497512437810945, abs=1e-9)
    smooth = wasserstein_dual_solve(p0, f, 1.01, eta=50.0)
    assert sol.value - math.log(2) / 50.0 <= smooth.value <= sol.value + 1e-9
    for eta in (None, 5.0):
        with pytest.raises(InfeasiblePrimal):
            wasserstein_dual_solve(p0, f, 0.5, eta=eta)
    # at epsilon = reach the bracket is unbounded. The exact objective is flat
    # past lam = 1 / 0.0201, at the value of the nearest candidate: 0
    limit = wasserstein_dual_solve(p0, f, 1.0)
    assert limit.value == 0.0 and limit.gap == 0.0
    assert limit.lambda_star == pytest.approx(1 / 0.0201, rel=1e-12)
    assert limit.shortcut == NON_ROBUST_SHORTCUT
    assert dual_objective(limit.lambda_star, p0, f, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert primal_oracle(p0, f, 1.0) == pytest.approx(0.0, abs=1e-12)
    # the smoothed minimum is not attained there: refused, not clamped
    with pytest.raises(NumericalError) as refused:
        wasserstein_dual_solve(p0, f, 1.0, eta=5.0)
    assert not isinstance(refused.value, InfeasiblePrimal)


def test_epsilon_zero_off_the_support_is_infeasible():
    # the atom lies off the candidates, so even epsilon = 0 admits no coupling
    p0 = make_distribution(SupportSet.from_scalars([0.0]), [1.0])
    f = CostVector(SupportSet.from_scalars([1.0, 1.01]), np.array([0.0, 1.0]))
    for solve in (primal_oracle, wasserstein_dual_solve):
        with pytest.raises(InfeasiblePrimal):
            solve(p0, f, 0.0)


def test_primal_coupling_is_a_greedy_vertex():
    # instances shaped like the benchmark's: 32 atoms, costs on them and 20 more
    rng = np.random.default_rng(31)
    for eps in (0.02, 0.05, 0.1, 0.3):
        atoms = rng.random((32, 2))
        weights = rng.dirichlet(np.full(32, 2.0))
        weights[:3] = 0.0
        p0 = make_distribution(SupportSet(atoms), weights / weights.sum())
        f = CostVector(SupportSet(np.vstack([atoms, rng.random((20, 2))])), rng.random(52))
        rows, cols, mass = duals._greedy_coupling(p0, f, eps)
        assert not np.isin(rows, [0, 1, 2]).any()  # zero-weight atoms carry nothing
        per_row = np.bincount(rows, minlength=32)[3:]
        assert per_row.min() == 1 and np.count_nonzero(per_row > 1) <= 1
        assert per_row.max() <= 2
        assert len(mass) <= 29 + 1


@settings(max_examples=80, deadline=None)
@given(points=GRID_POINTS, data=st.data(), eps=EPSILONS, off_atom=st.booleans(),
       scale=st.sampled_from([1.0, 1.01, 1.5, 4.0, 1e3]))
def test_primal_coupling_is_feasible_and_optimal(points, data, eps, off_atom, scale):
    # off the atoms the budget is a multiple of the cheapest coupling's cost,
    # scale 1 being exactly that cost, where the coupling has no slack at all
    p0, f = (draw_off_atom_instance if off_atom else draw_instance)(points, data)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    if off_atom:
        eps = scale * float(p0.weights @ cmat.min(axis=1))
    rows, cols, mass = duals._greedy_coupling(p0, f, eps)
    assert np.all(mass > 0)
    # checked in rational arithmetic; the float weights and the float budget
    # left carry rounding of about 1e-16 relative
    sent = [Fraction(0)] * len(p0.support)
    for r, m in zip(rows, mass):
        sent[r] += Fraction(m)
    for r, w in enumerate(p0.weights):
        assert abs(sent[r] - Fraction(w)) <= Fraction(1e-15) * Fraction(w)
    spent = sum(Fraction(m) * Fraction(cmat[r, c]) for r, c, m in zip(rows, cols, mass))
    assert spent <= Fraction(eps) * (1 + Fraction(1e-12))
    value = primal_oracle(p0, f, eps)
    assert abs(float(sum(Fraction(m) * Fraction(f.values[c]) for c, m in zip(cols, mass)))
               - value) <= 1e-12
    # the float reach may fall an ulp short of the exact one, where the exact
    # LP is infeasible: compare there with the exact reach's optimum
    reach = sum(Fraction(w) * Fraction(c) for w, c in zip(p0.weights, cmat.min(axis=1)))
    exact = rational_primal(p0, f, max(Fraction(eps), reach))
    assert value == pytest.approx(float(exact), abs=1e-9)


def grid_minimum(objective, hi: float) -> float:
    """Minimum of a convex function of lam on [0, hi] by repeated grid zooms;
    never below the true minimum, since every value is a function value."""
    lo, best = 0.0, math.inf
    for _ in range(40):
        grid = np.linspace(lo, hi, 101)
        values = objective(grid)
        k = int(np.argmin(values))
        best = min(best, float(values[k]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 100)]
    return best


def smoothed_objective(p0, f, eps, eta):
    atoms, candidates = p0.support.points, f.support.points
    cmat = ((atoms[:, None, :] - candidates[None, :, :]) ** 2).sum(axis=2)

    def objective(lam):  # (k,) multipliers -> (k,) smoothed dual values
        z = eta * (f.values[None, None, :] - lam[:, None, None] * cmat[None])
        top = z.max(axis=2)
        inner = (top + np.log(np.exp(z - top[..., None]).mean(axis=2))) / eta
        return eps * lam + inner @ p0.weights

    return objective


def kl_objective(p0, f, eps):
    w = p0.weights
    values = f.values[match_indices(p0.support.points, f.support)]
    top = values[w > 0].max()
    lifted = np.where(w > 0, values - top, 0.0)  # zero-weight atoms add nothing

    def objective(lam):  # top at lam = 0; log1p/expm1 keep large lam exact
        safe = np.where(lam > 0, lam, 1.0)
        tilt = np.log1p(np.expm1(lifted[None, :] / safe[:, None]) @ w)
        return np.where(lam > 0, eps * lam + top + lam * tilt, top)

    return objective


@settings(max_examples=150, deadline=None)
@given(points=GRID_POINTS, data=st.data(), eps=EPSILONS,
       method=st.sampled_from(["exact", "regularized", "kl"]),
       eta=st.sampled_from([0.5, 5.0, 50.0]))
def test_certified_gap_brackets_the_true_minimum(points, data, eps, method, eta):
    p0, f = draw_instance(points, data)
    tol = 1e-9 * f.f_max if f.f_max > 0 else 1e-12  # the default tolerance
    spread = f.f_max - min(f.values.min(), 0.0)
    if method == "exact":
        sol = wasserstein_dual_solve(p0, f, eps)
        truth, slack = primal_oracle(p0, f, eps), 1e-9  # HiGHS feasibility tolerance
    elif method == "regularized":
        sol = wasserstein_dual_solve(p0, f, eps, eta=eta)
        hi = 2.0 * (spread + math.log(len(f.support)) / eta) / eps
        truth, slack = grid_minimum(smoothed_objective(p0, f, eps, eta), hi), 1e-12
    else:
        sol = kl_dual_solve(p0, f, eps)
        truth, slack = grid_minimum(kl_objective(p0, f, eps), 2.0 * spread / eps), 1e-12
    assert 0.0 <= sol.gap <= tol
    assert sol.value - sol.gap <= truth + slack
    if method == "exact":  # a dual value the search attained is never below the primal
        assert sol.value >= truth - slack


def test_strong_duality_sample():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p0, f = random_dual_instance(rng)
        eps = float(rng.choice(EPS_GRID))
        dual = wasserstein_dual_solve(p0, f, eps)
        primal = primal_oracle(p0, f, eps)
        assert abs(dual.value - primal) <= 1e-6


def test_lemma_style_bounds_hold_on_solved_instances():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p0, f = random_dual_instance(rng)
        eps = float(rng.choice(EPS_GRID))
        sol = wasserstein_dual_solve(p0, f, eps)
        assert 0.0 <= sol.lambda_star <= f.f_max / eps + 1e-12
        expected = float(p0.weights @ f.values)
        assert expected - 1e-9 <= sol.value <= f.f_max + 1e-12


def test_midpoint_convexity_of_dual_objective():
    rng = np.random.default_rng(31)
    p0, f = random_dual_instance(rng, max_support=8)
    for _ in range(1000):
        l1, l2 = rng.random(2) * 20.0
        mid = dual_objective((l1 + l2) / 2, p0, f, 0.3)
        ends = dual_objective(l1, p0, f, 0.3) + dual_objective(l2, p0, f, 0.3)
        assert mid <= ends / 2 + 1e-10


def test_value_monotone_in_epsilon_for_all_solvers():
    rng = np.random.default_rng(37)
    eps_grid = [0.0, 0.01, 0.05, 0.2, 1.0, 5.0]
    for _ in range(10):
        p0, f = random_dual_instance(rng, max_support=8)
        for solver in (
            lambda e: wasserstein_dual_solve(p0, f, e).value,
            lambda e: wasserstein_dual_solve(p0, f, e, eta=50.0).value,
            lambda e: kl_dual_solve(p0, f, e).value,
        ):
            values = [solver(e) for e in eps_grid]
            assert all(a <= b + 1e-7 for a, b in zip(values, values[1:]))


def test_regularization_gap_bounded_by_lse_sandwich():
    rng = np.random.default_rng(41)
    for eta in (10.0, 100.0):
        for _ in range(25):
            p0, f = random_dual_instance(rng)
            eps = float(rng.choice(EPS_GRID))
            exact = wasserstein_dual_solve(p0, f, eps).value
            smooth = wasserstein_dual_solve(p0, f, eps, eta=eta).value
            assert abs(exact - smooth) <= math.log(len(f.support)) / eta + 1e-7


def test_kl_value_between_mean_and_max():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p0, f = random_dual_instance(rng)
        eps = float(rng.choice(EPS_GRID))
        sol = kl_dual_solve(p0, f, eps)
        expected = float(p0.weights @ f.values)
        # the search starts at lam = 0, where the objective is the top value
        assert sol.bracket[0] == 0.0
        assert expected - 1e-9 <= sol.value <= f.f_max + 1e-9
