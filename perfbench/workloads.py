"""The four benchmark workloads.

Each workload has a ``setup`` that builds its inputs from the seed, a fixed
``cycle`` of operation parameters that every run walks in order, an ``op``
that runs one operation against the program, and a ``check`` that compares every
output with a reference from :mod:`oracles` or with a property the method
must have. Checks run after the timed region. Outputs of an operation that
recurs in the cycle are checked against the reference once and must then
repeat exactly, as the package promises for equal inputs.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
import oracles
from oracles import CheckFailed, expect_close
from drobandit import cli, data, duals, ope, opl, transport
from drobandit.distributions import SupportSet, make_distribution

# agreement asked of dual values against the reference LPs (acceptance 01)
VALUE_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple
    setup: Callable[[int, Path], Any]
    op: Callable[[Any, int, Any], Any]
    check: Callable[[Any, list], None]


class OperationFailed(RuntimeError):
    """The program reported a failure for one operation."""


def _first_occurrences(done):
    """Split (index, params, output) records into first runs of each params
    value and the repeats, each repeat paired with its first run's output."""
    first, repeats = {}, []
    for index, params, output in done:
        if params in first:
            repeats.append((params, output, first[params]))
        else:
            first[params] = output
    return first, repeats


# -- ope-cli -----------------------------------------------------------------

OPE_SHAPE = inputs.LogShape(rows=20_000, age_range=(20, 95), age_width=5,
                            rsbp_range=(90, 280), rsbp_width=10)
# (epsilon_x, epsilon_c), both growing along the cycle
OPE_RADII = ((5.0, 0.05), (20.0, 0.2), (50.0, 0.5))
OPE_SAMPLED_PAIRS = 64


@dataclass
class OpeState:
    workdir: Path
    log_path: Path
    schema_path: Path
    binned: inputs.BinnedLog
    y_max: float


def ope_setup(seed: int, workdir: Path) -> OpeState:
    log = inputs.stroke_log(OPE_SHAPE, np.random.default_rng(seed))
    log_path, schema_path = workdir / "log.csv", workdir / "schema.json"
    inputs.write_log(log, log_path)
    schema_path.write_text(json.dumps(OPE_SHAPE.schema()))
    return OpeState(workdir, log_path, schema_path, inputs.bin_log(log, OPE_SHAPE),
                    sum(inputs.COST_WEIGHTS.values()))


def ope_op(state: OpeState, index: int, radii):
    eps_x, eps_c = radii
    summary = state.workdir / f"summary-{index}.csv"
    table = state.workdir / f"table-{index}.csv"
    code = cli.main([
        "ope", "--data", str(state.log_path), "--config", str(state.schema_path),
        "--support", "full", "--impute-missing-ymax", "--method", "exact",
        "--epsilon-x", repr(eps_x), "--epsilon-c", repr(eps_c),
        "--out", str(summary), "--table-out", str(table),
    ])
    if code != 0:
        raise OperationFailed(f"drobandit ope exited with {code}")
    return summary, table


def _read_ope_outputs(summary: Path, table: Path, n_contexts: int):
    with open(summary, newline="") as handle:
        value = float(next(csv.DictReader(handle))["value"])
    with open(table, newline="") as handle:
        rows = list(csv.DictReader(handle))
    m_hat = np.full((n_contexts, len(inputs.ACTIONS)), np.nan)
    for row in rows:
        m_hat[int(row["context_index"]), int(row["action_index"])] = float(row["m_hat"])
    return value, m_hat


def ope_check(state: OpeState, done) -> None:
    b = state.binned
    n_x = len(b.points)
    totals = b.counts.sum(axis=2)
    observed = np.argwhere(totals > 0)
    sample = observed[np.linspace(0, len(observed) - 1, OPE_SAMPLED_PAIRS).astype(int)]
    xi_cost = oracles.squared_euclidean(b.xi_values, b.xi_values)
    ctx_cost = oracles.squared_euclidean(b.points, b.points)
    weights = b.context_weights
    means = np.where(totals > 0, (b.counts @ b.xi_values) / np.maximum(totals, 1), state.y_max)
    plugin = float(weights @ means.mean(axis=1))

    first, repeats = _first_occurrences(done)
    values = {}
    for (eps_x, eps_c), (summary, table) in first.items():
        value, m_hat = _read_ope_outputs(summary, table, n_x)
        if np.any(m_hat[totals == 0] != state.y_max):
            raise CheckFailed("unlogged pairs must be charged y_max")
        for x, a in sample:
            ref = oracles.transport_budget_lp(b.counts[x, a] / totals[x, a], b.xi_values,
                                              xi_cost, eps_c)
            expect_close(f"m_hat[{x},{a}] at eps_c={eps_c}", m_hat[x, a], ref, VALUE_ATOL)
        per_context = m_hat.mean(axis=1)  # the uniform policy
        ref = oracles.transport_budget_lp(weights, per_context, ctx_cost, eps_x)
        expect_close(f"policy value at eps_x={eps_x}", value, ref, VALUE_ATOL)
        if not plugin - VALUE_ATOL <= value <= state.y_max + VALUE_ATOL:
            raise CheckFailed(f"value {value} outside [plug-in {plugin}, y_max {state.y_max}]")
        values[(eps_x, eps_c)] = value
    ordered = [values[r] for r in OPE_RADII if r in values]
    if any(b_ < a_ - VALUE_ATOL for a_, b_ in zip(ordered, ordered[1:])):
        raise CheckFailed(f"value decreases as the radii grow: {ordered}")
    for radii, (summary, table), (summary0, table0) in repeats:
        if (summary.read_bytes(), table.read_bytes()) != (summary0.read_bytes(),
                                                           table0.read_bytes()):
            raise CheckFailed(f"outputs at {radii} differ between repeats")


# -- shared by the learning workloads ------------------------------------------

LEARN_EPS_C = 0.2
ETA = 10.0  # the CLI's BSGD default


@dataclass
class LearnState:
    points: np.ndarray
    table: ope.RobustCostTable
    context_dist: Any
    grouping: np.ndarray
    support: SupportSet


def _learn_setup(shape: inputs.LogShape, seed: int, workdir: Path, grouping_column):
    log = inputs.stroke_log(shape, np.random.default_rng(seed))
    path = workdir / "log.csv"
    inputs.write_log(log, path)
    dataset = data.load_dataset(path, shape.schema())
    cost_model = ope.CostModel.identity(dataset.xi_support, len(dataset.contexts),
                                        len(dataset.actions), dataset.y_max)
    table = ope.robust_cost_table(dataset, cost_model, LEARN_EPS_C, impute_missing_ymax=True)
    points = dataset.contexts.points
    if grouping_column is None:
        grouping = np.zeros(len(points), dtype=np.int64)
    else:
        grouping = points[:, grouping_column].astype(np.int64)
    return LearnState(points, table, dataset.empirical_context_distribution(), grouping,
                      dataset.contexts)


def _policy_costs(m_hat: np.ndarray, theta: np.ndarray, grouping: np.ndarray) -> np.ndarray:
    """Per-context expected cost under the two-action clamp policy."""
    p_first = np.clip(np.asarray(theta)[grouping], 0.0, 1.0)
    return p_first * m_hat[:, 0] + (1.0 - p_first) * m_hat[:, 1]


# -- opl-grid ----------------------------------------------------------------

GRID_SHAPE = inputs.LogShape(rows=20_000, age_range=(20, 95), age_width=5,
                             rsbp_range=(90, 280), rsbp_width=15)
# one radius: every operation does the same work, so the median is taken
# over identical operations
GRID_EPS_X = (20.0,)
GRID_RESOLUTION = 3


def grid_setup(seed: int, workdir: Path) -> LearnState:
    return _learn_setup(GRID_SHAPE, seed, workdir, grouping_column=None)


def grid_op(state: LearnState, index: int, eps_x: float):
    clamp = opl.Parameterization.GROUP_PROB_CLAMP
    exact, v_exact = opl.exact_opl(state.table, state.context_dist, state.grouping, clamp,
                                   eps_x, method="exact", resolution=GRID_RESOLUTION)
    smooth, v_smooth = opl.exact_opl(state.table, state.context_dist, state.grouping, clamp,
                                     eps_x, method="regularized", eta=ETA,
                                     resolution=GRID_RESOLUTION)
    return float(exact.theta[0]), v_exact, float(smooth.theta[0]), v_smooth


def grid_check(state: LearnState, done) -> None:
    weights = state.context_dist.weights
    cost = oracles.squared_euclidean(state.points, state.points)
    m_hat = state.table.m_hat
    axis = np.linspace(0.0, 1.0, GRID_RESOLUTION)
    first, repeats = _first_occurrences(done)
    for eps_x, (theta_e, v_exact, theta_s, v_smooth) in first.items():
        k = int(np.argmin(np.abs(axis - theta_e)))
        if axis[k] != theta_e:
            raise CheckFailed(f"exact optimum theta={theta_e} is not a grid point")
        ref = oracles.transport_budget_lp(weights, _policy_costs(m_hat, [theta_e], state.grouping),
                                          cost, eps_x)
        expect_close(f"exact grid optimum at eps_x={eps_x}", v_exact, ref, VALUE_ATOL)
        for j in (k - 1, k + 1):
            if 0 <= j < len(axis):
                other = oracles.transport_budget_lp(
                    weights, _policy_costs(m_hat, [axis[j]], state.grouping), cost, eps_x)
                if other < v_exact - VALUE_ATOL:
                    raise CheckFailed(f"grid point {axis[j]} scores {other} < optimum {v_exact}")
        _, ref = oracles.smoothed_dual_min(
            weights, _policy_costs(m_hat, [theta_s], state.grouping), cost, eps_x, ETA)
        expect_close(f"regularized grid optimum at eps_x={eps_x}", v_smooth, ref, VALUE_ATOL)
        gap = math.log(len(weights)) / ETA
        if not v_exact - gap - VALUE_ATOL <= v_smooth <= v_exact + VALUE_ATOL:
            raise CheckFailed(f"regularized {v_smooth} outside [{v_exact - gap}, {v_exact}]")
    for eps_x, output, output0 in repeats:
        if output != output0:
            raise CheckFailed(f"grid optimum at eps_x={eps_x} differs between repeats")


# -- opl-bsgd ----------------------------------------------------------------

BSGD_SHAPE = inputs.LogShape(rows=20_000, age_range=(20, 96), age_width=4,
                             rsbp_range=(90, 280), rsbp_width=10)
BSGD_SEEDS = (3, 5)
BSGD_ITERATIONS = 3000
BSGD_BATCH = 64
BSGD_EPS_X = 20.0


def bsgd_setup(seed: int, workdir: Path) -> LearnState:
    # one policy group per consciousness level
    return _learn_setup(BSGD_SHAPE, seed, workdir, grouping_column=2)


def bsgd_op(state: LearnState, index: int, seed: int):
    n_groups = int(state.grouping.max()) + 1
    clamp = opl.Parameterization.GROUP_PROB_CLAMP
    policy0 = opl.PolicyParams(np.full(n_groups, 0.5), state.grouping, 2, clamp)
    config = opl.BsgdConfig(iterations=BSGD_ITERATIONS, inner_batch=BSGD_BATCH, eta=ETA,
                            epsilon_x=BSGD_EPS_X, seed=seed)
    params, lam, trace = opl.bsgd_learn(state.table, state.context_dist, state.support,
                                        config, policy0)
    value = opl.smoothed_learning_objective(params, lam, state.table, state.context_dist,
                                            ETA, BSGD_EPS_X)
    return params.theta.copy(), lam, trace, value


def bsgd_check(state: LearnState, done) -> None:
    cap = float(state.table.m_hat.max()) / BSGD_EPS_X
    weights = state.context_dist.weights
    cost = oracles.squared_euclidean(state.points, state.points)
    first, repeats = _first_occurrences(done)
    for seed, (theta, lam, _, value) in first.items():
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            raise CheckFailed(f"seed {seed}: theta {theta} outside [0, 1]")
        if not 0.0 <= lam <= cap:
            raise CheckFailed(f"seed {seed}: lambda {lam} outside [0, {cap}]")
        ref = oracles.smoothed_dual(lam, weights, _policy_costs(state.table.m_hat, theta,
                                                                state.grouping),
                                    cost, BSGD_EPS_X, ETA)
        expect_close(f"seed {seed}: smoothed objective", value, ref, 1e-9)
    for seed, (theta, lam, trace, value), (theta0, lam0, trace0, value0) in repeats:
        same = (np.array_equal(theta, theta0) and lam == lam0 and value == value0
                and all(np.array_equal(getattr(trace, f), getattr(trace0, f))
                        for f in ("theta", "lam", "context_index", "objective")))
        if not same:
            raise CheckFailed(f"seed {seed}: trace differs between repeats")


# -- lp-certify --------------------------------------------------------------

# One operation certifies every instance of the list: the simplex's pivot
# count varies a lot between random instances, and summing over eight keeps
# the cost of an operation close across seeds.
LP_RADII = (0.02, 0.03, 0.05, 0.07, 0.1, 0.14, 0.2, 0.3)
LP_ATOMS = 32
LP_EXTRA = 20
LP_DISTINCT = 100


@dataclass(frozen=True)
class LpInstance:
    nominal: Any
    costs: Any
    epsilon: float
    cost_matrix: np.ndarray  # reference ground costs, for the check only
    contexts: np.ndarray
    split_seed: int


def lp_setup(seed: int, workdir: Path) -> tuple:
    rng = np.random.default_rng(seed)
    instances = []
    for split_seed, epsilon in enumerate(LP_RADII, start=1):
        atoms, weights, candidates, values = inputs.transport_instance(rng, LP_ATOMS, LP_EXTRA)
        instances.append(LpInstance(
            make_distribution(SupportSet(atoms), weights),
            duals.CostVector(SupportSet(candidates), values),
            epsilon,
            oracles.squared_euclidean(atoms, candidates),
            inputs.scalar_contexts(rng, 3 * LP_DISTINCT, LP_DISTINCT),
            split_seed,
        ))
    return tuple(instances)


def lp_op(instances: tuple, index: int, params) -> tuple:
    out = []
    for inst in instances:
        dual = duals.wasserstein_dual_solve(inst.nominal, inst.costs, inst.epsilon).value
        primal = duals.primal_oracle(inst.nominal, inst.costs, inst.epsilon)
        radius = transport.split_radius_estimate(inst.contexts, inst.split_seed)
        out.append((dual, primal, radius))
    return tuple(out)


def lp_check(instances: tuple, done) -> None:
    first, repeats = _first_occurrences(done)
    for outputs in first.values():
        for which, (inst, (dual, primal, radius)) in enumerate(zip(instances, outputs)):
            expect_close(f"instance {which}: primal vs dual", primal, dual, VALUE_ATOL)
            ref = oracles.transport_budget_lp(inst.nominal.weights, inst.costs.values,
                                              inst.cost_matrix, inst.epsilon)
            expect_close(f"instance {which}: dual vs HiGHS", dual, ref, VALUE_ATOL)
            expect_close(f"instance {which}: primal vs HiGHS", primal, ref, VALUE_ATOL)
            # the split the package documents: seeded permutation, the first
            # half takes the extra sample
            pts = inst.contexts
            order = np.random.default_rng(inst.split_seed).permutation(len(pts))
            cut = (len(pts) + 1) // 2
            half_a, half_b = pts[order[:cut]], pts[order[cut:]]
            ref = oracles.quantile_coupling_cost(half_a, np.ones(len(half_a)),
                                                 half_b, np.ones(len(half_b)))
            expect_close(f"instance {which}: split radius", radius, ref, 1e-9)
    for _, output, output0 in repeats:
        if output != output0:
            raise CheckFailed("certificates differ between repeats")


# why each workload exists is stated in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("ope-cli", OPE_RADII, ope_setup, ope_op, ope_check),
    Workload("opl-grid", GRID_EPS_X, grid_setup, grid_op, grid_check),
    Workload("opl-bsgd", BSGD_SEEDS, bsgd_setup, bsgd_op, bsgd_check),
    Workload("lp-certify", ("all instances",), lp_setup, lp_op, lp_check),
)}
