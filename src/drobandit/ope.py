"""Two-step distributionally robust policy evaluation.

Step one bounds, for every (context, action) pair, the robust expected cost
of that pair over a radius-`epsilon_c` ball around the pair's empirical
cost-observation distribution, all pairs in one batched dual solve. Step two
mixes those per-pair costs through the target policy into a per-context cost
and solves one more robust problem over a radius-`epsilon_x` ball around the
empirical context distribution. Both steps use the same 1-d dual kernel
(exact, entropy-smoothed, or KL).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import WEIGHT_SUM_ATOL, DiscreteDistribution, SupportSet
from .duals import (DualBatch, DualSolution, solve_kl_dual, solve_kl_duals,
                    solve_transport_dual, solve_transport_duals)
from .errors import (
    EmptyExperiment,
    IncompleteTable,
    MissingPair,
    NonPositiveEta,
    PolicyContextMismatch,
    ValidationError,
)
from .transport import GridCost, GroundCost, grid_levels

METHODS = ("exact", "regularized", "kl")


@dataclass(frozen=True)
class Policy:
    """Action probabilities per context index, rows summing to one.

    Rows must sum to one within 1e-9, as in
    :func:`~drobandit.distributions.make_distribution`; a row off by more than
    rounding (1e-12), such as one read from JSON rounded to a few decimals,
    has its drift divided out. Other rows are kept bit for bit.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValidationError("policy probabilities must be a (contexts, actions) matrix")
        sums = p.sum(axis=1)
        drift = np.abs(sums - 1.0)
        if np.any(p < 0) or np.max(drift) > WEIGHT_SUM_ATOL:
            raise ValidationError("each policy row must be a probability vector")
        off = drift > 1e-12
        p[off] /= sums[off, None]
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n_contexts(self) -> int:
        return int(self.probs.shape[0])

    @property
    def n_actions(self) -> int:
        return int(self.probs.shape[1])

    @staticmethod
    def uniform(n_contexts: int, n_actions: int) -> "Policy":
        return Policy(np.full((n_contexts, n_actions), 1.0 / n_actions))


@dataclass(frozen=True)
class CostModel:
    """Known cost function y[x, a, xi] on a finite observation support."""

    xi_support: SupportSet
    y: np.ndarray
    y_max: float

    def __post_init__(self):
        arr = np.asarray(self.y, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)
        if arr.ndim != 3 or arr.shape[2] != len(self.xi_support):
            raise ValidationError(
                "cost model must have shape (contexts, actions, xi support size)"
            )
        if np.any(arr < 0) or np.any(arr > self.y_max + 1e-12):
            raise ValidationError(f"costs must lie in [0, {self.y_max}]")

    @staticmethod
    def identity(xi_support: SupportSet, n_contexts: int, n_actions: int,
                 y_max: float | None = None) -> "CostModel":
        """Cost equals the observed scalar itself, shared across all pairs."""
        if xi_support.dim != 1:
            raise ValidationError("identity costs need a scalar observation support")
        vals = xi_support.points[:, 0]
        if y_max is None:
            y_max = float(vals.max())
        y = np.broadcast_to(vals, (n_contexts, n_actions, len(vals))).copy()
        return CostModel(xi_support, y, y_max)


@dataclass(frozen=True)
class RobustCostTable:
    """Per-(context, action) robust expected costs. `method` and `epsilon_c`
    are labels that nothing here sets or reads; perfbench/scaling.py still
    passes them."""

    m_hat: np.ndarray
    method: str | None = None
    epsilon_c: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.m_hat, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "m_hat", arr)
        if arr.ndim != 2:
            raise IncompleteTable("table must be a (contexts, actions) matrix")
        if not np.all(np.isfinite(arr)):
            raise IncompleteTable("table has missing entries")

    @property
    def n_contexts(self) -> int:
        return int(self.m_hat.shape[0])

    @property
    def n_actions(self) -> int:
        return int(self.m_hat.shape[1])


def solve_shared_support(weights: np.ndarray, values: np.ndarray,
                         cost_matrix: np.ndarray | GridCost | None, epsilon: float,
                         method: str, eta: float | None = None,
                         tol: float | None = None) -> DualSolution | DualBatch:
    """Dispatch to the chosen dual solver; atoms and candidates coincide.
    1-d `weights` and `values` give a DualSolution, (P, n) arrays a DualBatch.
    The KL method ignores `cost_matrix`, which may then be None. The
    transport solvers check `eta`; here only its absence is refused for
    "regularized", where None would mean the exact dual."""
    batch = np.ndim(values) == 2
    if method == "regularized" and eta is None:
        raise NonPositiveEta("method 'regularized' needs a positive eta")
    if method in ("exact", "regularized"):
        solve = solve_transport_duals if batch else solve_transport_dual
        return solve(weights, values, cost_matrix, epsilon, tol,
                     eta=eta if method == "regularized" else None)
    if method == "kl":
        return (solve_kl_duals if batch else solve_kl_dual)(weights, values, epsilon, tol)
    raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")


def cost_kernel(points, method: str) -> str:
    """How the duals of `method` on `points` read the ground cost: "none" (the
    KL dual reads none), "grid" (per-axis, `points` a Cartesian grid, see
    :func:`~drobandit.transport.grid_levels`) or "dense" (the N x N matrix)."""
    if method == "kl":
        return "none"
    return "dense" if grid_levels(points) is None else "grid"


def _shared_costs(points, method: str) -> np.ndarray | GridCost | None:
    """Squared-Euclidean costs between all pairs of `points`, for the transport
    methods: a :class:`GridCost` of the per-axis levels when the points form a
    grid, else the N x N matrix. The KL dual reads no costs, so it gets None."""
    if method == "kl":
        return None
    levels = grid_levels(points)
    if levels is None:
        return GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    return GridCost(levels)


def robust_cost_table(dataset, cost_model: CostModel, epsilon_c: float,
                      method: str = "exact", eta: float | None = None,
                      tol: float | None = None,
                      impute_missing_ymax: bool = False) -> RobustCostTable:
    """Robust per-pair cost estimates from logged data.

    For every (context, action) pair the pair's observed xi samples become an
    empirical distribution over the full known observation support, and the
    chosen dual solver bounds the pair's expected cost over the
    radius-`epsilon_c` ball. The pairs are independent problems on one shared
    cost matrix, so all logged pairs go to the solver as a single batch.

    Pairs without any logged sample raise :class:`MissingPair` listing every
    offender, unless `impute_missing_ymax` opts into the conservative
    fallback that charges such pairs the maximum cost.
    """
    n_x, n_a = len(dataset.contexts), len(dataset.actions)
    if cost_model.y.shape[:2] != (n_x, n_a):
        raise ValidationError("cost model does not cover the dataset's context/action grid")
    n_xi = len(cost_model.xi_support)

    counts = np.zeros((n_x, n_a, n_xi), dtype=np.int64)
    np.add.at(counts, (dataset.context_idx, dataset.action_idx, dataset.xi_idx), 1)
    pair_totals = counts.sum(axis=2)
    missing = [(int(x), int(a)) for x, a in zip(*np.nonzero(pair_totals == 0))]
    if missing and not impute_missing_ymax:
        raise MissingPair(missing)

    m_hat = np.full((n_x, n_a), cost_model.y_max, dtype=np.float64)
    logged = pair_totals > 0
    m_hat[logged] = solve_shared_support(
        counts[logged] / pair_totals[logged][:, None], cost_model.y[logged],
        _shared_costs(cost_model.xi_support.points, method), epsilon_c, method, eta,
        tol).value
    return RobustCostTable(m_hat)


def policy_cost_per_context(policy: Policy, table: RobustCostTable) -> np.ndarray:
    """Mix the table through the policy: expected robust cost at each context."""
    if policy.probs.shape != table.m_hat.shape:
        raise PolicyContextMismatch(
            f"policy grid {policy.probs.shape} vs table grid {table.m_hat.shape}"
        )
    return np.einsum("xa,xa->x", policy.probs, table.m_hat)


def evaluate_policy(policy: Policy, table: RobustCostTable,
                    context_dist: DiscreteDistribution, epsilon_x: float,
                    method: str = "exact", eta: float | None = None,
                    tol: float | None = None) -> DualSolution:
    """Robust policy value: outer robust aggregation of the per-pair table.

    The per-context cost is computed for every point of the context support,
    including contexts never observed, because the inner maximization of the
    dual ranges over the whole known support.
    """
    if len(context_dist.support) != table.n_contexts:
        raise PolicyContextMismatch(
            f"context support size {len(context_dist.support)} vs table rows {table.n_contexts}"
        )
    per_context = policy_cost_per_context(policy, table)
    cmat = _shared_costs(context_dist.support.points, method)
    return solve_shared_support(
        context_dist.weights, per_context, cmat, epsilon_x, method, eta, tol
    )


@dataclass(frozen=True)
class RateResult:
    """Median estimation errors per sample size plus the log-log slope."""

    rows: tuple
    slope: float


def rate_experiment(config, n_grid, trials: int, seed: int, epsilon_x: float = 0.1,
                    epsilon_c: float = 0.1, tol: float | None = None) -> RateResult:
    """Monte-Carlo convergence check of the uniform policy's estimated value,
    both robust steps by the exact transport dual.

    The reference value is computed once by running both robust steps on the
    generator's true distributions; each trial then redraws a dataset of the
    given size from those same distributions and re-estimates. Reported per
    sample size is the median absolute error over the trials, plus the
    least-squares slope of log(median error) against log(n). Missing pairs in
    a drawn dataset (possible at tiny n) fall back to the conservative
    maximum-cost imputation rather than aborting the experiment.
    """
    from .data import sample_dataset  # local import to avoid a module cycle

    n_grid = [int(n) for n in n_grid]
    if trials <= 0 or not n_grid:
        raise EmptyExperiment("need at least one sample size and one trial")
    policy = Policy.uniform(len(config.context_dist.support), len(config.xi_dists[0]))
    true_table = true_robust_table(config, epsilon_c, tol)
    v_true = evaluate_policy(policy, true_table, config.context_dist, epsilon_x, tol=tol).value

    rng = np.random.default_rng(seed)
    rows = []
    errors_by_n = []
    for n in n_grid:
        errs = np.empty(trials)
        for t in range(trials):
            ds = sample_dataset(
                config.context_dist, config.xi_dists, config.behavior_policy,
                config.cost_model, n, rng,
            )
            table = robust_cost_table(ds, config.cost_model, epsilon_c, tol=tol,
                                      impute_missing_ymax=True)
            v_hat = evaluate_policy(policy, table, ds.empirical_context_distribution(),
                                    epsilon_x, tol=tol).value
            errs[t] = abs(v_hat - v_true)
        med = float(np.median(errs))
        rows.append((n, med))
        errors_by_n.append(med)
    slope = float(np.polyfit(np.log(np.asarray(n_grid, float)),
                             np.log(np.maximum(errors_by_n, 1e-300)), 1)[0])
    return RateResult(rows=tuple(rows), slope=slope)


def true_robust_table(config, epsilon_c: float, tol: float | None = None) -> RobustCostTable:
    """Robust cost table computed from a generator's true xi distributions, by
    the exact transport dual."""
    n_x, n_a = len(config.context_dist.support), len(config.xi_dists[0])
    dists = [dist for row in config.xi_dists for dist in row]
    if not all(dist.support.matches(config.cost_model.xi_support) for dist in dists):
        raise ValidationError("xi distributions must live on the cost model support")
    m_hat = solve_shared_support(
        np.array([dist.weights for dist in dists]), config.cost_model.y.reshape(n_x * n_a, -1),
        _shared_costs(config.cost_model.xi_support.points, "exact"), epsilon_c, "exact",
        tol=tol,
    ).value.reshape(n_x, n_a)
    return RobustCostTable(m_hat)
