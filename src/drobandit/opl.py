"""Distributionally robust policy learning.

Two routes to the robust-optimal policy over a parameterized class: an exact
grid search for parameter dimensions up to three (the desk-scale
certification path), and a biased stochastic gradient descent on the
entropy-smoothed objective whose per-iteration cost is independent of the
context support size. The SGD gradients are biased because the smoothed
objective applies a logarithm to an inner expectation that is itself
estimated from a small uniform sample; the bias shrinks as the inner batch
grows.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, SupportSet
from .duals import _BLOCK_CELLS, check_transport_arguments, transport_objective
from .errors import (
    DimensionTooLarge,
    IncompleteTable,
    InvalidConfig,
    UnknownContext,
    ValidationError,
)
from .ope import RobustCostTable, _shared_costs, solve_shared_support
from .transport import GridCost, GroundCost, grid_levels


class Parameterization(enum.Enum):
    """How a parameter vector maps to action probabilities.

    GROUP_PROB_CLAMP stores, per context group, the probabilities of the
    first n_actions - 1 actions directly (the last action receives the
    remainder); its projection is the clamp onto the feasible box. With
    a linear cost table this keeps the learning objective convex.
    GROUP_SOFTMAX stores unconstrained logits (last action pinned at zero),
    which covers the smooth non-convex regime; no projection is needed.
    """

    GROUP_PROB_CLAMP = "group_prob_clamp"
    GROUP_SOFTMAX = "group_softmax"


@dataclass(frozen=True)
class PolicyParams:
    """Parameter vector plus the context-group map that defines pi_theta."""

    theta: np.ndarray
    grouping: np.ndarray
    n_actions: int
    parameterization: Parameterization

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        theta.setflags(write=False)
        grouping = np.asarray(self.grouping, dtype=np.int64)
        grouping.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "grouping", grouping)
        if self.n_actions < 2:
            raise ValidationError("need at least two actions")
        if grouping.ndim != 1 or np.any(grouping < 0):
            raise ValidationError("grouping must map context index -> group index")
        dim = self.n_groups * (self.n_actions - 1)
        if theta.shape != (dim,):
            raise ValidationError(
                f"theta must have {dim} entries ({self.n_groups} groups x "
                f"{self.n_actions - 1}), got {theta.shape}"
            )
        if self.parameterization is Parameterization.GROUP_PROB_CLAMP:
            mat = self.theta_by_group
            if np.any(mat < -1e-12) or np.any(mat > 1 + 1e-12) or np.any(
                mat.sum(axis=1) > 1 + 1e-12
            ):
                raise ValidationError("clamp parameters must satisfy 0 <= theta, sum <= 1")

    @property
    def n_groups(self) -> int:
        return int(self.grouping.max()) + 1 if self.grouping.size else 0

    @property
    def theta_by_group(self) -> np.ndarray:
        return self.theta.reshape(self.n_groups, self.n_actions - 1)


def _slots(groups: np.ndarray, n_actions: int) -> np.ndarray:
    """Theta indices of each row's leading parameters, shape (rows, n_actions - 1)."""
    return groups[:, None] * (n_actions - 1) + np.arange(n_actions - 1)


def _row_probs(lead: np.ndarray, parameterization: Parameterization) -> np.ndarray:
    """Action probabilities of rows with leading parameters `lead`, (..., k - 1) -> (..., k)."""
    if parameterization is Parameterization.GROUP_PROB_CLAMP:
        lead = np.clip(lead, 0.0, 1.0)
        rest = np.clip(1.0 - lead.sum(axis=-1, keepdims=True), 0.0, None)
        return np.concatenate([lead, rest], axis=-1)
    z = np.concatenate([lead, np.zeros(lead.shape[:-1] + (1,))], axis=-1)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _policy_costs(thetas: np.ndarray, slots: np.ndarray, m: np.ndarray,
                  parameterization: Parameterization) -> np.ndarray:
    """Expected robust cost at each context of `slots` (see :func:`_slots`) with
    robust costs `m`, for one theta (dim,) -> (rows,) or a batch (P, dim) -> (P, rows).
    Equal bit for bit to the costs of :func:`_policy_rows`."""
    return np.einsum("...ca,ca->...c", _row_probs(thetas[..., slots], parameterization), m)


def _policy_rows(theta: np.ndarray, slots: np.ndarray, m: np.ndarray,
                 parameterization: Parameterization):
    """Expected robust cost of the policy at a set of contexts, with its gradient.

    `slots` are the contexts' theta indices (see :func:`_slots`) and `m` their
    (rows, n_actions) robust costs. Returns (costs, grads), grads of shape
    (rows, dim(theta)) and zero outside each context's group: linear for the
    clamp parameterization, softmax-weighted advantages for the logit one.
    Every row is computed on its own, so any subset of contexts gives the same
    bits as the full set.
    """
    k = m.shape[1]
    probs = _row_probs(theta[slots], parameterization)
    costs = np.einsum("ca,ca->c", probs, m)
    if parameterization is Parameterization.GROUP_PROB_CLAMP:
        lead_grad = m[:, : k - 1] - m[:, k - 1 :]
    else:
        lead_grad = probs[:, : k - 1] * (m[:, : k - 1] - costs[:, None])
    grads = np.zeros((len(m), theta.size))
    np.put_along_axis(grads, slots, lead_grad, axis=1)
    return costs, grads


def _check_context(params: PolicyParams, context_index: int):
    if not 0 <= context_index < len(params.grouping):
        raise UnknownContext(f"context index {context_index} outside the grouping map")


def policy_probs(params: PolicyParams, context_index: int) -> np.ndarray:
    """Action probabilities at one context."""
    _check_context(params, context_index)
    groups = params.grouping[context_index : context_index + 1]
    lead = params.theta[_slots(groups, params.n_actions)]
    return _row_probs(lead, params.parameterization)[0]


def _check_table(params: PolicyParams, table: RobustCostTable):
    if table.n_contexts != len(params.grouping) or table.n_actions != params.n_actions:
        raise IncompleteTable(
            f"table grid {table.m_hat.shape} does not match the policy "
            f"({len(params.grouping)} contexts x {params.n_actions} actions)"
        )


def policy_costs_and_grads(params: PolicyParams, table: RobustCostTable,
                           context_indices: np.ndarray | None = None):
    """Per-context expected robust cost and its gradient in theta.

    Returns (costs, grads) with grads of shape (len(contexts), dim(theta));
    entries outside a context's group are zero. Only the requested contexts
    are computed.
    """
    _check_table(params, table)
    if context_indices is None:
        groups, m = params.grouping, table.m_hat
    else:
        ctx = np.asarray(context_indices, dtype=np.int64)
        groups, m = params.grouping[ctx], table.m_hat[ctx]
    return _policy_rows(params.theta, _slots(groups, params.n_actions), m,
                        params.parameterization)


def robust_policy_cost(params: PolicyParams, table: RobustCostTable,
                       context_index: int):
    """Expected robust cost of the policy at one context, with its gradient."""
    _check_context(params, context_index)
    costs, grads = policy_costs_and_grads(params, table, np.array([context_index]))
    return float(costs[0]), grads[0]


def project_theta(theta: np.ndarray, n_actions: int,
                  parameterization: Parameterization) -> np.ndarray:
    """Project a raw parameter vector onto the feasible set.

    Clamp parameters are clipped to [0, 1] per entry; groups whose leading
    probabilities then exceed total mass one are rescaled onto the simplex
    face (a no-op for two actions, where the box is the feasible set).
    Softmax logits are unconstrained.
    """
    if parameterization is Parameterization.GROUP_SOFTMAX:
        return np.asarray(theta, dtype=np.float64)
    mat = np.clip(np.asarray(theta, dtype=np.float64).reshape(-1, n_actions - 1), 0.0, 1.0)
    over = mat.sum(axis=1) > 1.0
    if np.any(over):
        mat[over] /= mat[over].sum(axis=1, keepdims=True)
    return mat.ravel()


# -- biased stochastic gradient descent ---------------------------------------

@dataclass(frozen=True)
class BsgdConfig:
    """Knobs of the biased-SGD loop.

    The step size is `gamma` when given, otherwise 0.5 / sqrt(T), held
    constant over the run either way.
    """

    iterations: int
    inner_batch: int
    eta: float
    epsilon_x: float
    seed: int
    gamma: float | None = None
    lambda0: float = 0.0

    def __post_init__(self):
        if self.iterations < 1 or self.inner_batch < 1:
            raise InvalidConfig("iterations and inner_batch must be at least 1")
        if not self.eta > 0:
            raise InvalidConfig("eta must be positive")
        if self.epsilon_x < 0:
            raise InvalidConfig("epsilon_x must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise InvalidConfig("gamma must be positive")
        if self.lambda0 < 0:
            raise InvalidConfig("lambda0 must be non-negative")

    @property
    def step_size(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return 0.5 / math.sqrt(self.iterations)


@dataclass(frozen=True)
class LearnTrace:
    """Per-iteration record of the SGD run (iterates before each update)."""

    theta: np.ndarray
    lam: np.ndarray
    context_index: np.ndarray
    objective: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)


def _smoothed_step(theta: np.ndarray, slots: np.ndarray, m: np.ndarray, c: np.ndarray,
                   lam: float, eta: float, epsilon_x: float,
                   parameterization: Parameterization):
    # one SGD estimate from the sampled candidates' theta slots, robust costs
    # m and ground costs c(x, zeta)
    costs, grads = _policy_rows(theta, slots, m, parameterization)
    z = eta * (costs - lam * c)
    top = float(z.max())
    w = np.exp(z - top)
    total = float(w.sum())
    theta_grad = (w @ grads) / total
    lambda_grad = epsilon_x - float(w @ c) / total
    objective = epsilon_x * lam + (top + math.log(total / len(c))) / eta
    return objective, theta_grad, lambda_grad


def smoothed_gradients(params: PolicyParams, lam: float, table: RobustCostTable,
                       cost_row: np.ndarray, zeta_indices: np.ndarray,
                       eta: float, epsilon_x: float):
    """Biased gradient estimates of the smoothed robust objective.

    `cost_row[j]` is the ground cost from the sampled context to candidate
    context j, and `zeta_indices` are the uniformly sampled candidates; with
    every index present exactly once this is the full-enumeration gradient of
    the smoothed objective at (theta, lam) for that sampled context. The
    exponential weights are evaluated max-shifted.

    Returns (objective estimate, theta gradient, lambda gradient).
    """
    _check_table(params, table)
    zeta = np.asarray(zeta_indices, dtype=np.int64)
    slots = _slots(params.grouping[zeta], params.n_actions)
    return _smoothed_step(params.theta, slots, table.m_hat[zeta], cost_row[zeta], lam,
                          eta, epsilon_x, params.parameterization)


def bsgd_learn(table: RobustCostTable, context_dist: DiscreteDistribution,
               support: SupportSet, config: BsgdConfig, policy0: PolicyParams):
    """Learn a robust policy by biased SGD on the smoothed objective.

    Each iteration samples one context from the nominal context distribution,
    then `inner_batch` candidate contexts uniformly with replacement from the
    support (in that order, from a single generator seeded by the config, so
    runs are reproducible bit for bit). Theta follows the projected gradient
    step of its parameterization; the dual variable is clamped to
    [0, y_max / epsilon_x]. That cap bounds the minimizer of the exact dual
    only: the smoothed dual this loop descends can have its minimizer up to
    (y_max + log(N)/eta) / epsilon_x over N contexts (the bracket of
    :func:`~drobandit.duals.solve_transport_duals`), so the cap may clamp
    lambda below it. The final iterate is returned together with the full
    trace; no averaging is applied.

    An iteration costs O(inner_batch * (dim(support) + dim(theta))) whatever
    the support size: the context is drawn from a CDF built once, and policy
    rows and ground costs are computed for the sampled contexts only. No
    support x support cost matrix is formed; setup is O(|support|).

    Returns (final PolicyParams, final lambda, LearnTrace).
    """
    _check_table(policy0, table)
    if len(support) != table.n_contexts or len(context_dist.support) != table.n_contexts:
        raise InvalidConfig("support, context distribution and table must agree in size")
    k, kind = policy0.n_actions, policy0.parameterization
    theta = project_theta(policy0.theta, k, kind)
    lam = float(config.lambda0)
    y_max = float(table.m_hat.max())
    cap = y_max / config.epsilon_x if config.epsilon_x > 0 else math.inf

    points = support.points
    n = len(support)
    step = config.step_size
    rng = np.random.default_rng(config.seed)
    # the draw Generator.choice(n, p=weights) makes, with its CDF built once:
    # same random stream, same contexts
    cdf = np.cumsum(context_dist.weights)
    cdf /= cdf[-1]
    slot_map = _slots(policy0.grouping, k)

    t_count = config.iterations
    trace_theta = np.empty((t_count, theta.size))
    trace_lam = np.empty(t_count)
    trace_ctx = np.empty(t_count, dtype=np.int64)
    trace_obj = np.empty(t_count)

    for t in range(t_count):
        x_idx = int(cdf.searchsorted(rng.random(), side="right"))
        zeta = rng.integers(0, n, size=config.inner_batch)
        c = GroundCost.SQUARED_EUCLIDEAN.block(points[x_idx : x_idx + 1], points[zeta])[0]
        obj, theta_grad, lambda_grad = _smoothed_step(
            theta, slot_map[zeta], table.m_hat[zeta], c, lam, config.eta, config.epsilon_x,
            kind)
        trace_theta[t] = theta
        trace_lam[t] = lam
        trace_ctx[t] = x_idx
        trace_obj[t] = obj
        theta = project_theta(theta - step * theta_grad, k, kind)
        lam = min(max(lam - step * lambda_grad, 0.0), cap)

    params = PolicyParams(theta, policy0.grouping, k, kind)
    trace = LearnTrace(trace_theta, trace_lam, trace_ctx, trace_obj)
    return params, lam, trace


def smoothed_learning_objective(params: PolicyParams, lam: float,
                                table: RobustCostTable,
                                context_dist: DiscreteDistribution,
                                eta: float, epsilon_x: float) -> float:
    """Full-enumeration smoothed objective at (theta, lambda).

    One :func:`~drobandit.duals.transport_objective` call on a
    Cartesian-grid support (:func:`~drobandit.transport.grid_levels`), whose
    log-sum-exps run axis by axis. Otherwise one call per row block of the
    cost matrix, of at most `duals._BLOCK_CELLS` entries, so no support x
    support matrix is held at once. Contexts of zero weight are not
    evaluated. The arguments are checked by
    :func:`~drobandit.duals.check_transport_arguments`.
    """
    check_transport_arguments(epsilon_x, eta, lam)
    _check_table(params, table)
    costs = _policy_costs(params.theta, _slots(params.grouping, params.n_actions),
                          table.m_hat, params.parameterization)
    points, weights = context_dist.support.points, context_dist.weights
    levels = grid_levels(points)
    if levels is not None:
        return transport_objective(lam, weights, costs, GridCost(levels), epsilon_x, eta)
    live = np.flatnonzero(weights > 0)
    rows = max(1, _BLOCK_CELLS // len(points))
    # each block's costs are built as the transpose of a (support x block)
    # matrix, the (candidates, atoms) layout the kernel reads without a copy
    return epsilon_x * lam + sum(
        transport_objective(lam, weights[block], costs,
                            GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points[block]).T,
                            0.0, eta)
        for block in (live[i : i + rows] for i in range(0, len(live), rows)))


# -- exact small-space search --------------------------------------------------

def exact_opl(table: RobustCostTable, context_dist: DiscreteDistribution,
              grouping, parameterization: Parameterization, epsilon_x: float,
              method: str = "exact", eta: float | None = None,
              resolution: int = 101, tol: float | None = None):
    """Grid-search the policy space and return the robust minimizer.

    Every axis has `resolution` points on [0, 1] for the clamp
    parameterization (points whose group probabilities sum above one are
    dropped) and on [-5, 5] for logits. Every grid point is scored with the
    same robust evaluation used by :func:`drobandit.ope.evaluate_policy`, in
    chunks of max(1, `duals._BLOCK_CELLS` // N) points over N contexts, so no
    chunk's (points x N) costs exceed that many cells. Each chunk makes one
    batched dual call on the shared costs, which blocks its problems itself.
    Ties keep the earliest grid point in `np.ndindex` order. Only parameter
    dimensions up to three are accepted -- the grid is a certification tool,
    not a scalable learner.

    Returns (best PolicyParams, best value).
    """
    grouping = np.asarray(grouping, dtype=np.int64)
    n_actions = table.n_actions
    dim = (int(grouping.max()) + 1) * (n_actions - 1)
    if dim > 3:
        raise DimensionTooLarge(f"grid search supports up to 3 parameters, got {dim}")
    if resolution < 2:
        raise ValidationError("resolution must be at least 2")
    clamp = parameterization is Parameterization.GROUP_PROB_CLAMP
    axis = np.linspace(*((0.0, 1.0) if clamp else (-5.0, 5.0)), resolution)
    thetas = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    if clamp:
        sums = thetas.reshape(len(thetas), -1, n_actions - 1).sum(axis=2)
        thetas = thetas[~np.any(sums > 1 + 1e-12, axis=1)]
    # the all-lowest grid point is feasible: validate grouping and table once
    _check_table(PolicyParams(thetas[0], grouping, n_actions, parameterization), table)

    slots = _slots(grouping, n_actions)
    cmat = _shared_costs(context_dist.support.points, method)
    step = max(1, _BLOCK_CELLS // len(context_dist.support))
    values = []
    for start in range(0, len(thetas), step):
        costs = _policy_costs(thetas[start : start + step], slots, table.m_hat,
                              parameterization)
        weights = np.broadcast_to(context_dist.weights, costs.shape)
        values.append(solve_shared_support(weights, costs, cmat, epsilon_x, method, eta,
                                           tol).value)
    values = np.concatenate(values)
    best = int(np.argmin(values))
    return (
        PolicyParams(thetas[best], grouping, n_actions, parameterization),
        float(values[best]),
    )
