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
from .duals import smoothed_dual_value
from .errors import (
    DimensionTooLarge,
    IncompleteTable,
    InvalidConfig,
    UnknownContext,
    ValidationError,
)
from .ope import RobustCostTable, solve_shared_support
from .transport import GroundCost


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


def policy_matrix(params: PolicyParams) -> np.ndarray:
    """Action probabilities for every context, shape (n_contexts, n_actions)."""
    lead = params.theta_by_group[params.grouping]
    if params.parameterization is Parameterization.GROUP_PROB_CLAMP:
        lead = np.clip(lead, 0.0, 1.0)
        rest = np.clip(1.0 - lead.sum(axis=1, keepdims=True), 0.0, None)
        return np.hstack([lead, rest])
    z = np.hstack([lead, np.zeros((lead.shape[0], 1))])
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def policy_probs(params: PolicyParams, context_index: int) -> np.ndarray:
    """Action probabilities at one context."""
    if not 0 <= context_index < len(params.grouping):
        raise UnknownContext(f"context index {context_index} outside the grouping map")
    return policy_matrix(params)[context_index]


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
    entries outside a context's group are zero. Gradients are analytic:
    linear for the clamp parameterization, softmax-weighted advantages for
    the logit one.
    """
    _check_table(params, table)
    if context_indices is None:
        context_indices = np.arange(table.n_contexts)
    ctx = np.asarray(context_indices, dtype=np.int64)
    k = params.n_actions
    probs = policy_matrix(params)[ctx]
    m = table.m_hat[ctx]
    costs = np.einsum("ca,ca->c", probs, m)

    lead_grad = np.empty((len(ctx), k - 1))
    if params.parameterization is Parameterization.GROUP_PROB_CLAMP:
        lead_grad[:] = m[:, : k - 1] - m[:, k - 1 :]
    else:
        lead_grad[:] = probs[:, : k - 1] * (m[:, : k - 1] - costs[:, None])
    grads = np.zeros((len(ctx), params.theta.size))
    slots = params.grouping[ctx][:, None] * (k - 1) + np.arange(k - 1)[None, :]
    np.put_along_axis(grads, slots, lead_grad, axis=1)
    return costs, grads


def robust_policy_cost(params: PolicyParams, table: RobustCostTable,
                       context_index: int):
    """Expected robust cost of the policy at one context, with its gradient."""
    if not 0 <= context_index < len(params.grouping):
        raise UnknownContext(f"context index {context_index} outside the grouping map")
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


def project_params(params: PolicyParams) -> PolicyParams:
    """Project a parameter bundle back onto its feasible set."""
    theta = project_theta(params.theta, params.n_actions, params.parameterization)
    return PolicyParams(theta, params.grouping, params.n_actions,
                        params.parameterization)


# -- biased stochastic gradient descent ---------------------------------------

@dataclass(frozen=True)
class BsgdConfig:
    """Knobs of the biased-SGD loop.

    The step size is `gamma` when given, otherwise `gamma_scale / sqrt(T)`
    held constant over the run. `lambda_cap` defaults to y_max / epsilon_x,
    the bracket the dual variable provably lives in.
    """

    iterations: int
    inner_batch: int
    eta: float
    epsilon_x: float
    seed: int
    gamma: float | None = None
    gamma_scale: float = 0.5
    lambda0: float = 0.0
    theta0: np.ndarray | None = None
    lambda_cap: float | None = None

    def __post_init__(self):
        if self.iterations < 1 or self.inner_batch < 1:
            raise InvalidConfig("iterations and inner_batch must be at least 1")
        if not self.eta > 0:
            raise InvalidConfig("eta must be positive")
        if self.epsilon_x < 0:
            raise InvalidConfig("epsilon_x must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise InvalidConfig("gamma must be positive")
        if not self.gamma_scale > 0:
            raise InvalidConfig("gamma_scale must be positive")
        if self.lambda0 < 0:
            raise InvalidConfig("lambda0 must be non-negative")

    @property
    def step_size(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return self.gamma_scale / math.sqrt(self.iterations)


@dataclass(frozen=True)
class LearnTrace:
    """Per-iteration record of the SGD run (iterates before each update)."""

    theta: np.ndarray
    lam: np.ndarray
    context_index: np.ndarray
    objective: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)


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
    zeta = np.asarray(zeta_indices, dtype=np.int64)
    uniq, inverse = np.unique(zeta, return_inverse=True)
    costs_u, grads_u = policy_costs_and_grads(params, table, uniq)
    costs, grads = costs_u[inverse], grads_u[inverse]
    c = cost_row[zeta]
    z = eta * (costs - lam * c)
    top = float(z.max())
    w = np.exp(z - top)
    total = float(w.sum())
    theta_grad = (w @ grads) / total
    lambda_grad = epsilon_x - float(w @ c) / total
    objective = epsilon_x * lam + (top + math.log(total / len(zeta))) / eta
    return objective, theta_grad, lambda_grad


def bsgd_learn(table: RobustCostTable, context_dist: DiscreteDistribution,
               support: SupportSet, config: BsgdConfig, policy0: PolicyParams,
               ground_cost: GroundCost = GroundCost.SQUARED_EUCLIDEAN):
    """Learn a robust policy by biased SGD on the smoothed objective.

    Each iteration samples one context from the nominal context distribution,
    then `inner_batch` candidate contexts uniformly with replacement from the
    support (in that order, from a single generator seeded by the config, so
    runs are reproducible bit for bit). Theta follows the projected gradient
    step of its parameterization; the dual variable is clamped to
    [0, lambda_cap]. The final iterate is returned together with the full
    trace; no averaging is applied.

    Returns (final PolicyParams, final lambda, LearnTrace).
    """
    _check_table(policy0, table)
    if len(support) != table.n_contexts or len(context_dist.support) != table.n_contexts:
        raise InvalidConfig("support, context distribution and table must agree in size")
    theta0 = policy0.theta if config.theta0 is None else np.asarray(config.theta0, float)
    params = project_params(
        PolicyParams(theta0, policy0.grouping, policy0.n_actions, policy0.parameterization)
    )
    lam = float(config.lambda0)
    y_max = float(table.m_hat.max())
    cap = config.lambda_cap
    if cap is None:
        cap = y_max / config.epsilon_x if config.epsilon_x > 0 else math.inf

    cmat = ground_cost.pairwise(support.points, support.points)
    n = len(support)
    step = config.step_size
    rng = np.random.default_rng(config.seed)

    t_count = config.iterations
    trace_theta = np.empty((t_count, params.theta.size))
    trace_lam = np.empty(t_count)
    trace_ctx = np.empty(t_count, dtype=np.int64)
    trace_obj = np.empty(t_count)

    for t in range(t_count):
        x_idx = int(rng.choice(n, p=context_dist.weights))
        zeta = rng.integers(0, n, size=config.inner_batch)
        obj, theta_grad, lambda_grad = smoothed_gradients(
            params, lam, table, cmat[x_idx], zeta, config.eta, config.epsilon_x
        )
        trace_theta[t] = params.theta
        trace_lam[t] = lam
        trace_ctx[t] = x_idx
        trace_obj[t] = obj
        theta_next = project_theta(params.theta - step * theta_grad,
                                   params.n_actions, params.parameterization)
        params = PolicyParams(theta_next, params.grouping, params.n_actions,
                              params.parameterization)
        lam = float(np.clip(lam - step * lambda_grad, 0.0, cap))

    trace = LearnTrace(trace_theta, trace_lam, trace_ctx, trace_obj)
    return params, lam, trace


def smoothed_learning_objective(params: PolicyParams, lam: float,
                                table: RobustCostTable,
                                context_dist: DiscreteDistribution,
                                eta: float, epsilon_x: float,
                                ground_cost: GroundCost = GroundCost.SQUARED_EUCLIDEAN) -> float:
    """Full-enumeration smoothed objective at (theta, lambda)."""
    _check_table(params, table)
    costs, _ = policy_costs_and_grads(params, table)
    cmat = ground_cost.pairwise(context_dist.support.points, context_dist.support.points)
    return smoothed_dual_value(lam, context_dist.weights, costs, cmat, epsilon_x, eta)


# -- exact small-space search --------------------------------------------------

def exact_opl(table: RobustCostTable, context_dist: DiscreteDistribution,
              grouping, parameterization: Parameterization, epsilon_x: float,
              method: str = "exact", eta: float | None = None,
              resolution: int = 101, theta_box: tuple[float, float] | None = None,
              tol: float | None = None,
              ground_cost: GroundCost = GroundCost.SQUARED_EUCLIDEAN):
    """Grid-search the policy space and return the robust minimizer.

    Every grid point is scored with the same robust evaluation used by
    :func:`drobandit.ope.evaluate_policy`; ties keep the earliest grid point.
    Only parameter dimensions up to three are accepted -- the grid is a
    certification tool, not a scalable learner.

    Returns (best PolicyParams, best value).
    """
    grouping = np.asarray(grouping, dtype=np.int64)
    n_actions = table.n_actions
    n_groups = int(grouping.max()) + 1
    dim = n_groups * (n_actions - 1)
    if dim > 3:
        raise DimensionTooLarge(f"grid search supports up to 3 parameters, got {dim}")
    if resolution < 2:
        raise ValidationError("resolution must be at least 2")
    if theta_box is None:
        theta_box = (0.0, 1.0) if parameterization is Parameterization.GROUP_PROB_CLAMP \
            else (-5.0, 5.0)

    cmat = ground_cost.pairwise(context_dist.support.points, context_dist.support.points)
    axis = np.linspace(theta_box[0], theta_box[1], resolution)
    best_theta, best_value = None, math.inf
    for multi in np.ndindex(*([resolution] * dim)):
        theta = axis[list(multi)]
        if parameterization is Parameterization.GROUP_PROB_CLAMP and np.any(
            theta.reshape(n_groups, n_actions - 1).sum(axis=1) > 1 + 1e-12
        ):
            continue
        params = PolicyParams(theta, grouping, n_actions, parameterization)
        costs, _ = policy_costs_and_grads(params, table)
        value = solve_shared_support(
            context_dist.weights, costs, cmat, epsilon_x, method, eta, tol
        ).value
        if value < best_value:
            best_theta, best_value = theta, value
    if best_theta is None:
        raise ValidationError("no feasible grid point")
    return (
        PolicyParams(best_theta, grouping, n_actions, parameterization),
        float(best_value),
    )
