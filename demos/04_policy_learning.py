"""Robust policy learning: exhaustive grid versus biased SGD.

On a two-context, two-action instance the learning objective is convex in the
clamp parameterization, so the grid search certifies the optimum and the
stochastic learner should land on it. The script prints the learned policy,
the duality trace of the dual variable, and the effect of the inner batch
size on gradient quality.
"""
import numpy as np

from drobandit import (
    BsgdConfig,
    Parameterization,
    PolicyParams,
    RobustCostTable,
    SupportSet,
    bsgd_learn,
    exact_opl,
    make_distribution,
    policy_probs,
    smoothed_gradients,
    smoothed_learning_objective,
)
from drobandit.transport import GroundCost

CLAMP = Parameterization.GROUP_PROB_CLAMP

support = SupportSet.from_scalars([0.0, 1.0])
context_dist = make_distribution(support, [0.5, 0.5])
# robust per-pair costs: context 0 prefers action 0, context 1 prefers action 1
table = RobustCostTable(np.array([[0.2, 0.8], [0.9, 0.3]]))
grouping = np.array([0, 1])  # one free probability per context
eta, eps_x = 5.0, 0.2

params_star, value_star = exact_opl(
    table, context_dist, grouping, CLAMP, eps_x, method="regularized", eta=eta,
    resolution=101,
)
print(f"grid optimum: value {value_star:.6f} at theta {params_star.theta}")

policy0 = PolicyParams(np.array([0.5, 0.5]), grouping, 2, CLAMP)
config = BsgdConfig(iterations=20_000, inner_batch=64, eta=eta, epsilon_x=eps_x, seed=7)
params, lam, trace = bsgd_learn(table, context_dist, support, config, policy0)
final = smoothed_learning_objective(params, lam, table, context_dist, eta, eps_x)
print(f"biased SGD : value {final:.6f} at theta {np.round(params.theta, 4)}, "
      f"lambda {lam:.4f}")
print(f"gap to grid optimum: {final - value_star:.2e}\n")

print("learned action probabilities:")
for ctx in (0, 1):
    print(f"  context {ctx}: {np.round(policy_probs(params, ctx), 4)}")

print("\ntrace of the dual variable (every 2500 iterations):")
for t in range(0, len(trace), 2500):
    print(f"  t {t:6d}: lambda {trace.lam[t]:.4f}  objective estimate {trace.objective[t]:.4f}")

# the gradients are biased for small inner batches; watch the error shrink
cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
probe = PolicyParams(np.array([0.6, 0.4]), grouping, 2, CLAMP)
_, full_theta, full_lam = smoothed_gradients(probe, 0.8, table, cmat[0],
                                             np.arange(2), eta, eps_x)
full = np.append(full_theta, full_lam)
rng = np.random.default_rng(1)
print("\nmedian gradient error vs inner batch size (5000 resamples each):")
for m in (2, 8, 32, 128):
    errs = [
        np.linalg.norm(
            np.append(*smoothed_gradients(probe, 0.8, table, cmat[0],
                                          rng.integers(0, 2, size=m), eta, eps_x)[1:])
            - full
        )
        for _ in range(5000)
    ]
    print(f"  m = {m:3d}: {np.median(errs):.5f}")
