"""The scalar dual behind every robust expectation in this package.

The worst-case expectation of a bounded cost over a transport ball reduces to
a convex one-dimensional problem in the dual variable lambda. This script
plots (in ASCII) the dual objective, solves it exactly, certifies the value
against the primal linear program, then shows the entropy-smoothed dual and
the KL-ball dual on the same instance.
"""
import math

import numpy as np

from drobandit import (
    CostVector,
    SupportSet,
    dual_objective,
    kl_dual_solve,
    lse,
    make_distribution,
    primal_oracle,
    wasserstein_dual_solve,
)

support = SupportSet.from_scalars([0.0, 0.5, 1.0, 1.5, 2.0])
nominal = make_distribution(support, [0.35, 0.3, 0.2, 0.1, 0.05])
cost = CostVector(support, np.array([0.05, 0.2, 0.45, 0.7, 1.0]))
epsilon = 0.3

print(f"nominal expectation E[f] = {nominal.weights @ cost.values:.4f}")
print(f"maximum cost       f_max = {cost.f_max:.4f}")
print(f"radius           epsilon = {epsilon}\n")

# the dual objective is convex with a minimizer inside [0, f_max/epsilon]
print("lambda   objective")
for lam in np.linspace(0.0, cost.f_max / epsilon, 12):
    value = dual_objective(lam, nominal, cost, epsilon)
    bar = "#" * int(40 * (value - 0.3) / 0.8)
    print(f"{lam:6.3f}   {value:.4f} {bar}")

solution = wasserstein_dual_solve(nominal, cost, epsilon)
certificate = primal_oracle(nominal, cost, epsilon)
print(f"\nexact dual : value {solution.value:.6f} at lambda* {solution.lambda_star:.4f}"
      f" ({solution.iterations} evaluations on bracket {solution.bracket},"
      f" certified gap {solution.gap:.1e})")
print(f"primal LP  : value {certificate:.6f}  -> duality gap {abs(solution.value - certificate):.2e}")

# smoothing: log-sum-exp replaces the inner max; the error is at most log(n)/eta
print("\nsmoothed duals (uniform reference over the 5 candidate points):")
for eta in (2.0, 10.0, 100.0, 1000.0):
    smoothed = wasserstein_dual_solve(nominal, cost, epsilon, eta=eta)
    bound = math.log(len(support)) / eta
    print(f"  eta {eta:7.1f}: value {smoothed.value:.6f}"
          f"  |gap to exact| {abs(smoothed.value - solution.value):.2e} <= {bound:.2e}")

# the lse primitive itself honours the sandwich max - log(n)/eta <= lse <= max
values = [0.1, 0.4, 0.9]
print("\nlse sandwich on", values)
for eta in (1.0, 10.0, 100.0):
    print(f"  eta {eta:6.1f}: {lse(values, eta):.6f}  (max 0.9, slack bound {math.log(3)/eta:.4f})")

# the KL-ball dual on the same instance; the same number means a different
# thing as a KL radius than as a transport radius, so the values are not
# directly comparable -- see demo 05 for a calibrated comparison
kl_solution = kl_dual_solve(nominal, cost, epsilon)
print(f"\nKL-ball dual: value {kl_solution.value:.6f} at lambda* {kl_solution.lambda_star:.4f}"
      f" (bracket {kl_solution.bracket[0]:.2e}..{kl_solution.bracket[1]:.2e})")
print(f"  transport-ball value at the same raw radius: {solution.value:.4f}")
