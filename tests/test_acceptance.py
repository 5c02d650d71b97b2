"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none is deferred to calibration.
"""
import json
import math
import time

import numpy as np
import pytest

from drobandit import (
    BsgdConfig,
    Parameterization,
    PolicyParams,
    RobustCostTable,
    SupportSet,
    bsgd_learn,
    evaluate_policy,
    exact_opl,
    kl_divergence,
    lse,
    make_distribution,
    primal_oracle,
    rate_experiment,
    robust_cost_table,
    smoothed_gradients,
    smoothed_learning_objective,
    wasserstein_distance,
    wasserstein_dual_solve,
)
from drobandit.cli import main
from drobandit.compare import default_comparison_spec, run_comparison, value_deltas
from drobandit.data import canonical_rate_config
from drobandit.ope import Policy
from drobandit.opl import policy_costs_and_grads
from drobandit.transport import GroundCost

from instances import random_dual_instance
from test_ope import random_covered_dataset

CLAMP = Parameterization.GROUP_PROB_CLAMP
SOFTMAX = Parameterization.GROUP_SOFTMAX
EPS_GRID = (0.01, 0.1, 1.0, 10.0)


@pytest.fixture(scope="module")
def duality_batch():
    """200 random instances solved by both routes, with the solve time."""
    rng = np.random.default_rng(1234)
    records = []
    start = time.monotonic()
    for i in range(200):
        p0, f = random_dual_instance(rng, max_support=12)
        eps = EPS_GRID[i % len(EPS_GRID)]
        dual = wasserstein_dual_solve(p0, f, eps)
        primal = primal_oracle(p0, f, eps)
        records.append((p0, f, eps, dual, primal))
    return records, time.monotonic() - start


def test_criterion_01_strong_duality(duality_batch):
    records, elapsed = duality_batch
    worst = max(abs(dual.value - primal) for _, _, _, dual, primal in records)
    assert worst <= 1e-6
    assert elapsed <= 30.0
    print(f"ACCEPTANCE 01 strong-duality: PASS (max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_dual_bracket(duality_batch):
    records, _ = duality_batch
    # "exact" up to float64 accumulation in the two dot products
    tol = 1e-12
    for p0, f, eps, dual, _ in records:
        assert 0.0 <= dual.lambda_star <= f.f_max / eps + tol
        expected = float(p0.weights @ f.values)
        assert expected - tol <= dual.value <= f.f_max + tol
    print("ACCEPTANCE 02 dual-bracket: PASS (lambda and value brackets on 200 instances)")


def test_criterion_03_lse_sandwich():
    rng = np.random.default_rng(99)
    checks = 0
    for eta in (0.1, 1.0, 10.0, 100.0):
        for _ in range(2500):
            n = int(rng.integers(1, 65))
            values = rng.normal(size=n) * 5.0
            val = lse(values, eta)
            top = values.max()
            assert top - math.log(n) / eta - 1e-12 <= val <= top + 1e-12
            checks += 1
    print(f"ACCEPTANCE 03 lse-sandwich: PASS ({checks} random vectors)")


def test_criterion_04_smoothing_gap():
    rng = np.random.default_rng(4321)
    worst_margin = math.inf
    for _ in range(100):
        dataset, cost_model = random_covered_dataset(
            rng,
            n_contexts=int(rng.integers(2, 6)),
            n_actions=int(rng.integers(2, 4)),
            n_xi=int(rng.integers(2, 6)),
            extra=60,
        )
        policy = Policy.uniform(len(dataset.contexts), len(dataset.actions))
        context_dist = dataset.empirical_context_distribution()
        eps_x, eps_c = 0.25, 0.15
        exact_table = robust_cost_table(dataset, cost_model, eps_c, method="exact")
        v_exact = evaluate_policy(policy, exact_table, context_dist, eps_x).value
        for eta in (10.0, 100.0):
            smooth_table = robust_cost_table(
                dataset, cost_model, eps_c, method="regularized", eta=eta
            )
            v_smooth = evaluate_policy(
                policy, smooth_table, context_dist, eps_x, method="regularized", eta=eta
            ).value
            bound = (math.log(len(dataset.contexts)) + math.log(len(dataset.xi_support))) / eta
            gap = abs(v_exact - v_smooth)
            assert gap <= bound
            worst_margin = min(worst_margin, bound - gap)
    print(f"ACCEPTANCE 04 smoothing-gap: PASS (min slack to bound {worst_margin:.2e})")


def test_criterion_05_convergence_rate():
    config = canonical_rate_config(n_contexts=6, n_xi=5, n_actions=2, seed=100)
    start = time.monotonic()
    result = rate_experiment(
        config, [2**k for k in range(7, 15)], trials=200, seed=101,
        epsilon_x=0.1, epsilon_c=0.1,
    )
    elapsed = time.monotonic() - start
    assert -0.70 <= result.slope <= -0.30
    assert elapsed <= 300.0
    print(f"ACCEPTANCE 05 rate: PASS (slope {result.slope:.3f}, {elapsed:.1f}s)")


def test_criterion_06_gradient_fidelity():
    rng = np.random.default_rng(606)
    support = SupportSet.from_scalars(np.linspace(0.0, 1.0, 5))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    grouping = np.array([0, 0, 1, 1, 0])
    eta, eps_x, h = 8.0, 0.2, 1e-6
    worst = 0.0
    for trial in range(100):
        kind = CLAMP if trial % 2 == 0 else SOFTMAX
        table = RobustCostTable(rng.random((5, 2)))
        theta = (rng.random(2) * 0.8 + 0.1) if kind is CLAMP else rng.normal(size=2)
        lam = float(rng.random() * 2.0 + 0.05)
        params = PolicyParams(theta, grouping, 2, kind)
        x_idx = int(rng.integers(0, 5))
        _, theta_grad, lambda_grad = smoothed_gradients(
            params, lam, table, cmat[x_idx], np.arange(5), eta, eps_x
        )

        def objective(t, l):
            costs, _ = policy_costs_and_grads(PolicyParams(t, grouping, 2, kind), table)
            z = eta * (costs - l * cmat[x_idx])
            top = z.max()
            return eps_x * l + (top + math.log(np.mean(np.exp(z - top)))) / eta

        fd_theta = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd_theta[i] = (objective(up, lam) - objective(down, lam)) / (2 * h)
        fd_lambda = (objective(theta, lam + h) - objective(theta, lam - h)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(theta_grad))), abs(lambda_grad))
        rel = max(float(np.max(np.abs(fd_theta - theta_grad))), abs(fd_lambda - lambda_grad)) / scale
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(f"ACCEPTANCE 06 gradient-fidelity: PASS (worst relative error {worst:.2e})")


def _convex_fixture():
    support = SupportSet.from_scalars([0.0, 1.0])
    table = RobustCostTable(np.array([[0.2, 0.8], [0.9, 0.3]]))
    context_dist = make_distribution(support, [0.5, 0.5])
    policy0 = PolicyParams(np.array([0.5, 0.5]), np.array([0, 1]), 2, CLAMP)
    return support, table, context_dist, policy0


def test_criterion_07_bsgd_convergence_and_bias_decay():
    support, table, context_dist, policy0 = _convex_fixture()
    eta, eps_x = 5.0, 0.2
    config = BsgdConfig(iterations=20_000, inner_batch=64, eta=eta, epsilon_x=eps_x,
                        seed=7)
    params, lam, _ = bsgd_learn(table, context_dist, support, config, policy0)
    final = smoothed_learning_objective(params, lam, table, context_dist, eta, eps_x)
    _, grid_best = exact_opl(table, context_dist, np.array([0, 1]), CLAMP, eps_x,
                             method="regularized", eta=eta, resolution=101)
    gap = abs(final - grid_best)
    assert gap <= 1e-2

    # bias decay of the sampled gradient against the full enumeration
    rng = np.random.default_rng(77)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(support.points, support.points)
    probe = PolicyParams(np.array([0.6, 0.4]), np.array([0, 1]), 2, CLAMP)
    lam_probe, x_idx = 0.8, 0
    _, full_theta, full_lambda = smoothed_gradients(
        probe, lam_probe, table, cmat[x_idx], np.arange(2), eta, eps_x
    )
    full = np.append(full_theta, full_lambda)
    medians = []
    for m in (2, 8, 32, 128):
        errs = np.empty(10_000)
        for r in range(10_000):
            zeta = rng.integers(0, 2, size=m)
            _, tg, lg = smoothed_gradients(probe, lam_probe, table, cmat[x_idx],
                                           zeta, eta, eps_x)
            errs[r] = np.linalg.norm(np.append(tg, lg) - full)
        medians.append(float(np.median(errs)))
    assert all(a > b for a, b in zip(medians, medians[1:]))
    print(
        "ACCEPTANCE 07 bsgd: PASS "
        f"(gap to grid {gap:.2e}; bias medians {['%.3g' % m for m in medians]})"
    )


def test_criterion_08_outlier_comparison():
    spec = default_comparison_spec()
    rows = run_comparison(spec, [0.8, 1.0, 1.2], include_outlier=True)
    for row in rows:
        if row["scenario"] == "base" and row["multiplier"] >= 1.0:
            assert row["value"] >= row["expectation_under_q"] - 1e-9
    deltas = value_deltas(rows)
    assert deltas["kl"] >= 2.0 * deltas["wasserstein"] > 0.0
    ratio = deltas["kl"] / deltas["wasserstein"]
    print(f"ACCEPTANCE 08 outlier-analog: PASS (KL/W delta ratio {ratio:.1f}x)")


def test_criterion_09_disjoint_supports(tmp_path):
    support = SupportSet.from_scalars([50.0, 55.0, 60.0, 65.0])
    p = make_distribution(support, [0.5, 0.5, 0.0, 0.0])
    q = make_distribution(support, [0.5, 0.0, 0.5, 0.0])
    assert kl_divergence(q, p) == math.inf
    distance, _ = wasserstein_distance(p, q)
    assert math.isfinite(distance) and distance > 0

    data = tmp_path / "ctx.csv"
    data.write_text("x\n" + "\n".join(["50"] * 3 + ["55", "60", "65", "70", "90"]) + "\n")
    radii = []
    for seed in range(5):
        out = tmp_path / f"r{seed}.csv"
        assert main(["radius", "--data", str(data), "--seed", str(seed),
                     "--out", str(out)]) == 0
        with open(out) as handle:
            radii.append(float(handle.read().splitlines()[1].split(",")[1]))
    assert all(math.isfinite(r) for r in radii)
    print(f"ACCEPTANCE 09 disjoint-support: PASS (KL inf, W {distance:.1f}, radii finite)")


def test_criterion_10_manifest_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "context_points": [[0.0], [1.0], [2.0]],
        "context_weights": [0.4, 0.35, 0.25],
        "xi_points": [[0.0], [0.5], [1.0]],
        "xi_weights": [
            [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]],
            [[0.3, 0.4, 0.3], [0.4, 0.4, 0.2]],
            [[0.25, 0.5, 0.25], [0.2, 0.2, 0.6]],
        ],
        "behavior": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
        "n": 500,
        "seed": 77,
    }))
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    manifests = {}

    assert main(["synth", "--spec", str(spec), "--out-train", str(train),
                 "--out-test", str(test),
                 "--manifest-out", str(tmp_path / "synth.mf.json")]) == 0
    manifests[tmp_path / "synth.mf.json"] = [train, test]

    ope_out = tmp_path / "ope.csv"
    assert main(["ope", "--data", str(train), "--epsilon-x", "0.1",
                 "--epsilon-c", "0.1", "--seed", "3", "--out", str(ope_out)]) == 0
    manifests[tmp_path / "ope.csv.manifest.json"] = [ope_out]

    opl_out, trace_out = tmp_path / "opl.csv", tmp_path / "trace.csv"
    assert main(["opl", "--data", str(train), "--algo", "bsgd", "--iterations", "400",
                 "--batch", "16", "--eta", "5", "--epsilon-x", "0.1",
                 "--epsilon-c", "0.1", "--seed", "9", "--grouping", "single",
                 "--out", str(opl_out), "--trace-out", str(trace_out)]) == 0
    manifests[tmp_path / "opl.csv.manifest.json"] = [opl_out, trace_out]

    checked = 0
    for manifest, outputs in manifests.items():
        before = {p: p.read_bytes() for p in outputs}
        assert main(["rerun", str(manifest)]) == 0
        for p in outputs:
            assert p.read_bytes() == before[p]
            checked += 1
    print(f"ACCEPTANCE 10 determinism: PASS ({checked} output files byte-identical on rerun)")
