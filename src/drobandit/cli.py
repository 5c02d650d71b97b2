"""Command-line surface: every pipeline as a reproducible, CSV-emitting run.

Subcommands: distance, radius, ope, opl, compare, rate, synth, rerun. Every
run that writes files also writes a JSON manifest capturing the exact argv,
seed, tool version and input digests; `drobandit rerun MANIFEST` replays the
recorded argv and reproduces the output files byte for byte. Timing lives in
the manifest and on stdout, never inside output CSVs; so do the diagnostics
`ope` records (the outer solve's evaluations, lambda*, bracket and certified
gap, the minimum pair frequency, the number of imputed pairs, the context
support size and which cost kernel the outer dual used: "grid", "dense" or
"none").

Exit codes: 0 success, 2 I/O or file-format problems, 3 validation problems,
4 numerical failures.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, errors
from .compare import (
    ComparisonSpec,
    default_comparison_spec,
    run_comparison,
    value_deltas,
)
from .data import (
    CsvColumns,
    canonical_rate_config,
    finite_float,
    load_canonical,
    load_dataset,
    save_dataset,
    synth_generate,
    synthetic_config_from_json,
    write_columns,
)
from .distributions import (
    DiscreteDistribution,
    SupportSet,
    kl_divergence,
    make_distribution,
    unique_rows,
)
from .ope import (CostModel, Policy, cost_kernel, evaluate_policy, rate_experiment,
                  robust_cost_table)
from .opl import (
    BsgdConfig,
    Parameterization,
    PolicyParams,
    bsgd_learn,
    exact_opl,
    smoothed_learning_objective,
)
from .transport import split_radius_estimate, wasserstein_distance


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args, argv, inputs, outputs, wall_clock_s, diagnostics=None) -> None:
    path = args.manifest_out
    if path is None and args.out:
        path = f"{args.out}.manifest.json"
    if path is None:
        return
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_clock_s": wall_clock_s,
        "options": {
            k: v for k, v in sorted(vars(args).items())
            if k != "command" and isinstance(v, (str, int, float, bool, type(None)))
        },
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_distribution_csv(path) -> DiscreteDistribution:
    """Distribution file: coordinate columns plus a `weight` column."""
    table = CsvColumns(path)
    if "weight" not in table.header or len(table.header) < 2:
        raise errors.SchemaMismatch(f"{path} needs a header with coordinate columns and 'weight'")
    columns = [c for c in table.header if c != "weight"] + ["weight"]
    values = np.column_stack(table.expand([(c, finite_float) for c in columns]))
    return make_distribution(SupportSet(values[:, :-1]), values[:, -1], pre_normalize=True)


def _load_bandit_data(args, support):
    inputs = [args.data]
    if args.config:
        with open(args.config) as handle:
            schema = json.load(handle)
        inputs.append(args.config)
        dataset = load_dataset(args.data, schema, support=support)
    else:
        dataset = load_canonical(args.data)
        inputs.append(f"{args.data}.meta.json")
    return dataset, inputs


def _load_policy(spec: str, n_contexts: int, n_actions: int):
    if spec == "uniform":
        return Policy.uniform(n_contexts, n_actions), []
    with open(spec) as handle:
        obj = json.load(handle)
    return Policy(np.asarray(obj["probs"], dtype=np.float64)), [spec]


def _union_support(p: DiscreteDistribution, q: DiscreteDistribution):
    """Re-express both distributions on the union of their supports."""
    points, inverse = unique_rows(np.vstack([p.support.points, q.support.points]))
    union = SupportSet(points)
    return tuple(DiscreteDistribution(union, np.bincount(codes, d.weights, minlength=len(union)))
                 for d, codes in ((p, inverse[: len(p.support)]), (q, inverse[len(p.support):])))


# -- subcommand handlers --------------------------------------------------------

def cmd_distance(args, argv) -> int:
    start = time.monotonic()
    p = _load_distribution_csv(args.p)
    q = _load_distribution_csv(args.q)
    distance, plan = wasserstein_distance(p, q)
    row = [distance]
    header = ["wasserstein"]
    if args.kl:
        p_u, q_u = _union_support(p, q)
        header.append("kl")
        row.append(kl_divergence(q_u, p_u))
    print(" ".join(f"{h}={_fmt(v)}" for h, v in zip(header, row)))
    outputs = []
    if args.out:
        _write_csv(args.out, header, [row])
        outputs.append(args.out)
    if args.plan_out:
        entries = [(i, j, plan.matrix[i, j]) for i, j in np.argwhere(plan.matrix > 0)]
        _write_csv(args.plan_out, ["source_index", "target_index", "mass"], entries)
        outputs.append(args.plan_out)
    _write_manifest(args, argv, [args.p, args.q], outputs, time.monotonic() - start)
    return 0


def cmd_radius(args, argv) -> int:
    start = time.monotonic()
    if args.config:
        # the records' binned contexts, the same on either support
        dataset, inputs = _load_bandit_data(args, "observed")
        contexts = dataset.contexts.points[dataset.context_idx]
    else:
        inputs = [args.data]
        table = CsvColumns(args.data)
        contexts = np.column_stack(table.expand([(c, finite_float) for c in table.header]))
    radius = split_radius_estimate(contexts, seed=args.seed)
    print(f"radius={_fmt(radius)}")
    outputs = []
    if args.out:
        _write_csv(args.out, ["seed", "radius"], [[args.seed, radius]])
        outputs.append(args.out)
    _write_manifest(args, argv, inputs, outputs, time.monotonic() - start)
    return 0


def _robust_table(args, dataset):
    """The run's effective method and radii, and its per-pair robust cost table."""
    method, eps_x, eps_c = (("exact", 0.0, 0.0) if args.method == "plugin"
                            else (args.method, args.epsilon_x, args.epsilon_c))
    cost_model = CostModel.identity(
        dataset.xi_support, len(dataset.contexts), len(dataset.actions), dataset.y_max
    )
    table = robust_cost_table(
        dataset, cost_model, eps_c, method=method, eta=args.eta, tol=args.tol,
        impute_missing_ymax=args.impute_missing_ymax,
    )
    return method, eps_x, eps_c, table


def cmd_ope(args, argv) -> int:
    start = time.monotonic()
    dataset, inputs = _load_bandit_data(args, args.support)
    policy, extra = _load_policy(args.policy, len(dataset.contexts), len(dataset.actions))
    inputs.extend(extra)
    method, eps_x, eps_c, table = _robust_table(args, dataset)
    context_dist = dataset.empirical_context_distribution()
    solution = evaluate_policy(
        policy, table, context_dist, eps_x, method=method, eta=args.eta, tol=args.tol
    )
    wall = time.monotonic() - start
    print(
        f"method={args.method} epsilon_x={_fmt(eps_x)} epsilon_c={_fmt(eps_c)} "
        f"value={_fmt(solution.value)} lambda_star={_fmt(solution.lambda_star)} "
        f"runtime_s={wall:.3f}"
    )
    outputs = []
    if args.out:
        _write_csv(
            args.out,
            ["method", "epsilon_x", "epsilon_c", "eta", "value", "lambda_star"],
            [[args.method, eps_x, eps_c, args.eta if args.method == "regularized" else "",
              solution.value, solution.lambda_star]],
        )
        outputs.append(args.out)
    if args.table_out:
        x, a = np.indices(table.m_hat.shape).reshape(2, -1).tolist()
        write_columns(args.table_out, ["context_index", "action_index", "m_hat"],
                      [map(str, x), map(str, a), map(repr, table.m_hat.ravel().tolist())])
        outputs.append(args.table_out)
    coverage = dataset.diagnostics
    diagnostics = {
        "outer_solve": {"iterations": solution.iterations, "lambda_star": solution.lambda_star,
                        "bracket": list(solution.bracket), "gap": solution.gap},
        "min_pair_frequency": coverage.min_pair_frequency,
        "imputed_pairs": table.m_hat.size - len(coverage.pair_counts),
        "support_size": len(context_dist.support),
        "cost_kernel": cost_kernel(context_dist.support.points, method),
    }
    _write_manifest(args, argv, inputs, outputs, wall, diagnostics)
    return 0


def _parse_grouping(spec: str, n_contexts: int):
    if spec == "identity":
        return np.arange(n_contexts), []
    if spec == "single":
        return np.zeros(n_contexts, dtype=np.int64), []
    with open(spec) as handle:
        return np.asarray(json.load(handle), dtype=np.int64), [spec]


def cmd_opl(args, argv) -> int:
    start = time.monotonic()
    dataset, inputs = _load_bandit_data(args, args.support)
    method, eps_x, eps_c, table = _robust_table(args, dataset)
    context_dist = dataset.empirical_context_distribution()
    grouping, extra = _parse_grouping(args.grouping, len(dataset.contexts))
    inputs.extend(extra)
    parameterization = (
        Parameterization.GROUP_PROB_CLAMP if args.parameterization == "clamp"
        else Parameterization.GROUP_SOFTMAX
    )
    n_actions = len(dataset.actions)
    dim = (int(grouping.max()) + 1) * (n_actions - 1)

    outputs = []
    eta_used = args.eta if args.method == "regularized" else ""  # the summary's eta
    if args.algo == "grid":
        params, value = exact_opl(
            table, context_dist, grouping, parameterization, eps_x,
            method=method, eta=args.eta, resolution=args.resolution, tol=args.tol,
        )
        lam = float("nan")
    else:
        eta = eta_used = args.eta if args.eta is not None else 10.0
        config = BsgdConfig(
            iterations=args.iterations, inner_batch=args.batch, eta=eta,
            epsilon_x=eps_x, seed=args.seed, gamma=args.gamma,
        )
        if args.theta0:
            start_theta = np.asarray([float(v) for v in args.theta0.split(",")], dtype=np.float64)
        else:
            start_theta = np.full(dim, 0.5 if parameterization is Parameterization.GROUP_PROB_CLAMP
                                  else 0.0)
        policy0 = PolicyParams(start_theta, grouping, n_actions, parameterization)
        params, lam, trace = bsgd_learn(table, context_dist, dataset.contexts, config, policy0)
        value = smoothed_learning_objective(params, lam, table, context_dist, eta, eps_x)
        if args.trace_out:
            rows = [
                [t, *trace.theta[t], trace.lam[t], trace.context_index[t], trace.objective[t]]
                for t in range(len(trace))
            ]
            head = (["t"] + [f"theta_{i}" for i in range(dim)]
                    + ["lambda", "context_index", "objective"])
            _write_csv(args.trace_out, head, rows)
            outputs.append(args.trace_out)

    wall = time.monotonic() - start
    theta_list = ",".join(_fmt(v) for v in params.theta)
    print(f"algo={args.algo} value={_fmt(value)} theta=[{theta_list}] runtime_s={wall:.3f}")
    if args.out:
        header = (["algo", "method", "epsilon_x", "epsilon_c", "eta", "value", "lambda"]
                  + [f"theta_{i}" for i in range(dim)])
        row = [args.algo, args.method, eps_x, eps_c, eta_used, value, lam, *params.theta]
        _write_csv(args.out, header, [row])
        outputs.append(args.out)
    _write_manifest(args, argv, inputs, outputs, wall)
    return 0


def _comparison_spec_from_json(path) -> ComparisonSpec:
    with open(path) as handle:
        obj = json.load(handle)
    support = SupportSet(np.asarray(obj["support_points"], dtype=np.float64))
    return ComparisonSpec(
        support=support,
        values=np.asarray(obj["values"], dtype=np.float64),
        p_hat=DiscreteDistribution(support, np.asarray(obj["p_hat"], dtype=np.float64)),
        q=DiscreteDistribution(support, np.asarray(obj["q"], dtype=np.float64)),
        outlier_index=int(obj.get("outlier_index", len(support) - 1)),
        outlier_point=np.asarray(obj.get("outlier_point", support.points[-1]), dtype=np.float64),
        outlier_value=float(obj.get("outlier_value", obj["values"][-1])),
    )


def cmd_compare(args, argv) -> int:
    start = time.monotonic()
    inputs = []
    if args.spec:
        spec = _comparison_spec_from_json(args.spec)
        inputs.append(args.spec)
    else:
        spec = default_comparison_spec()
    multipliers = [float(v) for v in args.radii.split(",")]
    rows = run_comparison(spec, multipliers, include_outlier=args.outlier_shift, tol=args.tol)
    for row in rows:
        print(
            f"{row['scenario']} {row['method']} x{_fmt(row['multiplier'])}: "
            f"value={_fmt(row['value'])} (E_Q[f]={_fmt(row['expectation_under_q'])})"
        )
    if args.outlier_shift:
        deltas = value_deltas(rows)
        for method, delta in sorted(deltas.items()):
            print(f"outlier value increase, {method}: {_fmt(delta)}")
    outputs = []
    if args.out:
        header = ["scenario", "method", "multiplier", "epsilon", "value",
                  "expectation_under_q"]
        _write_csv(args.out, header, [[r[h] for h in header] for r in rows])
        outputs.append(args.out)
    _write_manifest(args, argv, inputs, outputs, time.monotonic() - start)
    return 0


def cmd_rate(args, argv) -> int:
    start = time.monotonic()
    config = canonical_rate_config(
        n_contexts=args.contexts, n_xi=args.xi_size, n_actions=args.actions,
        seed=args.seed,
    )
    n_grid = [int(v) for v in args.n_grid.split(",")]
    result = rate_experiment(
        config, n_grid, trials=args.trials, seed=args.seed,
        epsilon_x=args.epsilon_x, epsilon_c=args.epsilon_c, tol=args.tol,
    )
    for n, med in result.rows:
        print(f"n={n} median_abs_error={_fmt(med)}")
    print(f"loglog_slope={_fmt(result.slope)}")
    outputs = []
    if args.out:
        rows = [[n, med, result.slope] for n, med in result.rows]
        _write_csv(args.out, ["n", "median_abs_error", "loglog_slope"], rows)
        outputs.append(args.out)
    _write_manifest(args, argv, [], outputs, time.monotonic() - start)
    return 0


def cmd_synth(args, argv) -> int:
    start = time.monotonic()
    with open(args.spec) as handle:
        config = synthetic_config_from_json(json.load(handle))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    train, test, _ = synth_generate(config)
    save_dataset(train, args.out_train)
    save_dataset(test, args.out_test)
    outputs = [args.out_train, f"{args.out_train}.meta.json",
               args.out_test, f"{args.out_test}.meta.json"]
    print(f"train={args.out_train} ({train.n} records) test={args.out_test} ({test.n} records)")
    _write_manifest(args, argv, [args.spec], outputs, time.monotonic() - start)
    return 0


def cmd_rerun(args, argv) -> int:
    with open(args.manifest) as handle:
        manifest = json.load(handle)
    recorded = manifest.get("argv")
    if not recorded or recorded[0] == "rerun":
        raise errors.ValidationError("manifest does not carry a replayable command")
    return main(recorded)


# -- parser ----------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--manifest-out", default=None,
                        help="manifest path (default: <out>.manifest.json)")
    parser.add_argument("--tol", type=float, default=None,
                        help="dual solver value tolerance (default 1e-9 * max cost)")


def _add_data_args(parser):
    parser.add_argument("--data", required=True, help="dataset CSV")
    parser.add_argument("--config", default=None,
                        help="schema JSON for raw CSVs; omit for canonical datasets")
    parser.add_argument("--support", choices=("full", "observed"), default="full",
                        help="context support: binned cross product or observed points only")
    parser.add_argument("--epsilon-x", type=float, default=0.0, dest="epsilon_x")
    parser.add_argument("--epsilon-c", type=float, default=0.0, dest="epsilon_c")
    parser.add_argument("--method", choices=("exact", "regularized", "kl", "plugin"),
                        default="exact")
    parser.add_argument("--eta", type=float, default=None, help="smoothing sharpness")
    parser.add_argument("--impute-missing-ymax", action="store_true",
                        help="charge unobserved (context, action) pairs the maximum cost")


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drobandit",
        description="Distributionally robust off-policy evaluation and learning",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="transport distance between two distribution files")
    p.add_argument("--p", required=True, help="nominal distribution CSV")
    p.add_argument("--q", required=True, help="comparison distribution CSV")
    p.add_argument("--kl", action="store_true", help="also report KL(q || p)")
    p.add_argument("--plan-out", default=None, help="write the optimal plan CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("radius", help="data-driven radius from a split sample")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_radius)

    p = sub.add_parser("ope", help="robust policy evaluation")
    _add_data_args(p)
    p.add_argument("--policy", default="uniform", help="'uniform' or a policy JSON")
    p.add_argument("--table-out", default=None, help="write the per-pair robust cost CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_ope)

    p = sub.add_parser("opl", help="robust policy learning")
    _add_data_args(p)
    p.add_argument("--algo", choices=("bsgd", "grid"), default="bsgd")
    p.add_argument("--grouping", default="identity",
                   help="'identity', 'single', or a JSON list context -> group")
    p.add_argument("--parameterization", choices=("clamp", "softmax"), default="clamp")
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--gamma", type=float, default=None,
                   help="constant step size (default 0.5 / sqrt(iterations))")
    p.add_argument("--theta0", default=None, help="comma-separated initial parameters")
    p.add_argument("--resolution", type=int, default=101, help="grid points per dimension")
    p.add_argument("--trace-out", default=None, help="write the per-iteration trace CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_opl)

    p = sub.add_parser("compare", help="KL vs transport robust values on a shared instance")
    p.add_argument("--spec", default=None, help="instance JSON (default: built-in)")
    p.add_argument("--radii", default="0.8,1.0,1.2",
                   help="comma-separated multipliers of the measured radius")
    p.add_argument("--outlier-shift", action="store_true",
                   help="also run with the top support point dragged outward")
    _add_common(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("rate", help="Monte-Carlo convergence of the estimator")
    p.add_argument("--contexts", type=int, default=6)
    p.add_argument("--xi-size", type=int, default=5, dest="xi_size")
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--epsilon-x", type=float, default=0.1, dest="epsilon_x")
    p.add_argument("--epsilon-c", type=float, default=0.1, dest="epsilon_c")
    p.add_argument("--n-grid", default="128,256,512,1024,2048,4096,8192,16384",
                   dest="n_grid")
    p.add_argument("--trials", type=int, default=200)
    _add_common(p)
    p.set_defaults(handler=cmd_rate)

    p = sub.add_parser("synth", help="generate shifted synthetic datasets")
    p.add_argument("--spec", required=True, help="synthetic environment JSON")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", default=None, help=argparse.SUPPRESS)
    p.add_argument("--manifest-out", default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(handler=cmd_rerun)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, argv)
    except (errors.DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except errors.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
