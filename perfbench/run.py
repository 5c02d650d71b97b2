"""Benchmark for drobandit: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload ope-cli --seed 1 --seconds 20 --trace 0

The run builds its inputs from ``--seed``, sets up ``SETUP_REPEATS`` times
(each time: inputs and ready-made tables), runs one warm-up operation, then
runs whole cycles of the workload's operations back to back until
``--seconds`` have passed, checks every output and prints one JSON object as
its last line. ``setup_s`` is the import time, plus the median set-up, plus
the warm-up operation.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
set-up and every other cycle run with spans around the program's public
functions, and the run reports the per-layer metrics, CPU time per
operation and the tracing overhead. The program is imported from ``src/``
next to this directory; without it the run exits with code 1.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def git_sha(root: Path) -> str | None:
    """HEAD's commit id, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(ROOT)}


@dataclass
class Timed:
    """What the timed part measured."""

    times: list = field(default_factory=list)         # seconds per untraced operation
    traced_times: list = field(default_factory=list)  # seconds per traced operation
    traced_ops: list = field(default_factory=list)    # ids of the traced operations
    failed: int = 0
    wall: float = 0.0  # length of the timed part
    cpu: float = 0.0   # process CPU seconds of the untraced cycles


def timed_cycles(workload, state, seconds, done, failures, tracer=None) -> Timed:
    """Run whole cycles until `seconds` have passed.

    An operation that raises one of `failures` counts as failed; outputs of
    the others are appended to `done` as (index, params, output). With a
    tracer, cycles alternate untraced and traced, ending on a traced one, so
    that drift of the host's speed reaches both halves alike.
    """
    timed = Timed()
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        cpu0 = time.process_time()
        for params in workload.cycle:
            index = len(done) + timed.failed
            if traced:
                tracer.op = f"op-{index}"
            t0 = time.perf_counter()
            try:
                output = workload.op(state, index, params)
            except failures as exc:
                print(f"operation {index} failed: {exc}", file=sys.stderr)
                timed.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            done.append((index, params, output))
            if traced:
                timed.traced_times.append(elapsed)
                timed.traced_ops.append(f"op-{index}")
            else:
                timed.times.append(elapsed)
        if traced:
            tracer.uninstall()
        else:
            timed.cpu += time.process_time() - cpu0
        timed.wall = time.perf_counter() - start
        if timed.wall >= seconds and (tracer is None or traced):
            return timed
        traced = tracer is not None and not traced


def run(args) -> dict:
    if not (ROOT / "src" / "drobandit" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({ROOT / 'src'})")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    t_import = time.perf_counter()
    import workloads
    import drobandit
    from drobandit.errors import DroBanditError
    import_s = time.perf_counter() - t_import
    failures = (workloads.OperationFailed, DroBanditError)
    if Path(drobandit.__file__).resolve().parent != ROOT / "src" / "drobandit":
        raise SystemExit(f"error: imported drobandit from {drobandit.__file__}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setup_times = []
    try:
        sink = io.StringIO()  # the CLI prints a line per run
        with contextlib.redirect_stdout(sink):
            for k in range(SETUP_REPEATS):
                if workdir.exists():
                    shutil.rmtree(workdir)
                workdir.mkdir(parents=True)
                if tracer is not None:
                    tracer.op = f"setup-{k}"
                t0 = time.perf_counter()
                state = workload.setup(args.seed, workdir)
                setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = "warm-up"
            t0 = time.perf_counter()
            workload.op(state, -1, workload.cycle[0])
            warm_up_s = time.perf_counter() - t0

            if tracer is not None:
                tracer.uninstall()
            done = []
            timed = timed_cycles(workload, state, args.seconds, done, failures, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        correct = True
        try:
            workload.check(state, done)
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(done) + timed.failed
    if tracer is None:
        metrics = {
            "ops_per_s": (len(timed.times) / timed.wall, "1/s"),
            "op_p50_ms": (statistics.median(timed.times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (import_s + statistics.median(setup_times) + warm_up_s, "s"),
        }
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        setup_ids = [f"setup-{k}" for k in range(SETUP_REPEATS)]
        metrics = spans.layer_metrics(tracer.spans, timed.traced_ops, setup_ids)
        metrics["process.cpu_ms_per_op"] = (timed.cpu * 1e3 / len(timed.times), "ms")
        overhead = statistics.median(timed.traced_times) - statistics.median(timed.times)
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print("run-info " + json.dumps(machine_info()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
