"""Benchmark of the confcause pipeline.

One workload per process:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced passes, then one traced pass, and prints the per-layer metrics.
``--workload all`` runs every workload in its own child process and prints
every end-to-end metric by name with its unit. The last line of standard
output is always one JSON object. Details (set-up and pass times, digests,
quality breakdown, spans) go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import HARNESS, TRACED, Tracer, leftover_wrappers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
# Set-up runs at least 3 and at most 9 times, stopping at 3 once 2 s are spent.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
MIN_PASSES = 2
WORKLOAD_NAMES = ("wide", "tall", "study", "update")

END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("adj_f1", "ratio", "higher"),
    ("rootcause_f1", "ratio", "higher"),
    ("rootcause_precision", "ratio", "higher"),
    ("rootcause_recall", "ratio", "higher"),
    ("diagnosed_frac", "ratio", "higher"),
)

PER_LAYER = (
    # per traced function: calls and self time
    *((f"{name}.{part}", unit, "lower")
      for name in TRACED for part, unit in (("calls", "count"), ("self_s", "s"))),
    ("harness.self_s", "s", "lower"),
    ("discovery.ci_tests", "count", "lower"),
    ("discovery.ci_untestable", "count", "lower"),
    ("discovery.edges_removed", "count", "higher"),
    ("discovery.removed_per_test", "ratio", "higher"),
    ("discovery.pag_edges", "count", "lower"),
    ("discovery.circle_edges", "count", "lower"),
    ("resolve.directed", "count", "higher"),
    ("resolve.bidirected", "count", "lower"),
    ("effects.paths", "count", "higher"),
    ("effects.empty_diagnoses", "count", "lower"),
    ("effects.refresh_s", "s", "lower"),
    ("synthbench.care_fp", "count", "lower"),
    ("synthbench.f1_wins", "count", "higher"),
    ("synthbench.transfer_rmse", "rmse", "lower"),
    ("cbi.f1", "ratio", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.search_share", "ratio", "lower"),
    ("trace.rowpath_share", "ratio", "lower"),
)

# Layers whose self time is the row-bound path (load, entropy resolution,
# effect estimation), for trace.rowpath_share.
ROWPATH_PREFIXES = ("dataset.", "resolve.", "effects.", "stats.min_entropy_latent", "stats.entropy")
SEARCH_NAMES = ("discovery.fci", "stats.partial_corr_from_cov")


def cap_threads() -> dict[str, int]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {"nproc": nproc, "thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"])}


def import_program() -> None:
    """Import confcause from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import confcause
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import confcause from {src}: {exc}") from None
    if Path(confcause.__file__).resolve().parent != src / "confcause":
        raise SystemExit(f"perfbench: confcause came from {confcause.__file__}, not {src}")
    import logging

    # keep the package's warnings off stderr; the benchmark reports outcomes
    logging.getLogger("confcause").addHandler(logging.NullHandler())


def environment(threads: dict[str, int]) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        **threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# measuring one workload


def _timed_pass(workload, inputs, tracer=None):
    """Run the body once; return (wall seconds, scored PassResult)."""
    from confcause.errors import EngineError
    from workloads import PassResult

    start = time.perf_counter()
    try:
        if tracer is None:
            outputs = workload.run(inputs)
            elapsed = time.perf_counter() - start
        else:
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span(HARNESS):
                    outputs = workload.run(inputs)
                elapsed = time.perf_counter() - start
        return elapsed, workload.score(inputs, outputs)
    except EngineError as exc:
        elapsed = time.perf_counter() - start
        n = workload.expected_diagnoses(inputs)
        return elapsed, PassResult(attempted=n, failed=n, problems=[f"{type(exc).__name__}: {exc}"])


def _layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    times = tracer.layer_times()
    out: dict[str, float] = {}
    for name in TRACED:
        lt = times.get(name)
        out[f"{name}.calls"] = lt.calls if lt else 0
        out[f"{name}.self_s"] = lt.self_s if lt else 0.0
    counts = dict(tracer.counts)
    tests = counts["discovery.ci_tests"]
    counts["discovery.ci_untestable"] = out["stats.partial_corr_from_cov.calls"] - tests
    counts["discovery.removed_per_test"] = counts["discovery.edges_removed"] / tests if tests else 0.0
    out.update(counts)
    out["harness.self_s"] = times[HARNESS].self_s
    out["trace.run_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    total = sum(lt.self_s for lt in times.values())
    out["trace.search_share"] = sum(out[f"{n}.self_s"] for n in SEARCH_NAMES) / total
    out["trace.rowpath_share"] = sum(
        lt.self_s for n, lt in times.items() if n.startswith(ROWPATH_PREFIXES)
    ) / total
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict[str, Any]:
    """Set up several times, run untraced passes for about ``seconds``, then
    one traced pass when ``trace``; score and check every pass."""
    import workloads
    from calibrate import Probe

    workload = workloads.make(name, size)
    probe = Probe()
    workdir = WORK / name  # inputs of the latest run only; each run rewrites them
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s: list[float] = []
    probe()
    while len(setup_s) < SETUP_REPEATS[0] or (
        len(setup_s) < SETUP_REPEATS[1] and sum(setup_s) < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)
    probe()
    gc.collect()

    # At least two passes, then more until ``seconds`` have gone by, but
    # none that would end well past them.
    passes: list[tuple[float, Any]] = []
    loop_start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        (elapsed := time.perf_counter() - loop_start) < seconds
        and elapsed + passes[-1][0] <= 1.25 * seconds
    ):
        probe()
        passes.append(_timed_pass(workload, inputs))
    probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(t for t, _ in passes)

    problems: list[str] = []
    reference = passes[0][1]
    checked = [r for _, r in passes]
    per_layer: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        tracer.run_id = f"{name}-seed{seed}-traced"
        traced = _timed_pass(workload, inputs, tracer)
        checked.append(traced[1])
        per_layer = _layer_metrics(tracer, traced[0], wall_s)
        accounted = sum(lt.self_s for lt in tracer.layer_times().values())
        if abs(accounted - traced[0]) > 0.001 + 0.01 * traced[0]:
            problems.append(f"self times sum to {accounted:.4f}s, traced pass took {traced[0]:.4f}s")
        left = leftover_wrappers()
        if left:
            problems.append(f"tracer wrappers left installed: {left}")
        tracer.write_spans(WORK / f"{name}-seed{seed}-spans.csv")

    failed = 0
    for k, result in enumerate(checked):
        problems += result.problems
        failed += result.failed
        if result.digests != reference.digests:
            differing = sorted(
                key for key in set(result.digests) | set(reference.digests)
                if result.digests.get(key) != reference.digests.get(key)
            )
            problems.append(f"pass {k} digests differ from pass 0: {differing}")
            failed += result.attempted - result.failed
    attempted = sum(r.attempted for r in checked)

    quality = dict(reference.quality)
    extra = dict(reference.extra)
    if hasattr(workload, "model_check"):
        check = workload.model_check(inputs)
        problems += check.problems
        failed += check.failed
        quality.update(check.quality)
        extra["model_digests"] = check.digests

    # times at reference speed; the raw wall times stay in the detail
    scale = probe.scale()
    e2e = {
        "run_s": wall_s * scale,
        "setup_s": statistics.median(setup_s) * scale,
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    if trace:
        refresh = [t for _, r in passes for t in r.extra.get("refresh_s", [])]
        per_layer.update({
            "effects.empty_diagnoses": extra.get("empty_diagnoses", 0),
            "effects.refresh_s": statistics.median(refresh) if refresh else 0.0,
            "synthbench.care_fp": extra.get("care_fp", 0),
            "synthbench.f1_wins": extra.get("f1_wins", 0),
            "synthbench.transfer_rmse": extra.get("transfer_rmse", 0.0),
            "cbi.f1": extra.get("cbi_f1", 0.0),
        })
    specs = PER_LAYER if trace else END_TO_END
    values = per_layer if trace else e2e
    metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in specs}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "workload": name, "seed": seed, "size": size, "trace": trace,
            "setup_s": setup_s, "pass_s": [t for t, _ in passes],
            "probe_s": probe.times, "speed_scale": scale,
            "end_to_end": e2e, "per_layer": per_layer, "extra": extra,
            "digests": reference.digests, "problems": problems,
        },
    }


# --------------------------------------------------------------------------
# command line


def _format(metrics: dict[str, dict[str, Any]]) -> list[str]:
    return [f"  {m:<36} {v['value']:>14.6g} {v['unit']}" for m, v in metrics.items()]


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in a fresh child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        print("\n".join(_format(r["metrics"])), flush=True)
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    threads = cap_threads()
    import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    detail["environment"] = environment(threads)
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "detail": detail}, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed={args.seed} passes={len(detail['pass_s'])} "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for problem in detail["problems"][:20]:
        print(f"  problem: {problem}")
    print(f"  environment: {json.dumps(detail['environment'], sort_keys=True)}")
    print("\n".join(_format(result["metrics"])))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
