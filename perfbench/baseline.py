"""Record the benchmark's baseline in ``BASELINE.json``: end-to-end medians
and quartiles over ten seeds, and one traced run per workload.

    python3 perfbench/baseline.py

Each run is ``run.py`` in a fresh process, one after another. The whole
series of untraced runs is made twice, and the file records how far each
metric's median moved between the two sets, as a share of the first median.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
SETS = 2


def program_digest() -> str:
    """SHA-256 over the package sources, so a baseline names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confcause").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["detail"] = detail["detail"]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(why)

    sets: list[dict[str, dict[str, list[float]]]] = []
    runs_ok = {w: 0 for w in names}
    digests: dict[str, list[dict]] = {w: [] for w in names}  # runs of SEEDS[0]
    environment = None
    for k in range(SETS):
        values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
        for w in names:
            for seed in SEEDS:
                r = run_once(w, seed, seconds, 0)
                runs_ok[w] += bool(r["correct"])
                if seed == SEEDS[0]:
                    digests[w].append(r["detail"]["digests"])
                environment = r["detail"]["environment"]
                for m, v in r["metrics"].items():
                    values[w].setdefault(m, []).append(v["value"])
                print(f"set {k + 1} {w} seed {seed}: correct={r['correct']} "
                      f"run_s={r['metrics']['run_s']['value']:.4f}", flush=True)
        sets.append(values)

    report: dict = {
        "program_sha256": program_digest(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "sets": SETS,
        "environment": environment,
        "workloads": {},
    }
    for w in names:
        entry: dict = {"why": why[w], "correct_runs": runs_ok[w], "runs": len(SEEDS) * SETS}
        entry["end_to_end"] = {}
        for m, vals in sets[0][w].items():
            second = summarize(sets[1][w][m])
            entry["end_to_end"][m] = {
                **summarize(vals), "bound": bounds[m],
                "second_median": second["median"],
                "second_spread": second["spread"],
                "median_shift": (second["median"] - statistics.median(vals)) / statistics.median(vals),
            }
        traced = run_once(w, SEEDS[0], seconds, 1)
        per_layer = {m: v["value"] for m, v in traced["metrics"].items()}
        digests[w].append(traced["detail"]["digests"])
        # same seed, separate processes, traced or not: byte-identical outputs
        entry["digests_match_across_runs"] = all(d == digests[w][0] for d in digests[w])
        entry["traced"] = {
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "trace_overhead_s": per_layer["trace.overhead_s"],
            "per_layer": per_layer,
        }
        print(f"traced {w}: correct={traced['correct']} "
              f"digests match: {entry['digests_match_across_runs']}", flush=True)
        report["workloads"][w] = entry
    (BENCH / "BASELINE.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, entry in report["workloads"].items():
        for m, s in entry["end_to_end"].items():
            spreads = "/".join("n/a" if v is None else f"{v:.4f}" for v in (s["spread"], s["second_spread"]))
            print(f"{w:7s} {m:20s} median={s['median']:.6g} spreads={spreads} "
                  f"bound={s['bound']} shift={s['median_shift']:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
