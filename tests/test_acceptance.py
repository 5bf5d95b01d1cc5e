"""Release gate: the nine behavioral guarantees the package ships with.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s``)
and asserts the same condition, so the -v test list doubles as the checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from confcause.cli import main as cli_main
from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.discovery import Mark, fci
from confcause.effects import diagnose, learn_model
from confcause.resolve import entropy_threshold, resolve_edges
from confcause.stats import (
    conditional_entropy,
    entropy,
    fisher_z_test,
    partial_correlation,
)
from confcause.synthbench import (
    Mechanism,
    generate_scm,
    interventional_ace,
    run_benchmark,
    sample,
    scm_from_mechanisms,
    transfer_series,
)
from confcause.discovery import Pag, PagEdge
from confcause.resolve import Admg
from confcause.effects import ace_edge

from test_stats import brute_force_min_coupling_2x2
from tiered_system import objective_variance_under, tiered_scm


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {num} {label}: {detail}"
    print(line)
    assert ok, line


def V(name, role, kind=Kind.CONTINUOUS):
    return VariableMeta(name, role, kind)


# --------------------------------------------------------------------------
# 1. structure recovery on seeded linear systems


def test_1_structure_recovery():
    t0 = time.time()
    f1s: list[float] = []
    violations = 0
    for seed in range(20):
        scm = generate_scm(3, 5, 2, 0.3, seed=seed, weight_range=(0.8, 1.4))
        ds = sample(scm, 10000)
        pag = fci(ds, alpha=0.05)
        true_adj = {frozenset(e) for e in scm.graph.directed}
        pred_adj = pag.adjacencies()
        tp = len(true_adj & pred_adj)
        prec = tp / len(pred_adj) if pred_adj else 1.0
        rec = tp / len(true_adj) if true_adj else 1.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        roles = {v.name: v.role for v in ds.variables}
        for (u, v), (mu, mv) in pag.edge_marks().items():
            if roles[u] == Role.OPTION and roles[v] == Role.OPTION:
                violations += 1
            for name, mark in ((u, mu), (v, mv)):
                if roles[name] == Role.OPTION and mark != Mark.TAIL:
                    violations += 1
                if roles[name] == Role.OBJECTIVE and mark != Mark.ARROW:
                    violations += 1
    elapsed = time.time() - t0
    avg = float(np.mean(f1s))
    ok = avg >= 0.9 and violations == 0 and elapsed < 60.0
    verdict(
        1, "structure recovery",
        ok,
        f"avg adjacency F1={avg:.4f} over 20 systems (>=0.9), "
        f"role violations={violations} (=0), {elapsed:.1f}s (<60s)",
    )


# --------------------------------------------------------------------------
# 2. independence test exactness and calibration


def _random_case(rng):
    k = int(rng.integers(0, 4))
    n = int(rng.integers(60, 400))
    dim = k + 2
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + 0.1 * np.eye(dim)
    data = rng.multivariate_normal(np.zeros(dim), cov, size=n)
    names = ["x", "y"] + [f"c{i}" for i in range(k)]
    variables = tuple(V(nm, Role.METRIC) for nm in names)
    ds = Dataset(variables, {nm: data[:, i] for i, nm in enumerate(names)}, n)
    return ds, names[2:], n, k


def test_2_independence_test_exactness():
    rng = np.random.default_rng(314)
    worst_stat, worst_p = 0.0, 0.0
    for _ in range(100):
        ds, cond, n, k = _random_case(rng)
        result = fisher_z_test(ds, "x", "y", cond)
        rho = partial_correlation(ds, "x", "y", cond)
        stat_oracle = math.sqrt(n - k - 3) * math.atanh(rho)
        p_oracle = 2.0 * float(norm.sf(abs(stat_oracle)))
        worst_stat = max(worst_stat, abs(result.statistic - stat_oracle))
        worst_p = max(worst_p, abs(result.p_value - p_oracle))

    null_rng = np.random.default_rng(4242)
    rejections = 0
    reps = 1000
    for _ in range(reps):
        xy = null_rng.normal(size=(200, 2))
        ds = Dataset(
            (V("x", Role.METRIC), V("y", Role.METRIC)),
            {"x": xy[:, 0], "y": xy[:, 1]},
            200,
        )
        rejections += not fisher_z_test(ds, "x", "y", alpha=0.05).independent
    rate = rejections / reps
    ok = worst_stat <= 1e-10 and worst_p <= 1e-9 and 0.03 <= rate <= 0.08
    verdict(
        2, "independence test",
        ok,
        f"max |stat err|={worst_stat:.2e} (<=1e-10), max |p err|={worst_p:.2e} "
        f"(<=1e-9) on 100 cases; null rejection rate={rate:.3f} (in [.03,.08])",
    )


# --------------------------------------------------------------------------
# 3. adjusted effects track interventional ground truth


def test_3_effect_estimates_match_interventions():
    outer = np.random.default_rng(99)
    worst_err = 0.0
    naive_failures = 0
    # ten confounded systems: a discrete driver covers both treatment and outcome
    for i in range(10):
        a = float(outer.uniform(0.7, 1.3))
        b = float(outer.uniform(1.5, 2.0))
        variables = (
            V("z", Role.METRIC, Kind.DISCRETE),
            V("t", Role.METRIC, Kind.DISCRETE),
            V("y", Role.OBJECTIVE),
        )
        mechs = {
            "z": Mechanism(kind="uniform_levels", levels=2),
            "t": Mechanism(
                kind="threshold_levels", parents=("z",), weights=(2.0,),
                noise_scale=0.8, thresholds=(1.0,),
            ),
            "y": Mechanism(kind="linear", parents=("t", "z"), weights=(a, b)),
        }
        scm = scm_from_mechanisms(variables, mechs, seed=1000 + i)
        ds = sample(scm, 12000)
        oracle = interventional_ace(scm, "t", "y")
        adjusted = ace_edge(
            ds,
            Admg(variables, frozenset({("z", "t"), ("z", "y"), ("t", "y")}), frozenset()),
            "t", "y",
        ).value
        naive = ace_edge(
            ds, Admg(variables, frozenset({("t", "y")}), frozenset()), "t", "y"
        ).value
        worst_err = max(worst_err, abs(adjusted - oracle))
        naive_failures += abs(naive - oracle) > 0.3
    # ten clean chains: adjustment must not hurt when nothing confounds
    for i in range(10):
        w1 = float(outer.uniform(0.8, 1.4))
        w2 = float(outer.uniform(0.8, 1.4))
        variables = (
            V("o", Role.OPTION, Kind.DISCRETE),
            V("m", Role.METRIC),
            V("y", Role.OBJECTIVE),
        )
        mechs = {
            "o": Mechanism(kind="uniform_levels", levels=3),
            "m": Mechanism(kind="linear", parents=("o",), weights=(w1,)),
            "y": Mechanism(kind="linear", parents=("m",), weights=(w2,)),
        }
        scm = scm_from_mechanisms(variables, mechs, seed=2000 + i)
        ds = sample(scm, 12000)
        est = ace_edge(
            ds,
            Admg(variables, frozenset({("o", "m"), ("m", "y")}), frozenset()),
            "o", "y",
        ).value
        worst_err = max(worst_err, abs(est - interventional_ace(scm, "o", "y")))
    ok = worst_err <= 0.1 and naive_failures >= 5
    verdict(
        3, "effect estimation",
        ok,
        f"max |estimate - intervention|={worst_err:.4f} over 20 systems (<=0.1); "
        f"naive estimator off by >0.3 on {naive_failures}/10 confounded systems (>=5)",
    )


# --------------------------------------------------------------------------
# 4. edge resolution: decisions match the exact coupling oracle


def _count_dataset(counts):
    us, vs = [], []
    for (u, v), c in counts.items():
        us += [u] * c
        vs += [v] * c
    variables = (V("u", Role.METRIC, Kind.DISCRETE), V("v", Role.METRIC, Kind.DISCRETE))
    return Dataset(
        variables,
        {"u": np.array(us, dtype=np.int64), "v": np.array(vs, dtype=np.int64)},
        len(us),
    )


def test_4_edge_resolution_contract():
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(50):
        c = {
            (0, 0): int(rng.integers(5, 60)),
            (0, 1): int(rng.integers(5, 60)),
            (1, 0): int(rng.integers(5, 60)),
            (1, 1): int(rng.integers(5, 60)),
        }
        ds = _count_dataset(c)
        pag = Pag(
            ds.variables,
            (PagEdge("u", "v", Mark.CIRCLE, Mark.CIRCLE),),
            sepsets={},
        )
        admg = resolve_edges(pag, ds)

        row0 = np.array([c[(0, 0)], c[(0, 1)]], dtype=float)
        row1 = np.array([c[(1, 0)], c[(1, 1)]], dtype=float)
        p0, p1 = row0 / row0.sum(), row1 / row1.sum()
        h_min = brute_force_min_coupling_2x2(p0, p1)
        h_u = entropy(ds, ["u"])
        h_v = entropy(ds, ["v"])
        if h_min < entropy_threshold(h_u, h_v):
            expect = "bidirected"
        elif conditional_entropy(ds, "v", "u") < conditional_entropy(ds, "u", "v"):
            expect = "u->v"
        else:
            expect = "v->u"
        got = (
            "bidirected" if admg.bidirected
            else "u->v" if ("u", "v") in admg.directed
            else "v->u"
        )
        mismatches += got != expect

    # learned models come out fully resolved and acyclic
    unresolved = 0
    for seed in (0, 3, 6):
        scm = generate_scm(3, 5, 2, 0.35, seed=seed, weight_range=(0.8, 1.4))
        ds = sample(scm, 8000)
        pag, admg = learn_model(ds)
        resolved = {frozenset(e) for e in admg.directed} | set(admg.bidirected)
        unresolved += len(pag.adjacencies() - resolved)
        admg.topological_order()  # raises if cyclic
    ok = mismatches == 0 and unresolved == 0
    verdict(
        4, "edge resolution",
        ok,
        f"oracle mismatches={mismatches}/50 hand joints (=0); "
        f"unresolved adjacencies={unresolved} across 3 learned models (=0)",
    )


# --------------------------------------------------------------------------
# 5 + 6. fault benchmark quality, and the gap to the correlation baseline


@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.time()
    reports = {seed: run_benchmark(seed=seed) for seed in (0, 1, 2)}
    return reports, time.time() - t0


def test_5_fault_benchmark_quality(benchmark_runs):
    reports, elapsed = benchmark_runs
    precisions, recalls, faults = [], [], 0
    for rep in reports.values():
        care = rep.totals("care")
        precisions.append(care["precision"])
        recalls.append(care["recall"])
        faults += len(rep.outcomes)
    precision = float(np.mean(precisions))
    recall = float(np.mean(recalls))
    ok = recall >= 0.85 and precision >= 0.75 and elapsed < 300.0
    verdict(
        5, "fault benchmark",
        ok,
        f"recall={recall:.3f} (>=0.85), precision={precision:.3f} (>=0.75) "
        f"averaged over 3 study seeds, {faults} faults total, {elapsed:.1f}s (<300s)",
    )


def test_6_beats_correlation_baseline(benchmark_runs):
    reports, _ = benchmark_runs
    rep = reports[0]
    wins = sum(1 for o in rep.outcomes if o.care.f1 > o.cbi.f1)
    care_fp = rep.totals("care")["fp"]
    cbi_fp = rep.totals("cbi")["fp"]
    ok = wins >= 18 and cbi_fp >= 2 * care_fp
    verdict(
        6, "baseline comparison",
        ok,
        f"strict per-fault F1 wins={wins}/{len(rep.outcomes)} (>=18); "
        f"baseline false positives={cbi_fp:.0f} vs causal={care_fp:.0f} (>=2x)",
    )


# --------------------------------------------------------------------------
# 7. rankings order real sensitivity


def test_7_variance_ordering():
    hits = 0
    for seed in range(20):
        scm = tiered_scm(seed=seed * 31 + 5)
        ds = sample(scm, 2000)
        _, admg = learn_model(ds)
        diag = diagnose(ds, admg, scm.objectives[0], top_k=50)
        ranked = list(diag.root_causes)
        for o in scm.options:
            if o not in ranked:
                ranked.append(o)
        v_top = objective_variance_under(scm, scm.objectives[0], ranked[:2])
        v_bot = objective_variance_under(scm, scm.objectives[0], ranked[-2:])
        hits += v_top > v_bot
    ok = hits >= 18
    verdict(
        7, "variance ordering",
        ok,
        f"top-ranked options perturb the objective harder than bottom-ranked "
        f"in {hits}/20 seeded tiered systems (>=18)",
    )


# --------------------------------------------------------------------------
# 8. incremental updates track a shifted environment


def test_8_transfer_improves_with_data():
    hits = 0
    for seed in range(20):
        series = transfer_series(seed=seed)
        hits += all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    ok = hits >= 18
    verdict(
        8, "transfer updates",
        ok,
        f"effect-estimate RMSE against the shifted system is non-increasing "
        f"across update batches in {hits}/20 seeds (>=18)",
    )


# --------------------------------------------------------------------------
# 9. the command line is bit-reproducible


def _run_cli(argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"cli {argv[0]} exited {code}"


def test_9_cli_reproducibility(tmp_path, capsys):
    mismatched: list[str] = []

    def compare(label, rel_paths, root_a, root_b):
        for rel in rel_paths:
            if (root_a / rel).read_bytes() != (root_b / rel).read_bytes():
                mismatched.append(f"{label}/{rel}")

    synth_args = [
        "synth", "--options", "2", "--metrics", "3", "--objectives", "1",
        "--density", "0.8", "--rows", "3000", "--seed", "7", "--out",
    ]
    for sub in ("a", "b"):
        _run_cli(synth_args + [tmp_path / f"synth-{sub}"])
    synth_files = ("scm.json", "truth.json", "data.csv", "roles.json")
    compare("synth", synth_files, tmp_path / "synth-a", tmp_path / "synth-b")

    data = tmp_path / "synth-a" / "data.csv"
    roles = tmp_path / "synth-a" / "roles.json"
    for sub in ("a", "b"):
        _run_cli(["learn", "--data", data, "--roles", roles,
                  "--out", tmp_path / f"learn-{sub}"])
    compare("learn", ("pag.json", "model.json", "model.dot"),
            tmp_path / "learn-a", tmp_path / "learn-b")

    for sub in ("a", "b"):
        _run_cli(["diagnose", "--data", data, "--roles", roles,
                  "--objective", "y01", "--out", tmp_path / f"diag-{sub}.json"])
        _run_cli(["diagnose", "--data", data, "--roles", roles,
                  "--objective", "y01", "--method", "cbi",
                  "--out", tmp_path / f"cbi-{sub}.json"])
        _run_cli(["rank", "--data", data, "--roles", roles,
                  "--out", tmp_path / f"rank-{sub}.json"])
        _run_cli(["eval", "--pred", tmp_path / f"diag-{sub}.json",
                  "--truth", tmp_path / "synth-a" / "truth.json",
                  "--roles", roles, "--out", tmp_path / f"eval-{sub}.json"])
        _run_cli(["bench", "--seed", "0", "--scms", "2",
                  "--out", tmp_path / f"bench-{sub}.json"])
    for stem in ("diag", "cbi", "rank", "eval", "bench"):
        if (tmp_path / f"{stem}-a.json").read_bytes() != (
            tmp_path / f"{stem}-b.json"
        ).read_bytes():
            mismatched.append(stem)

    capsys.readouterr()  # swallow subcommand chatter; the verdict follows
    ok = not mismatched
    verdict(
        9, "reproducible cli",
        ok,
        "all six subcommands byte-identical across same-seed reruns"
        if ok else f"differing artifacts: {', '.join(mismatched)}",
    )
