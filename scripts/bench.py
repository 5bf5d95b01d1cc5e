"""Time the CSV layer and the structure search on a fixed ladder of generated
systems and the ``confcause bench`` study, and write the results as one JSON
column.

    python scripts/bench.py --out BENCH.json [--column NAME] [--check BENCH_30.json]

Each ladder rung is ``generate_scm(options, metrics, objectives, density,
seed=0)`` sampled with ``sample(scm, rows)``. The CSV layer writes the table
with ``Dataset.save`` and reads it back with ``load_dataset``, each three
times and then once more under ``tracemalloc``; the rung records the fastest
wall time of each (``dump_s``, ``load_s``), the peak of each traced run in
MiB (``dump_peak_mib``, ``load_peak_mib``) and ``table_sha256``, the SHA-256
of the written table. ``fci`` runs three times with its defaults and then
once more under ``tracemalloc``; the rung records the fastest wall time, the
peak of the traced run in MiB (``fci_peak_mib``), the four counts of the
``structure search:`` log line, the adjacency F1 against the true graph, the
learned edge count and ``pag_sha256``, the SHA-256 of the PAG's sorted-keys
JSON. The traced run's PAG is then resolved with ``resolve_edges`` on
``discretize(ds, 5)``; the rung records ``model_sha256``, the SHA-256 of the
model's sorted-keys JSON, and ``entropy_ties``, the circle-marked edges whose
endpoints have equal entropy there: resolution orients each of them by name
order unless it makes the edge bidirected. ``diagnosis_sha256`` is the
SHA-256 of the sorted-keys JSON of ``cpwe`` over that model, ``top_k=4``,
keyed by objective.
The study is ``confcause bench`` with its defaults (``run_benchmark`` and
``transfer_series`` on seed 0), timed once, with the causal method's pooled
precision, recall, F1 and false positives, and ``report_sha256``, the SHA-256
of the report's sorted-keys JSON. When ``--out`` already holds other
columns, the new one is written next to them. ``--check FILE`` exits 1 when
a rung's ``pag_sha256``, ``edges``, ``ci_tests``, ``untestable``,
``table_sha256``, ``model_sha256`` or ``diagnosis_sha256``, or the study's
``precision``, ``recall``, ``f1``, ``fp`` or ``report_sha256``, differs from
FILE's ``change`` column, each where that column has it. Times, peaks and
``sets_inverted`` are not compared: they depend on how the search stacks its
queries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import re
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from confcause import __version__  # noqa: E402
from confcause.dataset import Dataset, discretize, load_dataset  # noqa: E402
from confcause.discovery import Mark, fci  # noqa: E402
from confcause.effects import cpwe  # noqa: E402
from confcause.resolve import resolve_edges  # noqa: E402
from confcause.stats import entropy  # noqa: E402
from confcause.synthbench import generate_scm, run_benchmark, sample, transfer_series  # noqa: E402

# name: (options, metrics, objectives, density, rows)
LADDER = {
    "small": (3, 5, 1, 0.15, 10_000),
    "mid": (8, 20, 2, 0.15, 20_000),
    "large": (12, 40, 3, 0.15, 50_000),
    "large_d0.3": (12, 40, 3, 0.3, 50_000),
}
REPEATS = 3
SEARCH_LINE = re.compile(
    r"structure search: (?P<vertices>\d+) vertices, (?P<edges>\d+) edges, "
    r"(?P<sets_inverted>\d+) sets inverted, (?P<untestable>\d+) untestable queries, "
    r"(?P<ci_tests>\d+) CI tests"
)


class _LastMessage(logging.Handler):
    def emit(self, record: logging.LogRecord) -> None:
        self.message = record.getMessage()


def adjacency_f1(true_directed, learned) -> float:
    """F1 of the learned adjacencies against the true graph's."""
    truth = {frozenset(edge) for edge in true_directed}
    hits = len(truth & learned)
    precision = hits / len(learned) if learned else 1.0
    recall = hits / len(truth) if truth else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def sha256_json(payload) -> str:
    """The SHA-256 of ``payload`` as sorted-keys JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def timed(name: str, step) -> tuple[dict, object]:
    """The fastest of ``REPEATS`` wall times of ``step()`` and the peak MiB
    of one more run under ``tracemalloc``, as ``{name}_s`` and
    ``{name}_peak_mib``; and the traced run's result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        result = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {f"{name}_s": round(min(times), 4), f"{name}_peak_mib": round(peak / 2**20, 2)}, result


def csv_layer(ds: Dataset) -> dict:
    """Wall times and traced peaks of writing ``ds`` and reading it back."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        table, roles = Path(tmp) / "data.csv", Path(tmp) / "roles.json"
        out.update(timed("dump", lambda: ds.save(table, roles))[0])
        out.update(timed("load", lambda: load_dataset(table, roles))[0])
        out["table_sha256"] = hashlib.sha256(table.read_bytes()).hexdigest()
    return out


def rung(options: int, metrics: int, objectives: int, density: float, rows: int) -> dict:
    scm = generate_scm(options, metrics, objectives, density, seed=0)
    ds = sample(scm, rows)
    layer = csv_layer(ds)
    handler, logger = _LastMessage(), logging.getLogger("confcause.discovery")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        search, pag = timed("fci", lambda: fci(ds))
    finally:
        logger.removeHandler(handler)
    counts = SEARCH_LINE.search(handler.message)
    disc = discretize(ds, 5)
    ties = sum(
        Mark.CIRCLE in (e.mark_u, e.mark_v) and entropy(disc, [e.u]) == entropy(disc, [e.v])
        for e in pag.edges
    )
    model = resolve_edges(pag, disc)
    diagnoses = {y: d.to_json_dict() for y, d in cpwe(ds, model, top_k=4).items()}
    return {
        "shape": [options, metrics, objectives, density, rows],
        **layer,
        **search,
        **{name: int(value) for name, value in counts.groupdict().items() if name != "vertices"},
        "adj_f1": round(adjacency_f1(scm.graph.directed, pag.adjacencies()), 4),
        "true_edges": len(scm.graph.directed),
        "pag_sha256": sha256_json(pag.to_json_dict()),
        "model_sha256": sha256_json(model.to_json_dict()),
        "diagnosis_sha256": sha256_json(diagnoses),
        "entropy_ties": ties,
    }


def study() -> dict:
    start = time.perf_counter()
    report = run_benchmark()
    transfer_series()
    wall = time.perf_counter() - start
    care = report.totals("care")
    return {
        "wall_s": round(wall, 3),
        **{name: round(care[name], 4) for name in ("precision", "recall", "f1")},
        "fp": care["fp"],
        "report_sha256": sha256_json(report.to_json_dict()),
    }


def differences(column: dict, reference: Path) -> list[str]:
    """Each checked value of ``column`` that differs from the ``change``
    column of ``reference``, where that column has the key; and each rung
    that it lacks. Times, peaks and ``sets_inverted`` are not checked."""
    want = json.loads(reference.read_text())["change"]
    rung_keys = (
        "pag_sha256", "edges", "ci_tests", "untestable", "table_sha256", "model_sha256",
        "diagnosis_sha256",
    )
    study_keys = ("precision", "recall", "f1", "fp", "report_sha256")
    records = [("study", want.get("study"), column["study"], study_keys)]
    records += [
        (name, want["ladder"].get(name), got, rung_keys) for name, got in column["ladder"].items()
    ]
    found = []
    for label, ref, got, keys in records:
        if ref is None:
            found.append(f"{label}: not in {reference}")
            continue
        found += [
            f"{label}: {key} {ref[key]} -> {got[key]}"
            for key in keys if key in ref and ref[key] != got[key]
        ]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write the column to")
    parser.add_argument("--column", default="results", help="name of the column")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="exit 1 when a digest, count or study score differs from FILE's")
    args = parser.parse_args(argv)
    column = {
        "environment": {
            "confcause": __version__, "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "ladder": {name: rung(*shape) for name, shape in LADDER.items()},
        "study": study(),
    }
    out = Path(args.out)
    columns = json.loads(out.read_text()) if out.exists() else {}
    columns[args.column] = column
    out.write_text(json.dumps(columns, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.column: column}, indent=2, sort_keys=True))
    if args.check:
        changed = differences(column, args.check)
        for line in changed:
            print(f"differs from {args.check}: {line}", file=sys.stderr)
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
