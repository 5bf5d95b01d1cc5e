"""Outside-in tracer: wraps public confcause functions at every lookup site.

The package binds its cross-module calls with ``from .x import y``, so a
function has one attribute per importing module. ``Tracer.install`` replaces
every attribute of every loaded ``confcause`` module that *is* a traced
function with one timing wrapper, and ``uninstall`` puts the originals back.
Spans live in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import csv
import functools
import logging
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

_MARK = "__perfbench_traced__"
_CI_TESTS = re.compile(r"structure search: .* (\d+) CI tests")

# ``<module>.<function>`` -> (module to resolve in, attribute path there)
TRACED: dict[str, tuple[str, str]] = {
    "dataset.load_dataset": ("confcause.dataset", "load_dataset"),
    "dataset.discretize": ("confcause.dataset", "discretize"),
    "dataset.concat": ("confcause.dataset", "Dataset.concat"),
    "discovery.fci": ("confcause.discovery", "fci"),
    "stats.partial_corr_from_cov": ("confcause.stats", "partial_corr_from_cov"),
    "stats.min_entropy_latent": ("confcause.stats", "min_entropy_latent"),
    "stats.entropy": ("confcause.stats", "entropy"),
    "resolve.resolve_edges": ("confcause.resolve", "resolve_edges"),
    "effects.learn_model": ("confcause.effects", "learn_model"),
    "effects.update_model": ("confcause.effects", "update_model"),
    "effects.cpwe": ("confcause.effects", "cpwe"),
    "effects.extract_paths": ("confcause.effects", "extract_paths"),
    "effects.ace_edge": ("confcause.effects", "ace_edge"),
    "cbi.cbi_root_causes": ("confcause.cbi", "cbi_root_causes"),
    "cbi.mine_predicates": ("confcause.cbi", "mine_predicates"),
    "synthbench.run_benchmark": ("confcause.synthbench", "run_benchmark"),
    "synthbench.transfer_series": ("confcause.synthbench", "transfer_series"),
    "synthbench.make_fault_benchmark": ("confcause.synthbench", "make_fault_benchmark"),
    "synthbench.sample": ("confcause.synthbench", "sample"),
    "synthbench.curate_ground_truth": ("confcause.synthbench", "curate_ground_truth"),
    "synthbench.evaluate": ("confcause.synthbench", "evaluate"),
}

HARNESS = "harness"


def _count_pag(pag, counts: dict[str, float]) -> None:
    counts["discovery.pag_edges"] += len(pag.edges)
    counts["discovery.edges_removed"] += len(pag.sepsets)
    counts["discovery.circle_edges"] += sum(
        "circle" in (e.mark_u.value, e.mark_v.value) for e in pag.edges
    )


def _count_admg(admg, counts: dict[str, float]) -> None:
    counts["resolve.directed"] += len(admg.directed)
    counts["resolve.bidirected"] += len(admg.bidirected)


def _count_paths(paths, counts: dict[str, float]) -> None:
    counts["effects.paths"] += len(paths)


# Counts taken from a traced function's return value, at its boundary.
RESULT_COUNTERS: dict[str, Callable] = {
    "discovery.fci": _count_pag,
    "resolve.resolve_edges": _count_admg,
    "effects.extract_paths": _count_paths,
}

COUNT_NAMES = (
    "discovery.ci_tests",
    "discovery.pag_edges",
    "discovery.edges_removed",
    "discovery.circle_edges",
    "resolve.directed",
    "resolve.bidirected",
    "effects.paths",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: str


@dataclass(frozen=True)
class LayerTime:
    calls: int
    self_s: float


def _is_package_module(name: str) -> bool:
    return name == "confcause" or name.startswith("confcause.")


def _resolve(owner: object, path: str) -> tuple[object, str]:
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _CiTestCounter(logging.Handler):
    """Sums the CI-test count from each ``structure search`` INFO record."""

    def __init__(self, counts: dict[str, float]) -> None:
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        match = _CI_TESTS.search(record.getMessage())
        if match:
            self.counts["discovery.ci_tests"] += int(match.group(1))


class Tracer:
    """Span recorder for one process. ``clock`` is injectable for tests."""

    def __init__(
        self,
        traced: Mapping[str, tuple[str, str]] = TRACED,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.traced = dict(traced)
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {name: 0 for name in COUNT_NAMES}
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._log_handler = _CiTestCounter(self.counts)
        self._log_level = logging.NOTSET

    # -- spans ----------------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, parent = self._enter()
        start = self.clock()
        try:
            yield
        finally:
            self._exit(name, index, parent, start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, index, parent, start)
            if counter is not None:
                counter(result, self.counts)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every lookup site of every traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if _is_package_module(n)]
        for name, (module_name, path) in self.traced.items():
            owner, attr = _resolve(sys.modules[module_name], path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if "." in path:  # a method: the class attribute is the only site
                sites = [(owner, attr)]
            else:
                sites = [
                    (module, key)
                    for module in modules
                    for key, value in vars(module).items()
                    if value is original
                ]
            for site_owner, site_attr in sites:
                self._patched.append((site_owner, site_attr, original))
                setattr(site_owner, site_attr, wrapper)
        discovery_log = logging.getLogger("confcause.discovery")
        self._log_level = discovery_log.level
        discovery_log.setLevel(logging.INFO)
        discovery_log.addHandler(self._log_handler)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        discovery_log = logging.getLogger("confcause.discovery")
        discovery_log.removeHandler(self._log_handler)
        discovery_log.setLevel(self._log_level)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def layer_times(self) -> dict[str, LayerTime]:
        """Calls and self time per span name. Self time is the span's
        duration minus the durations of its direct children."""
        spans = self.finished()
        self_s = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent >= 0:
                self_s[s.parent] -= s.end - s.start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for s, own in zip(spans, self_s):
            calls[s.name] = calls.get(s.name, 0) + 1
            total[s.name] = total.get(s.name, 0.0) + own
        return {name: LayerTime(calls[name], total[name]) for name in calls}

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return [s for s in self.spans if s is not None]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "run_id", "name", "start_s", "end_s"])
            for i, s in enumerate(self.finished()):
                writer.writerow([i, s.parent, s.run_id, s.name, repr(s.start), repr(s.end)])


def leftover_wrappers() -> list[str]:
    """Names of attributes in loaded confcause modules that are still
    tracer wrappers (empty after a clean ``uninstall``)."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if not _is_package_module(name):
            continue
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{name}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{name}.{key}.{attr}")
    return found
