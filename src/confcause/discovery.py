"""Constraint-aware structure discovery over system observations.

The search starts from a dense adjacency over all variables, prunes edges via
Fisher-z conditional-independence tests against neighbour subsets of growing
size, refines through a possible-d-sep pass, and then orients end marks:
colliders, then Zhang's (2008) rules R1-R4 and R8-R10, including
discriminating paths. Rules R5-R7 orient only the undirected edges that
selection bias creates, and the model has no selection bias, so they are
left out. Domain structure is injected up front:
configuration options are exogenous, objectives are terminal, and role-derived
edge marks are fixed before any statistical orientation, which may therefore
never overwrite them. The result is a partial ancestral graph whose remaining
circle marks are exactly the orientations the data could not decide.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dataset import Dataset, Role, VariableMeta, _record_json
from .errors import EmptyDataset, InputError, InsufficientSamples, UnknownVariable
from .stats import (_DECISION_BAND, _SCHUR_SLACK, _SCREEN_LIMIT, _critical_rho,
                    _fisher_z_independent, _schur_partial_corrs, covariance,
                    partial_corrs_from_covs)

logger = logging.getLogger(__name__)


class Mark(str, Enum):
    TAIL = "tail"
    ARROW = "arrow"
    CIRCLE = "circle"


@dataclass(frozen=True)
class PagEdge:
    """Edge with end marks; ``u < v`` lexicographically, ``mark_u`` at u's end."""

    u: str
    v: str
    mark_u: Mark
    mark_v: Mark


@dataclass(frozen=True)
class Pag:
    """Partial ancestral graph plus the separating sets found during search
    and, once each, the marks that the final orientation refused to change."""

    vertices: tuple[VariableMeta, ...]
    edges: tuple[PagEdge, ...]
    sepsets: Mapping[frozenset[str], frozenset[str]] = field(metadata={"json": False})
    conflicts: tuple[str, ...] = ()

    def edge_marks(self) -> dict[tuple[str, str], tuple[Mark, Mark]]:
        return {(e.u, e.v): (e.mark_u, e.mark_v) for e in self.edges}

    def adjacencies(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset((e.u, e.v)) for e in self.edges)

    def to_json_dict(self) -> dict:
        """The fields, with the sepsets, whose keys are sets, as a sorted list."""
        sepsets = sorted(({"pair": sorted(pair), "separator": sorted(sep)}
                          for pair, sep in self.sepsets.items()), key=lambda s: s["pair"])
        return {**_record_json(self), "sepsets": sepsets}


# --------------------------------------------------------------------------
# structural constraints


@dataclass(frozen=True)
class StructuralConstraints:
    """Role-derived limits on which adjacencies and directions may appear.

    Options are exogenous (nothing points into an option and no two options
    are adjacent); objectives are terminal (nothing is caused by an
    objective); metrics sit in between. Admitted directions:
    option->metric, option->objective, metric->metric, metric->objective.
    """

    roles: Mapping[str, Role]

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise UnknownVariable(f"no role known for {name!r}", variable=name) from None

    def allows_adjacency(self, u: str, v: str) -> bool:
        return not self.role(u) == self.role(v) == Role.OPTION

    def allows_direction(self, u: str, v: str) -> bool:
        """May an edge u -> v exist?"""
        return self.role(u) != Role.OBJECTIVE and self.role(v) != Role.OPTION

    def allows_bidirected(self, u: str, v: str) -> bool:
        """Latent confounding cannot touch an exogenous option."""
        return Role.OPTION not in (self.role(u), self.role(v))

    def initial_marks(self, u: str, v: str) -> tuple[Mark, Mark]:
        """Definitive end marks for edge u - v implied by the roles alone."""
        ru, rv = self.role(u), self.role(v)
        if ru == Role.OPTION:
            return Mark.TAIL, Mark.ARROW
        if rv == Role.OPTION:
            return Mark.ARROW, Mark.TAIL
        mu = Mark.ARROW if ru == Role.OBJECTIVE else Mark.CIRCLE
        mv = Mark.ARROW if rv == Role.OBJECTIVE else Mark.CIRCLE
        return mu, mv


def build_constraints(variables: Sequence[VariableMeta]) -> StructuralConstraints:
    """The role constraints over ``variables``."""
    return StructuralConstraints({v.name: v.role for v in variables})


# --------------------------------------------------------------------------
# mutable search graph


class _Graph:
    """Working graph: adjacency sets plus an end mark per (edge, endpoint),
    built from ``(u, v, mark at u, mark at v)`` edges.

    ``mark_at(u, v)`` is the mark at v's end of edge u - v. Decided marks
    (tail/arrow) are write-once: attempts to overwrite are refused and logged,
    so background knowledge always dominates statistical orientation.
    """

    def __init__(
        self, nodes: Sequence[str], edges: Iterable[tuple[str, str, Mark, Mark]] = ()
    ) -> None:
        self.nodes = sorted(nodes)
        self.adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        self.marks: dict[tuple[str, str], Mark] = {}
        self.conflicts: list[str] = []
        for edge in edges:
            self.add_edge(*edge)

    def add_edge(self, u: str, v: str, mu: Mark, mv: Mark) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.marks[(v, u)] = mu  # mark at u's end
        self.marks[(u, v)] = mv  # mark at v's end

    def remove_edge(self, u: str, v: str) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.marks.pop((u, v), None)
        self.marks.pop((v, u), None)

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adj[u]

    def neighbors(self, u: str) -> list[str]:
        return sorted(self.adj[u])

    def mark_at(self, u: str, v: str) -> Mark:
        return self.marks[(u, v)]

    def set_mark(self, u: str, v: str, mark: Mark, rule: str) -> bool:
        """Set the mark at v's end of edge u - v; only circles may change."""
        cur = self.marks.get((u, v))
        if cur is None or cur == mark:
            return False
        if cur != Mark.CIRCLE:
            self.conflicts.append(
                f"{rule}: refused {cur.value}->{mark.value} at {v} on edge {u}-{v}"
            )
            return False
        self.marks[(u, v)] = mark
        return True

    def sorted_edges(self) -> list[tuple[str, str]]:
        return [
            (u, v) for u in self.nodes for v in self.neighbors(u) if u < v
        ]


# --------------------------------------------------------------------------
# conditional-independence testing

# matrices per stacked partial-correlation call, and conditioning sets per
# speculation window (or one pair's): bounds memory, and stale speculation
_STACK_CAP = 8192

# stacks of conditioned sets below this size skip the Schur-complement kernel,
# whose cost is per array operation more than per set: on the `wide` table
# (2-vCPU Linux guest, numpy 2.4) both routes took 0.06-0.18 ms on 32-48 sets
# of size 1-3, and from 64 sets on the kernel was 20-50% faster
_SCHUR_MIN_STACK = 64

# outcome codes of ``_FisherZTester._evaluate``: 0 dependent, 1 independent,
# then a constant column and an untestable query; 1 and 2 separate the pair
_CONSTANT, _UNTESTABLE = 2, 3
_SEPARATES = np.array([False, True, True, False])


@functools.lru_cache(maxsize=256)
def _combos(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as rows of a read-only array, in
    lexicographic order, as ``itertools.combinations`` yields them."""
    table = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    table = table.reshape(math.comb(n, k), k)
    table.setflags(write=False)
    return table


class _FisherZTester:
    """Fisher-z tests against ``cov``, the covariance of ``n`` rows of the
    variables ``names``, given sorted and numbered in that order (``index``).

    A query is a row of column indices: the pair x < y, then the
    conditioning set in increasing order. ``counts`` are those of a search
    that tests one set at a time, in order, until one separates the pair:
    the tests that produced a statistic, the untestable ones (singular
    submatrix or too few rows for the conditioning size), and the
    conditioned sets that the exact route inverted (see ``_evaluate``). A
    set tested again is counted again. The searches add the tallies of the
    queries whose answers they keep.
    """

    def __init__(self, names: Sequence[str], n: int, cov: np.ndarray, alpha: float) -> None:
        self.alpha = float(alpha)
        self.n = n
        self.names = tuple(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self._cov = cov
        self._constant = np.diagonal(cov) == 0.0
        self.counts = np.zeros(3, dtype=np.int64)  # tests, untestable, inverted

    def first_separators(
        self, rows: np.ndarray, stops: Sequence[int]
    ) -> tuple[list[int | None], np.ndarray]:
        """For each query, the index into ``rows`` of its first separating
        set, or None when none of its sets separates its pair; and each
        query's tally, the ``counts`` of its sets up to and including its
        first separating one, as rows of a ``(queries, 3)`` array.

        ``rows`` is a ``(B, k + 2)`` array of query rows, all of one
        conditioning size; query j is ``rows[stops[j - 1]:stops[j]]``, and
        the last stop is B. Every set is evaluated, in stacks, and nothing
        is counted.
        """
        codes, exact = self._evaluate(rows)
        # separating rows, and a sentinel past the last one
        found = np.concatenate((_SEPARATES[codes], [True])).nonzero()[0]
        bounds = np.array([0, *stops], dtype=np.intp)
        count = found.searchsorted(bounds)  # separating sets before each bound
        hit = count[1:] > count[:-1]
        first = found[count[:-1]]  # each query's first separating set, or a later one
        owner = np.repeat(np.arange(len(stops)), np.diff(bounds))
        reached = np.arange(rows.shape[0]) <= first[owner]
        kinds = np.stack((codes <= 1, codes == _UNTESTABLE, exact)) & reached
        tallies = np.stack([np.bincount(owner[kind], minlength=len(stops)) for kind in kinds], 1)
        return [at if ok else None for at, ok in zip(first.tolist(), hit.tolist())], tallies

    def _evaluate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outcome code per query row, ``_STACK_CAP`` rows at a time, and which
        conditioned rows the exact route (an inverse per set) decided. In a stack
        of ``_SCHUR_MIN_STACK`` or more conditioned sets, the Schur kernel decides
        the sets whose cond(C) bound is below ``_SCREEN_LIMIT`` and whose |rho| is
        farther from the critical one than the band plus both routes' forward
        error, so that the exact route would decide them alike without the
        scalar test; it does the rest."""
        k = rows.shape[1] - 2
        exact = np.zeros(rows.shape[0], dtype=bool)
        if self.n <= k + 3:
            return np.full(rows.shape[0], _UNTESTABLE), exact
        # constant columns carry no dependence
        live = np.flatnonzero(~(self._constant[rows[:, 0]] | self._constant[rows[:, 1]]))
        codes = np.full(rows.shape[0], _CONSTANT)
        crit = _critical_rho(self.n, k, self.alpha)
        for at in range(0, live.shape[0], _STACK_CAP):
            part = live[at:at + _STACK_CAP]
            if k and part.shape[0] >= _SCHUR_MIN_STACK:
                rho, bound = _schur_partial_corrs(self._cov, rows[part])
                bound = np.fmin(bound, _SCREEN_LIMIT)  # NaN too; squares stay finite
                margin = crit * _DECISION_BAND + _SCHUR_SLACK * 2.0**-52 * bound * bound
                mag = np.abs(rho)
                sure = (bound > 0.0) & (bound < _SCREEN_LIMIT) & (np.abs(mag - crit) > margin)
                codes[part[sure]] = mag[sure] < crit
                part = part[~sure]
            exact[part] = k > 0
            if part.shape[0]:
                idx = rows[part]
                rhos = partial_corrs_from_covs(self._cov[idx[:, :, None], idx[:, None, :]])
                codes[part] = np.where(
                    np.isnan(rhos), _UNTESTABLE,
                    _fisher_z_independent(rhos, self.n, k, self.alpha),
                )
        return codes, exact


# --------------------------------------------------------------------------
# skeleton search


def _prune_by_neighbors(
    tester: _FisherZTester,
    adj: np.ndarray,
    sepsets: dict[frozenset[str], frozenset[str]],
    max_cond_size: int,
) -> None:
    """Stable pruning rounds: each subset-size round draws a pair's sets, the
    k-subsets of its endpoints' other neighbours that lie within one
    endpoint's neighbourhood, in lexicographic order, from the graph at the
    round's start. So results equal sequential execution regardless of test
    scheduling, and each pair's pool in ``_in_search_order`` is None."""
    names = tester.names
    for level in range(max_cond_size + 1):
        snapshot = adj.copy()
        u, v = np.nonzero(np.triu(snapshot, 1))
        degree = snapshot.sum(axis=1)
        testable = np.maximum(degree[u], degree[v]) > level
        pairs = list(zip(u[testable].tolist(), v[testable].tolist()))

        def blocks_of(x: int, y: int, _: None) -> list[np.ndarray]:
            if not level:
                return [_combos(0, 0)]  # the empty set
            code = snapshot[x] + 2 * snapshot[y]  # bit 0: x's neighbour, bit 1: y's
            code[x] = code[y] = 0
            members = code.nonzero()[0]
            sets = members[_combos(members.shape[0], level)]
            if level > 1:  # a set of one lies within one neighbourhood
                sets = sets[np.bitwise_and.reduce([code[col] for col in sets.T]) > 0]
            return [sets]

        for x, y, separator in _in_search_order(tester, pairs, lambda x, y: None, blocks_of):
            if separator is not None:
                adj[x, y] = adj[y, x] = False
                sepsets[frozenset((names[x], names[y]))] = frozenset(names[i] for i in separator)


def _possible_d_sep(g: _Graph, x: str) -> set[str]:
    """Vertices reachable from x along paths whose interior vertices are each
    either a collider on the path or part of an adjacent (shielded) triple."""
    adj, marks = g.adj, g.marks
    reached: set[str] = set()
    seen = {(x, w) for w in adj[x]}
    frontier = deque(seen)
    while frontier:
        prev, cur = frontier.popleft()
        reached.add(cur)
        for nxt in adj[cur]:
            if nxt == prev or nxt == x or (cur, nxt) in seen:
                continue
            collider = marks[prev, cur] is Mark.ARROW and marks[nxt, cur] is Mark.ARROW
            if collider or nxt in adj[prev]:
                seen.add((cur, nxt))
                frontier.append((cur, nxt))
    reached.discard(x)
    return reached


def _in_search_order(
    tester: _FisherZTester,
    pairs: Sequence[tuple[int, int]],
    pool_of: Callable[[int, int], object],
    blocks_of: Callable[[int, int, object], list[np.ndarray]],
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """Each pair x < y, in order, with the first set of its blocks,
    ``blocks_of(x, y, pool_of(x, y))``, that separates it, or None, as a
    search of one pair at a time finds it; the caller may change later
    pairs' pools before it takes the next answer.

    Each round speculates, counting nothing, on a window of the pairs ahead
    that have no answer for their current pool. The window closes before a
    pair whose rows would take it past ``_STACK_CAP``; a pair alone may
    exceed it. Block r of each pair that its first r blocks did not separate
    joins one stack per set width. Then the round yields the answers in
    order while a pair's pool is still the one its answer was found on, and
    adds those pairs' tallies to ``tester.counts``."""
    spec: dict[int, list] = {}  # pair position -> [pool, separator]
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    tallies = np.zeros((len(pairs), 3), dtype=np.int64)  # per pair, as in ``first_separators``
    at = 0
    while at < len(pairs):
        window, offered = {}, 0  # the blocks of the pairs speculated on, by position
        for j in range(at, len(pairs)):
            pool = pool_of(*pairs[j])
            if j in spec and spec[j][0] == pool:
                continue
            blocks = [b for b in blocks_of(*pairs[j], pool) if b.shape[0]]
            size = sum([b.shape[0] for b in blocks])
            if offered and offered + size > _STACK_CAP:
                break
            window[j], spec[j] = blocks, [pool, None]
            offered += size
        tallies[list(window)] = 0  # a pair speculated on again starts afresh
        for r in range(max(map(len, window.values()), default=0)):
            widths: dict[int, list[int]] = {}
            for j, blocks in window.items():
                if spec[j][1] is None and r < len(blocks):
                    widths.setdefault(blocks[r].shape[1], []).append(j)
            for k, group in widths.items():
                stack = [window[j][r] for j in group]
                sizes = [b.shape[0] for b in stack]
                rows = np.empty((sum(sizes), k + 2), dtype=np.intp)
                rows[:, :2] = np.repeat(ends[group], sizes, axis=0)
                rows[:, 2:] = np.concatenate(stack)
                hits, found = tester.first_separators(rows, np.cumsum(sizes).tolist())
                tallies[group] += found
                for j, hit in zip(group, hits):
                    if hit is not None:
                        spec[j][1] = rows[hit, 2:]
        start = at
        while at in spec and spec[at][0] == pool_of(*pairs[at]):
            yield (*pairs[at], spec.pop(at)[1])
            at += 1
        tester.counts += tallies[start:at].sum(axis=0)


def _pdsep_prune(
    tester: _FisherZTester,
    g: _Graph,
    sepsets: dict[frozenset[str], frozenset[str]],
    max_cond_size: int,
) -> int:
    """Retest every surviving edge u - v, in order, against the subsets of
    u's possible-d-sep set, then v's, each by growing size; v's skip the
    sets inside u's, which come first. The two sets, on the graph that the
    earlier removals leave and kept until an edge is removed, are the
    edge's pool in ``_in_search_order``. Returns the number of edges removed."""
    index, names = tester.index, tester.names

    @functools.lru_cache(maxsize=None)
    def reach(root: int) -> tuple[int, ...]:
        return tuple(sorted(map(index.get, _possible_d_sep(g, names[root]))))

    def blocks_of(x: int, y: int, pool: tuple[tuple[int, ...], ...]) -> list[np.ndarray]:
        u, v = (np.array([w for w in root if w not in (x, y)], dtype=np.intp) for root in pool)
        blocks = [u[_combos(len(u), size)] for size in range(1, min(max_cond_size, len(u)) + 1)]
        in_u = np.isin(v, u)
        for size in range(1, min(max_cond_size, len(v)) + 1):
            combos = _combos(len(v), size)  # column by column: .all(axis=1) is slow on short rows
            blocks.append(v[combos[~np.logical_and.reduce([in_u[col] for col in combos.T])]])
        return blocks

    pairs = [(index[u], index[v]) for u, v in g.sorted_edges()]
    for x, y, separator in _in_search_order(tester, pairs, lambda x, y: (reach(x), reach(y)),
                                            blocks_of):
        if separator is not None:
            g.remove_edge(names[x], names[y])
            reach.cache_clear()
            sepsets[frozenset((names[x], names[y]))] = frozenset(names[i] for i in separator)
    return len(pairs) - len(g.sorted_edges())


# --------------------------------------------------------------------------
# orientation


def _orient_colliders(
    g: _Graph, sepsets: Mapping[frozenset[str], frozenset[str]]
) -> None:
    """Unshielded a - b - c with b outside sepset(a, c) becomes a collider at
    b. Triples whose endpoint pair was never CI-tested (no recorded sepset,
    e.g. a constraint-forbidden adjacency) are skipped: absence of a tested
    separator is not independence evidence."""
    for b in g.nodes:
        nb = g.neighbors(b)
        for a, c in itertools.combinations(nb, 2):
            pair = frozenset((a, c))
            if g.has_edge(a, c) or pair not in sepsets:
                continue
            if b not in sepsets[pair]:
                g.set_mark(a, b, Mark.ARROW, "collider")
                g.set_mark(c, b, Mark.ARROW, "collider")


def _simple_paths(
    path: list[str], steps: Callable[[list[str]], list[str] | None]
) -> Iterator[list[str]]:
    """Each complete simple path that extends ``path``, depth-first.
    ``steps(path)`` is None when ``path`` is complete, else the vertices to
    try next, in order; a vertex already on the path is skipped."""
    after = steps(path)
    if after is None:
        yield path
        return
    for w in after:
        if w not in path:
            yield from _simple_paths(path + [w], steps)


class _RuleEngine:
    """Zhang's orientation rules without selection bias (R1-R4, R8-R10)
over a marked search graph."""

    def __init__(
        self, g: _Graph, sepsets: Mapping[frozenset[str], frozenset[str]]
    ) -> None:
        self.g = g
        self.sepsets = sepsets

    def run(self) -> None:
        rules = (
            self._r1, self._r2, self._r3, self._r4, self._r8, self._r9, self._r10,
        )
        changed = True
        while changed:
            changed = False
            for rule in rules:
                changed = rule() or changed

    # -- helpers ------------------------------------------------------------

    def _is_directed(self, u: str, v: str) -> bool:
        """u -> v with both ends decided."""
        return (
            self.g.has_edge(u, v)
            and self.g.mark_at(u, v) == Mark.ARROW
            and self.g.mark_at(v, u) == Mark.TAIL
        )

    def _pd_step(self, u: str, w: str) -> bool:
        """Edge u - w traversable in a potentially directed walk u => w."""
        return (
            self.g.mark_at(w, u) != Mark.ARROW
            and self.g.mark_at(u, w) != Mark.TAIL
        )

    def _uncovered_pd_path(self, a: str, first: str, target: str) -> bool:
        """Is there an uncovered potentially directed path a, first, ...,
        target? Depth-first over simple paths, stopping at the first."""
        g = self.g

        def steps(path: list[str]) -> list[str] | None:
            tail = path[-1]
            return None if tail == target else [
                w for w in g.neighbors(tail)
                if self._pd_step(tail, w) and not g.has_edge(path[-2], w)  # covered triple
            ]

        return self._pd_step(a, first) and any(_simple_paths([a, first], steps))

    def _half_arrows(self) -> Iterator[tuple[str, str]]:
        """Each edge a o-> c as (a, c), its marks read as the walk reaches it."""
        g = self.g
        for a in g.nodes:
            for c in g.neighbors(a):
                if g.mark_at(a, c) == Mark.ARROW and g.mark_at(c, a) == Mark.CIRCLE:
                    yield a, c

    # -- rules ----------------------------------------------------------------

    def _r1(self) -> bool:
        # a *-> b o-* c, a and c non-adjacent: orient b -> c
        changed = False
        g = self.g
        for b in g.nodes:
            for a in g.neighbors(b):
                if g.mark_at(a, b) != Mark.ARROW:
                    continue
                for c in g.neighbors(b):
                    if c == a or g.has_edge(a, c) or g.mark_at(c, b) != Mark.CIRCLE:
                        continue
                    changed = g.set_mark(c, b, Mark.TAIL, "R1") or changed
                    changed = g.set_mark(b, c, Mark.ARROW, "R1") or changed
        return changed

    def _r2(self) -> bool:
        # a -> b *-> c or a *-> b -> c, with a *-o c: orient arrow at c
        changed = False
        g = self.g
        for b in g.nodes:
            for a in g.neighbors(b):
                for c in g.neighbors(b):
                    if c == a or not g.has_edge(a, c) or g.mark_at(a, c) != Mark.CIRCLE:
                        continue
                    chain1 = self._is_directed(a, b) and g.mark_at(b, c) == Mark.ARROW
                    chain2 = g.mark_at(a, b) == Mark.ARROW and self._is_directed(b, c)
                    if chain1 or chain2:
                        changed = g.set_mark(a, c, Mark.ARROW, "R2") or changed
        return changed

    def _r3(self) -> bool:
        # a *-> b <-* c, a *-o d o-* c, a and c non-adjacent, d *-o b: arrow at b
        changed = False
        g = self.g
        for b in g.nodes:
            nb = g.neighbors(b)
            for a, c in itertools.combinations(nb, 2):
                if g.has_edge(a, c) or not g.mark_at(a, b) == g.mark_at(c, b) == Mark.ARROW:
                    continue
                for d in g.neighbors(b):
                    if d in (a, c) or not (g.has_edge(a, d) and g.has_edge(c, d)):
                        continue
                    if not g.mark_at(a, d) == g.mark_at(c, d) == g.mark_at(d, b) == Mark.CIRCLE:
                        continue
                    changed = g.set_mark(d, b, Mark.ARROW, "R3") or changed
        return changed

    def _r4(self) -> bool:
        # Discriminating path <d, ..., a, b, c> for b: interior vertices are
        # colliders on the path and parents of c; d, c non-adjacent. With a
        # circle at b on b - c: b in sepset(d, c) orients b -> c, otherwise
        # the path's last triple becomes doubly bidirected.
        changed = False
        g = self.g
        for c in g.nodes:
            parents_c = [p for p in g.neighbors(c) if self._is_directed(p, c)]
            for b in g.neighbors(c):
                if g.mark_at(c, b) != Mark.CIRCLE:
                    continue
                interior_pool = [p for p in parents_c if p != b and g.has_edge(p, b)]
                for d in g.nodes:
                    if d in (b, c) or g.has_edge(d, c):
                        continue
                    pair = frozenset((d, c))
                    if pair not in self.sepsets:
                        continue
                    path = self._find_discriminating(d, b, c, interior_pool)
                    if path is None:
                        continue
                    if b in self.sepsets[pair]:
                        changed = g.set_mark(c, b, Mark.TAIL, "R4") or changed
                        changed = g.set_mark(b, c, Mark.ARROW, "R4") or changed
                    else:
                        a = path[-2]
                        changed = g.set_mark(b, a, Mark.ARROW, "R4") or changed
                        changed = g.set_mark(a, b, Mark.ARROW, "R4") or changed
                        changed = g.set_mark(c, b, Mark.ARROW, "R4") or changed
                        changed = g.set_mark(b, c, Mark.ARROW, "R4") or changed
                    break
        return changed

    def _find_discriminating(
        self, d: str, b: str, c: str, interior_pool: list[str]
    ) -> list[str] | None:
        """The first, in lexicographic order, of the paths d, w1, ..., wk, b
        (k >= 1) whose interior vertices come from interior_pool (parents of
        c adjacent to b) and are colliders on it."""
        g = self.g
        pool = set(interior_pool + [b])

        def steps(path: list[str]) -> list[str] | None:
            tail = path[-1]
            if tail == b:
                return None
            # the first hop is interior; each later one makes the tail a collider
            return sorted(w for w in pool.intersection(g.adj[tail]) if (
                w != b if len(path) == 1
                else g.mark_at(path[-2], tail) == g.mark_at(w, tail) == Mark.ARROW
            ))

        return next(_simple_paths([d], steps), None)

    def _r8(self) -> bool:
        # a -> b -> c or a --o b -> c, with a o-> c: tail at a on a - c
        changed = False
        g = self.g
        for a, c in self._half_arrows():
            for b in g.neighbors(a):
                if b == c or not self._is_directed(b, c):
                    continue
                chain1 = self._is_directed(a, b)
                chain2 = (
                    g.mark_at(b, a) == Mark.TAIL
                    and g.mark_at(a, b) == Mark.CIRCLE
                )
                if chain1 or chain2:
                    changed = g.set_mark(c, a, Mark.TAIL, "R8") or changed
        return changed

    def _r9(self) -> bool:
        # a o-> c with an uncovered potentially directed path a, b, ..., c
        # where b, c non-adjacent: tail at a
        changed = False
        g = self.g
        for a, c in self._half_arrows():
            if any(self._uncovered_pd_path(a, b, c) for b in g.neighbors(a)
                   if b != c and not g.has_edge(b, c)):
                changed = g.set_mark(c, a, Mark.TAIL, "R9") or changed
        return changed

    def _r10(self) -> bool:
        # a o-> c, b -> c <- d, uncovered pd paths from a to b and to d whose
        # first hops differ and are non-adjacent: tail at a
        changed = False
        g = self.g
        for a, c in self._half_arrows():
            parents_c = [p for p in g.neighbors(c) if p != a and self._is_directed(p, c)]
            if len(parents_c) < 2:
                continue
            firsts = [m for m in g.neighbors(a) if m != c]
            hops = [{m for m in firsts if self._uncovered_pd_path(a, m, p)} for p in parents_c]
            if any(m != w and not g.has_edge(m, w)
                   for hops_b, hops_d in itertools.combinations(hops, 2)
                   for m in hops_b for w in hops_d):
                changed = g.set_mark(c, a, Mark.TAIL, "R10") or changed
        return changed


# --------------------------------------------------------------------------
# public entry point

# thread-count (getter, setter) symbols of numpy's bundled OpenBLAS: the
# scipy-openblas build of numpy 2.x wheels, then the ILP64 build of 1.x
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.lru_cache(maxsize=1)
def _blas_threads() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS library file that
    numpy ships, or None when it ships none or it exports no known pair."""
    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                       *package.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get, put in _BLAS_THREAD_SYMBOLS:
            if hasattr(handle, get) and hasattr(handle, put):
                return getattr(handle, get), getattr(handle, put)
    return None


# blocks inside the cap, and the count to restore when the last one leaves:
# the count is process-wide, so searches in several threads share one cap
_cap_lock = threading.Lock()
_cap = {"holders": 0, "before": 1}


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Cap OpenBLAS at one thread for the block, then restore the count.

    The search's BLAS calls (one covariance, stacks of small inverses) are
    far too small for a split over threads to pay, and their bytes do not
    depend on the split. The cap is process-wide while any block holds it.
    """
    api = _blas_threads()
    if api is None:
        yield
        return
    get, put = api
    with _cap_lock:
        if not _cap["holders"]:
            _cap["before"] = get()
            put(1)
        _cap["holders"] += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap["holders"] -= 1
            if not _cap["holders"]:
                put(_cap["before"])


@_one_blas_thread()
def fci(
    ds: Dataset,
    alpha: float = 0.05,
    max_cond_size: int = 3,
    *,
    warm_adjacencies: Iterable[frozenset[str]] | None = None,
    warm_sepsets: Mapping[frozenset[str], frozenset[str]] | None = None,
) -> Pag:
    """Learn a partial ancestral graph from observational data, with the
    variables' roles as background knowledge.

    ``warm_adjacencies`` seeds the skeleton from a previous run instead of the
    complete graph; previously separated pairs are retested (at their recorded
    conditioning size when ``warm_sepsets`` provides it, else at every size up
    to ``max_cond_size``) and re-added if no separator survives; a separator
    naming a variable outside ``ds`` raises ``UnknownVariable``. The search
    runs on one BLAS thread, and the previous count is restored on return.
    """
    if ds.sample_count == 0:
        raise EmptyDataset("no rows to learn a structure from")
    if ds.sample_count <= 3:
        raise InsufficientSamples(f"{ds.sample_count} rows are too few for a Fisher-z "
                                  "test, which needs at least 4", rows=ds.sample_count)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}", alpha=alpha)
    if max_cond_size < 0:
        raise InputError(
            f"max_cond_size must be >= 0, got {max_cond_size}",
            max_cond_size=max_cond_size,
        )
    ds.require_role_coverage()
    # filled in table order, so that every entry equals numpy.cov's; then sorted
    names = tuple(sorted(ds.names))
    order = sorted(range(len(names)), key=ds.names.__getitem__)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = covariance(ds, ds.names)[np.ix_(order, order)]
    # a finite variance bounds every covariance of its column (Cauchy-Schwarz)
    overflown = [name for name, var in zip(names, np.diagonal(cov)) if not np.isfinite(var)]
    if overflown:
        raise InputError(
            f"the variance of {', '.join(overflown)} overflows; rescale those columns",
            columns=overflown,
        )
    return _search(_FisherZTester(names, ds.sample_count, cov, alpha), ds.variables,
                   max_cond_size, warm_adjacencies, warm_sepsets)


def _search(tester: _FisherZTester, variables: tuple[VariableMeta, ...], max_cond_size: int,
            warm_adjacencies: Iterable[frozenset[str]] | None = None,
            warm_sepsets: Mapping[frozenset[str], frozenset[str]] | None = None) -> Pag:
    """``fci``'s search over ``variables``, its input checked, with ``tester``
    or any object of its interface answering every CI query."""
    sc = build_constraints(variables)
    names, index = tester.names, tester.index
    sepsets: dict[frozenset[str], frozenset[str]] = {}

    # the skeleton as an adjacency matrix over column indices
    adj = np.zeros((len(names), len(names)), dtype=bool)
    if warm_adjacencies is None:
        pairs = itertools.combinations(names, 2)
    else:
        pairs = (sorted(p) for p in warm_adjacencies)
    for u, v in pairs:
        if sc.allows_adjacency(u, v):
            adj[index[u], index[v]] = adj[index[v], index[u]] = True
    if warm_adjacencies is not None:
        _retest_separated_pairs(tester, adj, sepsets, sc, max_cond_size, warm_sepsets or {})

    _prune_by_neighbors(tester, adj, sepsets, max_cond_size)

    def role_marked(pairs: Iterable[tuple[str, str]]) -> _Graph:
        """A search graph over ``pairs``, each edge with its role marks."""
        return _Graph(names, [(u, v, *sc.initial_marks(u, v)) for u, v in pairs])

    # possible-d-sep refinement needs a provisionally oriented graph
    g = role_marked((names[x], names[y]) for x, y in zip(*np.nonzero(np.triu(adj, 1))))
    _orient_colliders(g, sepsets)
    removed = _pdsep_prune(tester, g, sepsets, max_cond_size)
    logger.info("possible-d-sep pass removed %d edges", removed)

    # final orientation on a fresh graph over the pruned skeleton: neither
    # the provisional marks nor their refusals carry over
    g = role_marked(g.sorted_edges())
    _orient_colliders(g, sepsets)
    _RuleEngine(g, sepsets).run()

    edges = tuple(
        PagEdge(u, v, g.mark_at(v, u), g.mark_at(u, v)) for u, v in g.sorted_edges()
    )
    logger.info(
        "structure search: %d vertices, %d edges, %d sets inverted, "
        "%d untestable queries, %d CI tests",
        len(names), len(edges), *tester.counts[::-1].tolist(),
    )
    return Pag(variables, edges, dict(sepsets), tuple(dict.fromkeys(g.conflicts)))


def _retest_separated_pairs(
    tester: _FisherZTester,
    adj: np.ndarray,
    sepsets: dict[frozenset[str], frozenset[str]],
    sc: StructuralConstraints,
    max_cond_size: int,
    warm_sepsets: Mapping[frozenset[str], frozenset[str]],
) -> None:
    """Re-examine the pairs a previous run separated, in order; re-add the
    edge when no separator of the previously recorded size (or any size
    when unknown) still works. A pair's first set, its recorded separator
    or else the empty set, does not depend on the skeleton, so one stacked
    call per set width decides every pair's first set before the walk. The
    pairs it leaves unseparated go through ``_in_search_order`` with the
    rest of their sets, from a pool of both endpoints' neighbours, which a
    re-added edge widens for the later pairs that touch it."""
    names, index = tester.names, tester.index
    unknown = sorted(set().union(*warm_sepsets.values()) - set(names))
    if unknown:  # before any test runs
        raise UnknownVariable(f"a recorded separator names {unknown[0]!r}, which is not a "
                              "column", variable=unknown[0])

    def recorded(x: int, y: int) -> frozenset[str] | None:
        return warm_sepsets.get(frozenset((names[x], names[y])))

    pairs = [(x, y) for x, y in itertools.combinations(range(len(names)), 2)
             if not adj[x, y] and sc.allows_adjacency(names[x], names[y])]
    heads: dict[int, list[tuple[int, ...]]] = {}  # query rows by set width
    for x, y in pairs:
        head = (x, y, *sorted(index[w] for w in recorded(x, y) or ()))
        heads.setdefault(len(head), []).append(head)
    settled = set()
    for group in heads.values():
        hits, tallies = tester.first_separators(np.array(group, dtype=np.intp),
                                              range(1, len(group) + 1))
        tester.counts += tallies.sum(axis=0)
        for (x, y, *separator), hit in zip(group, hits):
            if hit is not None:
                settled.add((x, y))
                sepsets[frozenset((names[x], names[y]))] = frozenset(names[i] for i in separator)

    def pool_of(x: int, y: int) -> bytes:  # x and y stay apart until their turn
        return (adj[x] | adj[y]).tobytes()

    def blocks_of(x: int, y: int, pool: bytes) -> list[np.ndarray]:
        members = np.flatnonzero(np.frombuffer(pool, dtype=bool))
        separator = recorded(x, y)
        sizes = range(1, max_cond_size + 1) if separator is None else [len(separator)]
        return [members[_combos(members.shape[0], size)] for size in sizes]

    unsettled = [pair for pair in pairs if pair not in settled]
    for x, y, separator in _in_search_order(tester, unsettled, pool_of, blocks_of):
        if separator is None:
            adj[x, y] = adj[y, x] = True
        else:
            sepsets[frozenset((names[x], names[y]))] = frozenset(names[i] for i in separator)
