"""Constraint-aware structure discovery over system observations.

The search starts from a dense adjacency over all variables, prunes edges via
Fisher-z conditional-independence tests against neighbour subsets of growing
size, refines through a possible-d-sep pass, and then orients end marks with
the complete published rule set (colliders, the ten propagation rules
including discriminating paths). Domain structure is injected up front:
configuration options are exogenous, objectives are terminal, and role-derived
edge marks are fixed before any statistical orientation, which may therefore
never overwrite them. The result is a partial ancestral graph whose remaining
circle marks are exactly the orientations the data could not decide.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, Role, VariableMeta
from .errors import InputError, UnknownVariable
from .stats import _fisher_z_independent, partial_corrs_from_covs

logger = logging.getLogger(__name__)

# conditioning sets in a CI tester's first stack; each further stack doubles
_FIRST_CHUNK = 4


class Mark(str, Enum):
    TAIL = "tail"
    ARROW = "arrow"
    CIRCLE = "circle"


_DOT_ARROW = {Mark.TAIL: "none", Mark.ARROW: "normal", Mark.CIRCLE: "odot"}


@dataclass(frozen=True)
class PagEdge:
    """Edge with end marks; ``u < v`` lexicographically, ``mark_u`` at u's end."""

    u: str
    v: str
    mark_u: Mark
    mark_v: Mark


@dataclass(frozen=True)
class Pag:
    """Partial ancestral graph plus the separating sets found during search."""

    vertices: tuple[VariableMeta, ...]
    edges: tuple[PagEdge, ...]
    sepsets: Mapping[frozenset[str], frozenset[str]]
    conflicts: tuple[str, ...] = ()

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vertices)

    def edge_marks(self) -> dict[tuple[str, str], tuple[Mark, Mark]]:
        return {(e.u, e.v): (e.mark_u, e.mark_v) for e in self.edges}

    def circle_count(self) -> int:
        return sum(
            (e.mark_u == Mark.CIRCLE) + (e.mark_v == Mark.CIRCLE) for e in self.edges
        )

    def adjacencies(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset((e.u, e.v)) for e in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"name": v.name, "role": v.role.value, "kind": v.kind.value}
                for v in self.vertices
            ],
            "edges": [
                {"u": e.u, "v": e.v, "mark_u": e.mark_u.value, "mark_v": e.mark_v.value}
                for e in self.edges
            ],
            "sepsets": [
                {"pair": sorted(pair), "separator": sorted(sep)}
                for pair, sep in sorted(
                    self.sepsets.items(), key=lambda kv: sorted(kv[0])
                )
            ],
            "conflicts": list(self.conflicts),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Pag":
        from .dataset import Kind  # local to avoid unused import at module scope

        vertices = tuple(
            VariableMeta(e["name"], Role(e["role"]), Kind(e["kind"]))
            for e in payload["vertices"]
        )
        edges = tuple(
            PagEdge(e["u"], e["v"], Mark(e["mark_u"]), Mark(e["mark_v"]))
            for e in payload["edges"]
        )
        sepsets = {
            frozenset(e["pair"]): frozenset(e["separator"])
            for e in payload.get("sepsets", [])
        }
        return cls(vertices, edges, sepsets, tuple(payload.get("conflicts", ())))

    def to_dot(self, name: str = "pag") -> str:
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            shape = {"option": "box", "metric": "ellipse", "objective": "diamond"}[
                v.role.value
            ]
            lines.append(f'  "{v.name}" [shape={shape}];')
        for e in self.edges:
            lines.append(
                f'  "{e.u}" -> "{e.v}" [dir=both, arrowtail={_DOT_ARROW[e.mark_u]}, '
                f"arrowhead={_DOT_ARROW[e.mark_v]}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# structural constraints


@dataclass(frozen=True)
class StructuralConstraints:
    """Role-derived limits on which adjacencies and directions may appear.

    Options are exogenous (nothing points into an option and no two options
    are adjacent); objectives are terminal (nothing is caused by an
    objective); metrics sit in between.
    """

    roles: Mapping[str, Role]
    forbidden_adjacencies: frozenset[frozenset[str]]
    forbidden_directions: frozenset[tuple[str, str]]

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise UnknownVariable(f"no role known for {name!r}", variable=name) from None

    def allows_adjacency(self, u: str, v: str) -> bool:
        return frozenset((u, v)) not in self.forbidden_adjacencies

    def allows_direction(self, u: str, v: str) -> bool:
        """May an edge u -> v exist?"""
        return (
            self.allows_adjacency(u, v) and (u, v) not in self.forbidden_directions
        )

    def allows_bidirected(self, u: str, v: str) -> bool:
        """Latent confounding cannot touch an exogenous option."""
        return (
            self.allows_adjacency(u, v)
            and self.role(u) != Role.OPTION
            and self.role(v) != Role.OPTION
        )

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
    """Derive the admissible edge set from variable roles.

    Admitted directions: option->metric, option->objective, metric->metric,
    metric->objective. Option pairs are never adjacent; objectives never
    point at anything; bidirected (confounded) edges are admitted between
    non-option pairs.
    """
    roles = {v.name: v.role for v in variables}
    names = sorted(roles)
    forb_adj: set[frozenset[str]] = set()
    forb_dir: set[tuple[str, str]] = set()
    for u, v in itertools.combinations(names, 2):
        ru, rv = roles[u], roles[v]
        if ru == Role.OPTION and rv == Role.OPTION:
            forb_adj.add(frozenset((u, v)))
        for a, b, ra, rb in ((u, v, ru, rv), (v, u, rv, ru)):
            ok = ra in (Role.OPTION, Role.METRIC) and rb in (Role.METRIC, Role.OBJECTIVE)
            if not ok:
                forb_dir.add((a, b))
    return StructuralConstraints(roles, frozenset(forb_adj), frozenset(forb_dir))


# --------------------------------------------------------------------------
# mutable search graph


class _Graph:
    """Working graph: adjacency sets plus an end mark per (edge, endpoint).

    ``mark_at(u, v)`` is the mark at v's end of edge u - v. Decided marks
    (tail/arrow) are write-once: attempts to overwrite are refused and logged,
    so background knowledge always dominates statistical orientation.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        self.nodes = sorted(nodes)
        self.adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        self.marks: dict[tuple[str, str], Mark] = {}
        self.conflicts: list[str] = []

    def add_edge(self, u: str, v: str, mu: Mark = Mark.CIRCLE, mv: Mark = Mark.CIRCLE) -> None:
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
        if cur is None:
            return False
        if cur == mark:
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


class _FisherZTester:
    """Fisher-z tests against a covariance matrix computed once per dataset.

    Results are memoised per (pair, conditioning set): True (independent),
    False (dependent), or None when the query is untestable (singular
    submatrix or too few rows for the conditioning size). ``test_count``
    counts the tests that produced a statistic, ``untestable_count`` the
    untestable queries.
    """

    def __init__(self, ds: Dataset, alpha: float) -> None:
        self.alpha = float(alpha)
        self.n = ds.sample_count
        self._index = {name: i for i, name in enumerate(ds.names)}
        self._cov = np.atleast_2d(np.cov(ds.matrix(ds.names), rowvar=False))
        self._cache: dict[tuple, bool | None] = {}
        self.test_count = 0
        self.untestable_count = 0

    def first_independent(
        self, x: str, y: str, subsets: Sequence[tuple[str, ...]]
    ) -> int | None:
        """Index of the first conditioning set in ``subsets`` that separates
        x and y, or None when none does.

        Uncached sets are evaluated in stacks of growing size. Results are
        then taken in order, exactly as one test at a time would: the sets
        up to and including the first separating one are cached and
        counted, and the rest of the stack is dropped.
        """
        if y < x:
            x, y = y, x
        cache = self._cache
        pos = 0
        chunk = _FIRST_CHUNK
        while pos < len(subsets):
            key = (x, y, subsets[pos])
            if key in cache:
                if cache[key] is True:
                    return pos
                pos += 1
                continue
            batch: dict[tuple[str, ...], None] = {}
            for subset in itertools.islice(subsets, pos, None):
                if (x, y, subset) not in cache:
                    batch[subset] = None
                    if len(batch) == chunk:
                        break
            results = dict(zip(batch, self._evaluate(x, y, list(batch))))
            while results:
                subset = subsets[pos]
                key = (x, y, subset)
                if key in cache:
                    result = cache[key]
                else:
                    result, counted = results.pop(subset)
                    cache[key] = result
                    self.test_count += counted
                    self.untestable_count += result is None
                if result is True:
                    return pos
                pos += 1
            chunk *= 2
        return None

    def _evaluate(
        self, x: str, y: str, subsets: list[tuple[str, ...]]
    ) -> list[tuple[bool | None, bool]]:
        """(result, counted) per conditioning set, one stacked partial
        correlation per set size."""
        out: list[tuple[bool | None, bool]] = [(None, False)] * len(subsets)
        by_size: dict[int, list[int]] = {}
        for i, subset in enumerate(subsets):
            by_size.setdefault(len(subset), []).append(i)
        ix, iy = self._index[x], self._index[y]
        constant = self._cov[ix, ix] == 0.0 or self._cov[iy, iy] == 0.0
        for k, members in by_size.items():
            if self.n <= k + 3:
                continue
            if constant:
                for i in members:
                    out[i] = (True, False)  # constant columns carry no dependence
                continue
            idx = np.empty((len(members), k + 2), dtype=np.intp)
            idx[:, 0], idx[:, 1] = ix, iy
            idx[:, 2:] = np.fromiter(
                map(self._index.__getitem__, itertools.chain.from_iterable(
                    subsets[i] for i in members
                )),
                dtype=np.intp, count=len(members) * k,
            ).reshape(len(members), k)
            rhos = partial_corrs_from_covs(self._cov[idx[:, :, None], idx[:, None, :]])
            independent = _fisher_z_independent(rhos, self.n, k, self.alpha)
            for i, testable, result in zip(
                members, (~np.isnan(rhos)).tolist(), independent.tolist()
            ):
                if testable:
                    out[i] = (result, True)
        return out


# --------------------------------------------------------------------------
# skeleton search


def _sorted_adjacent_pairs(adj: Mapping[str, set[str]]) -> list[tuple[str, str]]:
    return [(u, v) for u in sorted(adj) for v in sorted(adj[u]) if u < v]


def _prune_by_neighbors(
    tester: _FisherZTester,
    adj: dict[str, set[str]],
    sepsets: dict[frozenset[str], frozenset[str]],
    max_cond_size: int,
) -> None:
    """Stable pruning rounds: neighbourhoods are snapshotted per subset-size
    round and removals commit at round end, so results equal sequential
    execution regardless of test scheduling."""
    for level in range(max_cond_size + 1):
        snapshot = {u: tuple(sorted(adj[u])) for u in adj}
        testable = False
        removals: list[tuple[str, str, tuple[str, ...]]] = []
        for u, v in _sorted_adjacent_pairs(adj):
            cand_u = [w for w in snapshot[u] if w != v]
            cand_v = [w for w in snapshot[v] if w != u]
            if len(cand_u) < level and len(cand_v) < level:
                continue
            testable = True
            subsets = sorted(
                set(itertools.combinations(cand_u, level))
                | set(itertools.combinations(cand_v, level))
            )
            hit = tester.first_independent(u, v, subsets)
            if hit is not None:
                removals.append((u, v, subsets[hit]))
        for u, v, subset in removals:
            adj[u].discard(v)
            adj[v].discard(u)
            sepsets[frozenset((u, v))] = frozenset(subset)
        if not testable:
            break


def _possible_d_sep(g: _Graph, x: str) -> set[str]:
    """Vertices reachable from x along paths whose interior vertices are each
    either a collider on the path or part of an adjacent (shielded) triple."""
    reached: set[str] = set()
    seen: set[tuple[str, str]] = set()
    frontier: deque[tuple[str, str]] = deque()
    for w in g.neighbors(x):
        seen.add((x, w))
        frontier.append((x, w))
    while frontier:
        prev, cur = frontier.popleft()
        reached.add(cur)
        for nxt in g.neighbors(cur):
            if nxt == prev or nxt == x or (cur, nxt) in seen:
                continue
            collider = (
                g.mark_at(prev, cur) == Mark.ARROW
                and g.mark_at(nxt, cur) == Mark.ARROW
            )
            if collider or g.has_edge(prev, nxt):
                seen.add((cur, nxt))
                frontier.append((cur, nxt))
    reached.discard(x)
    return reached


def _pdsep_prune(
    tester: _FisherZTester,
    g: _Graph,
    sepsets: dict[frozenset[str], frozenset[str]],
    max_cond_size: int,
) -> bool:
    """Retest every surviving edge against possible-d-sep subsets."""
    removed_any = False
    for u, v in g.sorted_edges():
        if not g.has_edge(u, v):
            continue
        subsets: dict[tuple[str, ...], None] = {}
        for root in (u, v):
            pool = sorted(_possible_d_sep(g, root) - {u, v})
            for size in range(1, max_cond_size + 1):
                subsets.update(dict.fromkeys(itertools.combinations(pool, size)))
        order = list(subsets)
        hit = tester.first_independent(u, v, order)
        if hit is not None:
            g.remove_edge(u, v)
            sepsets[frozenset((u, v))] = frozenset(order[hit])
            removed_any = True
    return removed_any


# --------------------------------------------------------------------------
# orientation


def _apply_background(g: _Graph, sc: StructuralConstraints) -> None:
    for u, v in g.sorted_edges():
        mu, mv = sc.initial_marks(u, v)
        if mu != Mark.CIRCLE:
            g.set_mark(v, u, mu, "background")
        if mv != Mark.CIRCLE:
            g.set_mark(u, v, mv, "background")


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
            if g.has_edge(a, c):
                continue
            pair = frozenset((a, c))
            if pair not in sepsets:
                continue
            if b not in sepsets[pair]:
                g.set_mark(a, b, Mark.ARROW, "collider")
                g.set_mark(c, b, Mark.ARROW, "collider")


class _RuleEngine:
    """Zhang's complete orientation rule set over a marked search graph."""

    def __init__(
        self, g: _Graph, sepsets: Mapping[frozenset[str], frozenset[str]]
    ) -> None:
        self.g = g
        self.sepsets = sepsets

    def run(self) -> None:
        rules = (
            self._r1, self._r2, self._r3, self._r4, self._r5,
            self._r6, self._r7, self._r8, self._r9, self._r10,
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

    def _uncovered_pd_paths(
        self, a: str, target: str, first_hop_ok=None, cap: int = 256
    ) -> list[list[str]]:
        """All uncovered potentially directed paths a => ... => target,
        depth-first in sorted order, capped for safety."""
        out: list[list[str]] = []

        def extend(path: list[str]) -> None:
            if len(out) >= cap:
                return
            tail = path[-1]
            for w in self.g.neighbors(tail):
                if w in path or not self._pd_step(tail, w):
                    continue
                if len(path) >= 2 and self.g.has_edge(path[-2], w):
                    continue  # covered triple
                if len(path) == 1 and first_hop_ok is not None and not first_hop_ok(w):
                    continue
                if w == target:
                    out.append(path + [w])
                    if len(out) >= cap:
                        return
                    continue
                extend(path + [w])

        extend([a])
        return out

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
                    if c == a or g.has_edge(a, c):
                        continue
                    if g.mark_at(c, b) != Mark.CIRCLE:
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
                    if c == a or not g.has_edge(a, c):
                        continue
                    if g.mark_at(a, c) != Mark.CIRCLE:
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
                if g.has_edge(a, c):
                    continue
                if g.mark_at(a, b) != Mark.ARROW or g.mark_at(c, b) != Mark.ARROW:
                    continue
                for d in g.neighbors(b):
                    if d in (a, c):
                        continue
                    if not (g.has_edge(a, d) and g.has_edge(c, d)):
                        continue
                    if g.mark_at(a, d) != Mark.CIRCLE or g.mark_at(c, d) != Mark.CIRCLE:
                        continue
                    if g.mark_at(d, b) != Mark.CIRCLE:
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
        """A path d, w1, ..., wk, b (k >= 1) whose interior vertices come from
        interior_pool (parents of c adjacent to b) and are colliders on it."""
        g = self.g

        def extend(path: list[str]) -> list[str] | None:
            tail = path[-1]
            for w in sorted(set(interior_pool + [b]) & set(g.neighbors(tail))):
                if w in path:
                    continue
                # collider check for the previous interior vertex
                if len(path) >= 2:
                    mid = path[-1]
                    if not (
                        g.mark_at(path[-2], mid) == Mark.ARROW
                        and g.mark_at(w, mid) == Mark.ARROW
                    ):
                        continue
                if w == b:
                    if len(path) >= 2:
                        return path + [w]
                    continue  # need at least one interior collider
                result = extend(path + [w])
                if result is not None:
                    return result
            return None

        return extend([d])

    def _r5(self) -> bool:
        # Uncovered circle path between a o-o b: everything on it becomes
        # undirected (selection structure).
        changed = False
        g = self.g
        for a, b in g.sorted_edges():
            if g.mark_at(a, b) != Mark.CIRCLE or g.mark_at(b, a) != Mark.CIRCLE:
                continue
            path = self._find_circle_path(a, b)
            if path is None:
                continue
            pairs = [(a, b)] + list(zip(path, path[1:]))
            for u, v in pairs:
                changed = g.set_mark(u, v, Mark.TAIL, "R5") or changed
                changed = g.set_mark(v, u, Mark.TAIL, "R5") or changed
        return changed

    def _find_circle_path(self, a: str, b: str) -> list[str] | None:
        """Uncovered path a, c, ..., d, b of circle-circle edges with c not
        adjacent to b and d not adjacent to a."""
        g = self.g

        def circle_edge(u: str, v: str) -> bool:
            return (
                g.mark_at(u, v) == Mark.CIRCLE and g.mark_at(v, u) == Mark.CIRCLE
            )

        def extend(path: list[str]) -> list[str] | None:
            tail = path[-1]
            for w in g.neighbors(tail):
                if w in path or not circle_edge(tail, w):
                    continue
                if len(path) >= 2 and g.has_edge(path[-2], w):
                    continue
                if len(path) == 1 and (w == b or g.has_edge(w, b)):
                    continue  # first hop must not touch b
                if w == b:
                    if not g.has_edge(path[-1], a) and len(path) >= 2:
                        return path + [w]
                    continue
                found = extend(path + [w])
                if found is not None:
                    return found
            return None

        return extend([a])

    def _r6(self) -> bool:
        # a --- b o-* c: the circle at b becomes a tail
        changed = False
        g = self.g
        for b in g.nodes:
            has_undirected = any(
                g.mark_at(a, b) == Mark.TAIL and g.mark_at(b, a) == Mark.TAIL
                for a in g.neighbors(b)
            )
            if not has_undirected:
                continue
            for c in g.neighbors(b):
                if g.mark_at(c, b) == Mark.CIRCLE:
                    changed = g.set_mark(c, b, Mark.TAIL, "R6") or changed
        return changed

    def _r7(self) -> bool:
        # a --o b o-* c with a, c non-adjacent: the circle at b (toward c)
        # becomes a tail
        changed = False
        g = self.g
        for b in g.nodes:
            for a in g.neighbors(b):
                if not (
                    g.mark_at(b, a) == Mark.TAIL and g.mark_at(a, b) == Mark.CIRCLE
                ):
                    continue
                for c in g.neighbors(b):
                    if c == a or g.has_edge(a, c):
                        continue
                    if g.mark_at(c, b) == Mark.CIRCLE:
                        changed = g.set_mark(c, b, Mark.TAIL, "R7") or changed
        return changed

    def _r8(self) -> bool:
        # a -> b -> c or a --o b -> c, with a o-> c: tail at a on a - c
        changed = False
        g = self.g
        for a in g.nodes:
            for c in g.neighbors(a):
                if not (
                    g.mark_at(a, c) == Mark.ARROW and g.mark_at(c, a) == Mark.CIRCLE
                ):
                    continue
                for b in g.neighbors(a):
                    if b == c or not g.has_edge(b, c):
                        continue
                    if not self._is_directed(b, c):
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
        for a in g.nodes:
            for c in g.neighbors(a):
                if not (
                    g.mark_at(a, c) == Mark.ARROW and g.mark_at(c, a) == Mark.CIRCLE
                ):
                    continue
                paths = self._uncovered_pd_paths(
                    a, c, first_hop_ok=lambda w: w != c and not g.has_edge(w, c),
                    cap=1,
                )
                if paths:
                    changed = g.set_mark(c, a, Mark.TAIL, "R9") or changed
        return changed

    def _r10(self) -> bool:
        # a o-> c, b -> c <- d, uncovered pd paths from a to b and to d whose
        # first hops differ and are non-adjacent: tail at a
        changed = False
        g = self.g
        for a in g.nodes:
            for c in g.neighbors(a):
                if not (
                    g.mark_at(a, c) == Mark.ARROW and g.mark_at(c, a) == Mark.CIRCLE
                ):
                    continue
                parents_c = [
                    p for p in g.neighbors(c) if p != a and self._is_directed(p, c)
                ]
                done = False
                for b, d in itertools.permutations(parents_c, 2):
                    hops_b = {
                        p[1] for p in self._uncovered_pd_paths(a, b) if p[1] != c
                    }
                    hops_d = {
                        p[1] for p in self._uncovered_pd_paths(a, d) if p[1] != c
                    }
                    for m in sorted(hops_b):
                        for w in sorted(hops_d):
                            if m != w and not g.has_edge(m, w):
                                changed = g.set_mark(c, a, Mark.TAIL, "R10") or changed
                                done = True
                                break
                        if done:
                            break
                    if done:
                        break
        return changed


def _orient(
    g: _Graph,
    sc: StructuralConstraints,
    sepsets: Mapping[frozenset[str], frozenset[str]],
) -> None:
    _apply_background(g, sc)
    _orient_colliders(g, sepsets)
    _RuleEngine(g, sepsets).run()


def _reset_marks(g: _Graph) -> None:
    for u, v in g.sorted_edges():
        g.marks[(u, v)] = Mark.CIRCLE
        g.marks[(v, u)] = Mark.CIRCLE


# --------------------------------------------------------------------------
# public entry point


def fci(
    ds: Dataset,
    sc: StructuralConstraints,
    alpha: float = 0.05,
    max_cond_size: int = 3,
    *,
    warm_adjacencies: Iterable[frozenset[str]] | None = None,
    warm_sepsets: Mapping[frozenset[str], frozenset[str]] | None = None,
) -> Pag:
    """Learn a partial ancestral graph from observational data.

    ``warm_adjacencies`` seeds the skeleton from a previous run instead of the
    complete graph; previously separated pairs are retested (at their recorded
    conditioning size when ``warm_sepsets`` provides it, else at every size up
    to ``max_cond_size``) and re-added if no separator survives.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}", alpha=alpha)
    if max_cond_size < 0:
        raise InputError(
            f"max_cond_size must be >= 0, got {max_cond_size}",
            max_cond_size=max_cond_size,
        )
    ds.require_role_coverage()
    names = sorted(ds.names)
    tester = _FisherZTester(ds, alpha)
    sepsets: dict[frozenset[str], frozenset[str]] = {}

    adj: dict[str, set[str]] = {n: set() for n in names}
    if warm_adjacencies is None:
        for u, v in itertools.combinations(names, 2):
            if sc.allows_adjacency(u, v):
                adj[u].add(v)
                adj[v].add(u)
    else:
        warm_set = {frozenset(p) for p in warm_adjacencies}
        for pair in warm_set:
            u, v = sorted(pair)
            if sc.allows_adjacency(u, v):
                adj[u].add(v)
                adj[v].add(u)
        _retest_separated_pairs(
            tester, adj, sepsets, sc, names, max_cond_size, warm_sepsets or {}
        )

    _prune_by_neighbors(tester, adj, sepsets, max_cond_size)

    # possible-d-sep refinement needs a provisionally oriented graph
    g = _Graph(names)
    for u, v in _sorted_adjacent_pairs(adj):
        g.add_edge(u, v)
    _apply_background(g, sc)
    _orient_colliders(g, sepsets)
    if _pdsep_prune(tester, g, sepsets, max_cond_size):
        logger.info("possible-d-sep pass removed edges; re-orienting")

    # final orientation from a clean slate on the pruned skeleton
    _reset_marks(g)
    _orient(g, sc, sepsets)

    # hard constraint recheck: the output may not contain a forbidden
    # adjacency or a decided direction the constraints exclude
    for u, v in g.sorted_edges():
        mu, mv = g.mark_at(v, u), g.mark_at(u, v)
        bad = not sc.allows_adjacency(u, v)
        if mu == Mark.TAIL and mv == Mark.ARROW and not sc.allows_direction(u, v):
            bad = True
        if mu == Mark.ARROW and mv == Mark.TAIL and not sc.allows_direction(v, u):
            bad = True
        if mu == Mark.ARROW and mv == Mark.ARROW and not sc.allows_bidirected(u, v):
            bad = True
        if bad:
            g.conflicts.append(f"constraint: dropped forbidden edge {u}-{v}")
            g.remove_edge(u, v)

    edges = tuple(
        PagEdge(u, v, g.mark_at(v, u), g.mark_at(u, v)) for u, v in g.sorted_edges()
    )
    logger.info(
        "structure search: %d vertices, %d edges, %d untestable queries, %d CI tests",
        len(names), len(edges), tester.untestable_count, tester.test_count,
    )
    return Pag(ds.variables, edges, dict(sepsets), tuple(g.conflicts))


def _retest_separated_pairs(
    tester: _FisherZTester,
    adj: dict[str, set[str]],
    sepsets: dict[frozenset[str], frozenset[str]],
    sc: StructuralConstraints,
    names: Sequence[str],
    max_cond_size: int,
    warm_sepsets: Mapping[frozenset[str], frozenset[str]],
) -> None:
    """Re-examine pairs a previous run separated; re-add the edge when no
    separator of the previously recorded size (or any size when unknown)
    still works."""
    for u, v in itertools.combinations(names, 2):
        if v in adj[u] or not sc.allows_adjacency(u, v):
            continue
        recorded = warm_sepsets.get(frozenset((u, v)))
        pool = sorted((adj[u] | adj[v]) - {u, v})
        levels: Iterable[list[tuple[str, ...]]]
        if recorded is not None:
            first_try = tuple(sorted(recorded))
            levels = [[first_try, *itertools.combinations(pool, len(first_try))]]
        else:
            levels = (
                list(itertools.combinations(pool, size))
                for size in range(max_cond_size + 1)
            )
        found: tuple[str, ...] | None = None
        for subsets in levels:
            hit = tester.first_independent(u, v, subsets)
            if hit is not None:
                found = subsets[hit]
                # an empty separator does not end the search: the first
                # non-empty one at a larger size replaces it
                if found:
                    break
        if found is not None:
            sepsets[frozenset((u, v))] = frozenset(found)
        else:
            adj[u].add(v)
            adj[v].add(u)
