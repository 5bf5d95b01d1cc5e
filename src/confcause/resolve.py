"""Resolution of undecided edge marks into a mixed causal graph.

A discovered graph usually keeps circle marks where the data could not settle
an orientation. Each such edge is resolved from the pair's one table of joint
counts: if the exogenous noise of the pair's function, in its cheaper
direction, needs fewer bits than a fraction of the less complex endpoint, the
edge becomes bidirected; otherwise the edge points from the endpoint whose
conditional entropy of the other is smaller. The output is an acyclic
directed mixed graph (ADMG): directed edges plus bidirected confounding
edges, no circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Mapping

from .dataset import Dataset, Role, VariableMeta, _Record
from .discovery import Mark, Pag, StructuralConstraints, build_constraints
from .errors import EngineError, InputError, UnknownVertex
from .stats import contingency_table, count_bits, coupling_bits

_DOT_SHAPE = {Role.OPTION: "box", Role.METRIC: "ellipse", Role.OBJECTIVE: "diamond"}


@dataclass(frozen=True)
class Admg(_Record):
    """Acyclic directed mixed graph over named vertices."""

    vertices: tuple[VariableMeta, ...]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[frozenset[str]]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = set(self.vertex_names)
        parents: dict[str, list[str]] = {n: [] for n in self.vertex_names}
        spouses: dict[str, set[str]] = {n: set() for n in self.vertex_names}
        for u, v in self.directed:
            if u not in names or v not in names:
                raise UnknownVertex(f"edge endpoint not a vertex: {u}->{v}")
        for pair in self.bidirected:
            if not pair <= names:
                raise UnknownVertex(f"edge endpoints not vertices: {sorted(pair)}")
            for v in pair:
                spouses[v] |= pair - {v}
        # parents and the topological order, kept for their accessors; a cycle fails here
        sorter = TopologicalSorter({n: [] for n in self.vertex_names})
        for u, v in sorted(self.directed):
            parents[v].append(u)
            sorter.add(v, u)
        try:
            sorter.prepare()
        except CycleError as exc:
            raise EngineError(f"directed part contains a cycle: {exc}") from exc
        order: list[str] = []
        while sorter.is_active():
            ready = sorted(sorter.get_ready())
            order.extend(ready)
            sorter.done(*ready)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_parents", {n: tuple(ps) for n, ps in parents.items()})
        object.__setattr__(self, "_spouses", {n: tuple(sorted(s)) for n, s in spouses.items()})

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vertices)

    def meta(self, name: str) -> VariableMeta:
        for v in self.vertices:
            if v.name == name:
                return v
        raise UnknownVertex(f"no such vertex: {name}", vertex=name)

    def parents(self, v: str) -> tuple[str, ...]:
        return self._parents.get(v, ())

    def spouses(self, v: str) -> tuple[str, ...]:
        """Vertices joined to v by a bidirected edge."""
        return self._spouses.get(v, ())

    def ancestors(self, v: str) -> frozenset[str]:
        """Strict ancestors of v along directed edges."""
        seen: set[str] = set()
        stack = list(self.parents(v))
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self.parents(u))
        return frozenset(seen)

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Admg":
        vertices = tuple(map(VariableMeta.from_json_dict, payload["vertices"]))
        directed = frozenset((u, v) for u, v in payload.get("directed", []))
        bidirected = frozenset(frozenset(p) for p in payload.get("bidirected", []))
        return cls(vertices, directed, bidirected, tuple(payload.get("notes", ())))

    def to_dot(self) -> str:
        """The graph in DOT, one node per vertex shaped by role."""
        lines = ["digraph model {"] + [
            f'  "{v.name}" [shape={_DOT_SHAPE[v.role]}];' for v in self.vertices
        ]
        for u, v in sorted(self.directed):
            lines.append(f'  "{u}" -> "{v}";')
        for pair in sorted(self.bidirected, key=sorted):
            a, b = sorted(pair)
            lines.append(f'  "{a}" -> "{b}" [dir=both, style=dashed];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def entropy_threshold(h_first: float, h_second: float, ratio: float = 0.8) -> float:
    """Latent-entropy budget for treating a dependence as pure confounding:
    a fraction of the simpler endpoint's marginal entropy."""
    if not ratio > 0.0:
        raise InputError(f"ratio must be positive, got {ratio}", ratio=ratio)
    return ratio * min(h_first, h_second)


class _Assembler:
    """Accumulates resolved edges, repairing constraint and cycle violations."""

    def __init__(self, sc: StructuralConstraints) -> None:
        self.sc = sc
        self.directed: set[tuple[str, str]] = set()
        self.bidirected: set[frozenset[str]] = set()
        self.notes: list[str] = []

    def _reaches(self, src: str, dst: str) -> bool:
        stack = [src]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(w for u, w in self.directed if u == cur)
        return False

    def _direction_ok(self, u: str, v: str) -> bool:
        # the roles admit u->v, and adding it closes no cycle
        return self.sc.allows_direction(u, v) and not self._reaches(v, u)

    def add_directed(self, u: str, v: str, origin: str) -> None:
        if self._direction_ok(u, v):
            self.directed.add((u, v))
            return
        if self._direction_ok(v, u):
            self.notes.append(f"{origin}: reversed {u}->{v} (constraint/cycle)")
            self.directed.add((v, u))
            return
        self.notes.append(f"{origin}: demoted {u}->{v} to bidirected (constraint/cycle)")
        self.add_bidirected(u, v, origin)

    def add_bidirected(self, u: str, v: str, origin: str) -> None:
        if not self.sc.allows_bidirected(u, v):
            # an exogenous endpoint cannot be confounded; point away from it
            if self.sc.role(u) == Role.OPTION and self._direction_ok(u, v):
                self.notes.append(f"{origin}: bidirected {u}-{v} redirected as {u}->{v}")
                self.directed.add((u, v))
                return
            if self.sc.role(v) == Role.OPTION and self._direction_ok(v, u):
                self.notes.append(f"{origin}: bidirected {u}-{v} redirected as {v}->{u}")
                self.directed.add((v, u))
                return
            self.notes.append(f"{origin}: dropped inadmissible bidirected {u}-{v}")
            return
        self.bidirected.add(frozenset((u, v)))


def resolve_edges(
    pag: Pag,
    ds: Dataset,
    theta_ratio: float = 0.8,
) -> Admg:
    """Resolve every undecided edge of ``pag`` into a directed or bidirected
    edge using entropies computed on ``ds`` (which must be fully discrete),
    under the role constraints of ``pag.vertices``.

    Decided marks are copied verbatim. Each edge u - v (u < v) with a circle
    end is judged from one table of its joint counts. The smaller of the
    greedy coupling's H(E), E the exogenous noise with v = f(u, E), and its
    H(E) with u = f(v, E), is compared against ``theta_ratio * min(H(u),
    H(v))``: strictly below means bidirected, otherwise the direction with
    the smaller conditional entropy of effect given cause is emitted; a tie
    emits v -> u, and with equal-frequency bins every edge between two
    continuous columns ties. Constraint- or cycle-violating emissions are
    repaired (reversed, else demoted to bidirected) and logged.
    """
    if not theta_ratio > 0.0:
        raise InputError(
            f"theta_ratio must be positive, got {theta_ratio}", theta_ratio=theta_ratio
        )
    asm = _Assembler(build_constraints(pag.vertices))
    undecided: list[tuple[str, str]] = []
    for edge in sorted(pag.edges, key=lambda e: (e.u, e.v)):
        mu, mv = edge.mark_u, edge.mark_v
        if mu == Mark.TAIL and mv == Mark.ARROW:
            asm.add_directed(edge.u, edge.v, "copy")
        elif mu == Mark.ARROW and mv == Mark.TAIL:
            asm.add_directed(edge.v, edge.u, "copy")
        elif mu == Mark.ARROW and mv == Mark.ARROW:
            asm.add_bidirected(edge.u, edge.v, "copy")
        else:
            undecided.append((edge.u, edge.v))

    for u, v in undecided:
        table = contingency_table(ds, u, v)
        h_u, h_v = count_bits(table.sum(axis=1)), count_bits(table.sum(axis=0))
        latent_bits = min(coupling_bits(table), coupling_bits(table.T))
        if latent_bits < entropy_threshold(h_u, h_v, theta_ratio):
            asm.add_bidirected(u, v, "entropy")
            continue
        h_uv = count_bits(table[table > 0])
        # H(v | u) < H(u | v): less residual complexity if u causes v
        if h_uv - h_u < h_uv - h_v:
            asm.add_directed(u, v, "entropy")
        else:
            asm.add_directed(v, u, "entropy")

    return Admg(
        pag.vertices,
        frozenset(asm.directed),
        frozenset(asm.bidirected),
        tuple(asm.notes),
    )
