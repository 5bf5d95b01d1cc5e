"""The depth-first path searches of the rule engine and of path extraction,
against brute-force enumerations of simple paths on small random graphs."""

import itertools
import logging

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confcause.dataset import Kind, Role, VariableMeta
from confcause.discovery import Mark, _Graph, _RuleEngine
from confcause.effects import extract_paths
from confcause.resolve import Admg


def _sequences(names, start, end):
    """Every sequence of distinct vertices start, ..., end."""
    inner = [n for n in names if n not in (start, end)]
    for k in range(len(inner) + 1):
        for mid in itertools.permutations(inner, k):
            yield [start, *mid, end]


@st.composite
def marked_graphs(draw, marks=tuple(Mark)):
    """A search graph over 3-6 vertices, each end mark drawn from ``marks``."""
    names = "abcdef"[:draw(st.integers(3, 6))]
    pairs = list(itertools.combinations(names, 2))
    g = _Graph(names)
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
        g.add_edge(u, v, draw(st.sampled_from(marks)), draw(st.sampled_from(marks)))
    return g


def _is_uncovered_pd_path(g, path):
    """Adjacent steps, none into an arrowhead at its start or a tail at its
    end, and no two vertices two steps apart adjacent."""
    return all(
        g.has_edge(u, w) and g.mark_at(w, u) != Mark.ARROW and g.mark_at(u, w) != Mark.TAIL
        for u, w in zip(path, path[1:])
    ) and not any(g.has_edge(u, w) for u, w in zip(path, path[2:]))


@given(marked_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_uncovered_pd_path_matches_brute_force(g, data):
    a = data.draw(st.sampled_from(g.nodes))
    assume(g.adj[a])
    first = data.draw(st.sampled_from(g.neighbors(a)))
    target = data.draw(st.sampled_from([n for n in g.nodes if n != a]))
    want = any(
        _is_uncovered_pd_path(g, path)
        for path in _sequences(g.nodes, a, target) if path[1] == first
    )
    assert _RuleEngine(g, {})._uncovered_pd_path(a, first, target) == want


def _is_discriminating(g, path, pool):
    """d, w1, ..., wk, b with k >= 1, adjacent steps, and every interior
    vertex from ``pool`` and a collider on the path."""
    return len(path) > 2 and set(path[1:-1]) <= pool and all(
        g.has_edge(u, w) for u, w in zip(path, path[1:])
    ) and all(
        g.mark_at(u, w) == g.mark_at(x, w) == Mark.ARROW
        for u, w, x in zip(path, path[1:], path[2:])
    )


# arrowheads weighted up, so that colliders and discriminating paths are common
@given(marked_graphs((Mark.ARROW,) * 3 + (Mark.TAIL, Mark.CIRCLE)), st.data())
@settings(max_examples=300, deadline=None)
def test_find_discriminating_is_the_least_valid_path(g, data):
    d, b, c = data.draw(st.permutations(g.nodes))[:3]
    pool = set(g.nodes) - {b, c, d} - data.draw(st.sets(st.sampled_from(g.nodes), max_size=1))
    want = min(
        (path for path in _sequences(g.nodes, d, b) if _is_discriminating(g, path, pool)),
        default=None,
    )
    assert _RuleEngine(g, {})._find_discriminating(d, b, c, sorted(pool)) == want


@st.composite
def admgs(draw):
    """An ADMG over 1-2 options, 0-4 metrics and 1-2 objectives, with
    directed and bidirected edges between any roles."""
    counts = {("o", Role.OPTION): draw(st.integers(1, 2)),
              ("m", Role.METRIC): draw(st.integers(0, 4)),
              ("y", Role.OBJECTIVE): draw(st.integers(1, 2))}
    variables = [
        VariableMeta(f"{prefix}{i}", role, Kind.DISCRETE)
        for (prefix, role), count in counts.items() for i in range(count)
    ]
    order = draw(st.permutations([v.name for v in variables]))
    pairs = list(itertools.combinations(order, 2))  # directed along ``order``
    directed = draw(st.lists(st.sampled_from(pairs), unique=True))
    bidirected = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Admg(tuple(variables), frozenset(directed), frozenset(map(frozenset, bidirected)))


class _Discarded(logging.Handler):
    """The count of the discarded-walks record, 0 without one."""

    count = 0

    def emit(self, record):
        self.count = record.args[0]


@given(admgs(), st.data())
@settings(max_examples=300, deadline=None)
def test_extract_paths_matches_brute_force(admg, data):
    roles = {v.name: v.role for v in admg.vertices}
    objective = data.draw(st.sampled_from([n for n, r in roles.items() if r == Role.OBJECTIVE]))
    metrics = [n for n, r in roles.items() if r == Role.METRIC]
    sources = [n for n, r in roles.items() if r != Role.OBJECTIVE]

    def before(u, w):
        """u -> w or u <-> w."""
        return (u, w) in admg.directed or frozenset((u, w)) in admg.bidirected

    want = sorted(
        path
        for o in sources if roles[o] == Role.OPTION and not admg.parents(o)
        for k in range(len(metrics) + 1) for mid in itertools.permutations(metrics, k)
        for path in [(o, *mid, objective)]
        if all(before(u, w) for u, w in zip(path, path[1:]))
    )
    # maximal backward walks: metrics inside, ending at an option or where
    # every non-objective predecessor is already on the walk
    walks = 0
    for k in range(len(sources) + 1):
        for back in itertools.permutations(sources, k):
            walk = (objective, *back)
            if any(roles[v] == Role.OPTION for v in walk[1:-1]):
                continue
            if not all(before(w, u) for u, w in zip(walk, walk[1:])):
                continue
            walks += roles[walk[-1]] == Role.OPTION or all(
                v in walk for v in sources if before(v, walk[-1])
            )

    handler, logger = _Discarded(), logging.getLogger("confcause.effects")
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    try:
        got = extract_paths(admg, objective)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert got == want
    assert handler.count == walks - len(want)
