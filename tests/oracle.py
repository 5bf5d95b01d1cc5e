"""A CI tester that answers by m-separation in a known graph, with the
interface of ``discovery._FisherZTester``: the reference for checking what
the structure search makes of perfect test answers."""

from __future__ import annotations

import itertools

import numpy as np

from confcause.resolve import Admg


class OracleTester:
    """CI tests answered by m-separation in ``graph``, with each bidirected
    edge taken as a latent parent of its two endpoints. Every set reached
    counts as one test; none is untestable or inverted."""

    def __init__(self, graph: Admg) -> None:
        self.names = tuple(sorted(graph.vertex_names))
        self.index = {name: i for i, name in enumerate(self.names)}
        self.parents = {v: set(graph.parents(v)) for v in self.names}
        for pair in graph.bidirected:
            latent = "latent:" + "|".join(sorted(pair))
            self.parents[latent] = set()
            for v in pair:
                self.parents[v].add(latent)
        self.counts = np.zeros(3, dtype=np.int64)  # tests, untestable, inverted
        self._cache: dict[tuple[str, str, frozenset[str]], bool] = {}

    def separated(self, x: str, y: str, given: frozenset[str]) -> bool:
        """d-separation of x and y given ``given`` in the graph with its
        latents: x and y are disconnected in the moral graph of the
        ancestors of {x, y} | given once ``given`` is removed."""
        key = (x, y, given)
        if key in self._cache:
            return self._cache[key]
        ancestral: set[str] = set()
        stack = [x, y, *given]
        while stack:
            v = stack.pop()
            if v not in ancestral:
                ancestral.add(v)
                stack.extend(self.parents[v])
        moral: dict[str, set[str]] = {v: set() for v in ancestral}
        for v in ancestral:
            for p in self.parents[v]:
                moral[v].add(p)
                moral[p].add(v)
            for a, b in itertools.combinations(self.parents[v], 2):
                moral[a].add(b)
                moral[b].add(a)
        reached, stack = {x}, [x]
        while stack:
            for w in moral[stack.pop()] - given - reached:
                reached.add(w)
                stack.append(w)
        self._cache[key] = y not in reached
        return self._cache[key]

    def first_separators(self, rows, stops):
        """Each query's first separating row, or None, and its tally of
        ``counts``; nothing is counted here."""
        hits, tallies, start = [], np.zeros((len(stops), 3), dtype=np.int64), 0
        for j, stop in enumerate(stops):
            hit = None
            for i in range(start, stop):
                x, y, *given = (self.names[w] for w in rows[i])
                tallies[j, 0] += 1
                if self.separated(x, y, frozenset(given)):
                    hit = i
                    break
            hits.append(hit)
            start = stop
        return hits, tallies
