"""Edge-resolution behavior: entropy branch decisions and repair discipline."""

import math

import numpy as np
import pytest

from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.discovery import Mark, Pag, PagEdge, fci
from confcause.errors import EngineError, InputError
from confcause.resolve import Admg, entropy_threshold, resolve_edges
from confcause.synthbench import sample

from test_discovery import confounded_system


def _discrete(name, role=Role.METRIC):
    return VariableMeta(name, role, Kind.DISCRETE)


def pair_dataset(blocks, names=("u", "v")):
    """Columns built from exact (u_value, v_value, count) triples."""
    us = np.concatenate([np.full(c, u, dtype=np.int64) for u, _, c in blocks])
    vs = np.concatenate([np.full(c, v, dtype=np.int64) for _, v, c in blocks])
    variables = tuple(map(_discrete, names))
    return Dataset(variables, dict(zip(names, (us, vs))), len(us))


def circle_pag(ds):
    return Pag(
        ds.variables,
        (PagEdge("u", "v", Mark.CIRCLE, Mark.CIRCLE),),
        sepsets={},
    )


class TestEntropyBranch:
    def test_threshold_is_scaled_minimum(self):
        assert entropy_threshold(2.0, 1.0) == pytest.approx(0.8)
        assert entropy_threshold(1.0, 3.0, ratio=0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan])
    def test_nonpositive_ratio_rejected(self, ratio):
        with pytest.raises(InputError):
            entropy_threshold(1.0, 1.0, ratio=ratio)
        # checked on entry, so it fails with no circle edge left to resolve
        ds = pair_dataset([(0, 0, 5), (1, 1, 5)])
        decided = Pag(ds.variables, (PagEdge("u", "v", Mark.TAIL, Mark.ARROW),), {})
        with pytest.raises(InputError):
            resolve_edges(decided, ds, theta_ratio=ratio)

    def test_deterministic_copy_is_judged_confounded(self):
        # H(Z)=0 for a functional pair: strictly below any positive cutoff
        ds = pair_dataset([(0, 0, 50), (1, 1, 50), (2, 2, 50)])
        admg = resolve_edges(circle_pag(ds), ds)
        assert admg.bidirected == frozenset({frozenset(("u", "v"))})
        assert not admg.directed

    @pytest.mark.parametrize("rows, cols", [("u", "v"), ("v", "u")])
    def test_asymmetric_channel_orients_toward_lower_residual(self, rows, cols):
        # p(cols|rows=0)=[.9,.1], p(cols|rows=1)=[.2,.8]: latent needs
        # H([.8,.1,.1]) bits, above 0.8*min(H(rows),H(cols)), and
        # H(cols|rows) < H(rows|cols) so rows -> cols under either name
        ds = pair_dataset([(0, 0, 90), (0, 1, 10), (1, 0, 20), (1, 1, 80)], (rows, cols))
        h_z = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.1))
        h_cols = -(0.55 * math.log2(0.55) + 0.45 * math.log2(0.45))
        assert h_z > 0.8 * min(1.0, h_cols)  # sanity on the hand arithmetic
        admg = resolve_edges(circle_pag(ds), ds)
        assert admg.directed == frozenset({(rows, cols)})
        assert not admg.bidirected

    def test_exact_tie_breaks_to_second_vertex(self):
        # symmetric flips make both conditional entropies equal; the
        # not-strictly-smaller branch wins
        ds = pair_dataset([(0, 0, 65), (0, 1, 35), (1, 0, 35), (1, 1, 65)])
        admg = resolve_edges(circle_pag(ds), ds)
        assert admg.directed == frozenset({("v", "u")})

    def test_raised_ratio_flips_branch(self):
        ds = pair_dataset([(0, 0, 90), (0, 1, 10), (1, 0, 20), (1, 1, 80)])
        admg = resolve_edges(circle_pag(ds), ds, theta_ratio=0.99)
        assert admg.bidirected == frozenset({frozenset(("u", "v"))})

    @pytest.mark.parametrize("rows, cols", [("p", "q"), ("q", "p")])
    def test_latent_is_judged_in_both_directions(self, rows, cols):
        # joint counts [[5, 29], [23, 2]]: the latent needs 0.749 bits with
        # the columns as f(rows, E) and 0.845 the other way round, against a
        # threshold of 0.787; the cheaper direction decides under either name
        ds = pair_dataset([(0, 0, 5), (0, 1, 29), (1, 0, 23), (1, 1, 2)], (rows, cols))
        pag = Pag(ds.variables, (PagEdge("p", "q", Mark.CIRCLE, Mark.CIRCLE),), sepsets={})
        admg = resolve_edges(pag, ds)
        assert admg.bidirected == frozenset({frozenset(("p", "q"))})
        assert not admg.directed


class TestCopyAndRepair:
    def _vars(self):
        return (
            _discrete("m1"),
            _discrete("m2"),
            VariableMeta("o1", Role.OPTION, Kind.DISCRETE),
            VariableMeta("y1", Role.OBJECTIVE, Kind.DISCRETE),
        )

    def _ds(self):
        variables = self._vars()
        rng = np.random.default_rng(0)
        cols = {v.name: rng.integers(0, 3, 60) for v in variables}
        return Dataset(variables, cols, 60)

    def test_decided_marks_copied_verbatim(self):
        ds = self._ds()
        pag = Pag(
            ds.variables,
            (
                PagEdge("m1", "m2", Mark.TAIL, Mark.ARROW),
                PagEdge("m2", "y1", Mark.ARROW, Mark.ARROW),
            ),
            sepsets={},
        )
        admg = resolve_edges(pag, ds)
        assert ("m1", "m2") in admg.directed
        assert frozenset(("m2", "y1")) in admg.bidirected

    def test_forbidden_direction_flipped_with_note(self):
        ds = self._ds()
        # marks claim y1 -> m1, which roles forbid; the reverse is legal
        pag = Pag(
            ds.variables,
            (PagEdge("m1", "y1", Mark.ARROW, Mark.TAIL),),
            sepsets={},
        )
        admg = resolve_edges(pag, ds)
        assert ("m1", "y1") in admg.directed
        assert any("revers" in note for note in admg.notes)

    def test_bidirected_at_option_redirected_outward(self):
        ds = self._ds()
        pag = Pag(
            ds.variables,
            (PagEdge("m1", "o1", Mark.ARROW, Mark.ARROW),),
            sepsets={},
        )
        admg = resolve_edges(pag, ds)
        assert ("o1", "m1") in admg.directed
        assert not admg.bidirected
        assert admg.notes


class TestAdmg:
    def test_cycle_rejected_at_construction(self):
        variables = (_discrete("a"), _discrete("b"), _discrete("c"))
        with pytest.raises(EngineError):
            Admg(variables, frozenset({("a", "b"), ("b", "c"), ("c", "a")}), frozenset())

    def test_topological_order_respects_edges(self):
        variables = (_discrete("a"), _discrete("b"), _discrete("c"))
        admg = Admg(
            variables,
            frozenset({("c", "b"), ("b", "a")}),
            frozenset(),
        )
        order = admg.topological_order()
        assert order.index("c") < order.index("b") < order.index("a")

    def test_ancestors_ignore_bidirected(self):
        variables = (_discrete("a"), _discrete("b"), _discrete("c"))
        admg = Admg(
            variables,
            frozenset({("a", "b")}),
            frozenset({frozenset(("b", "c"))}),
        )
        assert admg.ancestors("b") == frozenset({"a"})
        assert admg.ancestors("c") == frozenset()
        assert admg.spouses("c") == ("b",)

    def test_json_roundtrip(self):
        variables = (_discrete("a"), _discrete("b"))
        admg = Admg(variables, frozenset({("a", "b")}), frozenset(), ("note",))
        again = Admg.from_json_dict(admg.to_json_dict())
        assert again.directed == admg.directed
        assert again.bidirected == admg.bidirected


def test_full_pipeline_leaves_no_ambiguity():
    from confcause.dataset import discretize

    scm = confounded_system(seed=4)
    ds = sample(scm, 8000)
    pag = fci(ds)
    binned = discretize(ds, 5)
    admg = resolve_edges(pag, binned)
    # every learned adjacency must end up either directed or bidirected
    resolved = {frozenset((u, v)) for u, v in admg.directed} | set(admg.bidirected)
    assert resolved == pag.adjacencies()
    assert admg.topological_order()  # acyclic by construction


def test_annotations_resolve():
    import typing

    assert typing.get_type_hints(Admg.from_json_dict)["payload"] is typing.Mapping
