"""Ways of writing the same runs that must not change the diagnosis: the
rows or columns in another order, the variables renamed within their
roles, a metric in other units, options spelled as labels, the table
through a CSV file; those that draw take a seed. A test compares
the answers on both, mapped back where names changed (metamorphic testing).
"""

import io
import random
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from confcause.dataset import Dataset, Kind, Role, VariableMeta, load_dataset
from confcause.discovery import Pag, PagEdge
from confcause.resolve import Admg


def rename_within_roles(variables: Sequence[VariableMeta], rng: random.Random) -> dict[str, str]:
    """A renaming that permutes the names within each role."""
    names = {}
    for role in Role:
        same = [v.name for v in variables if v.role == role]
        names.update(zip(same, rng.sample(same, len(same))))
    return names


def inverse(names: Mapping[str, str]) -> dict[str, str]:
    return {new: old for old, new in names.items()}


def renamed(obj: Dataset | Admg | Pag, names: Mapping[str, str]) -> Dataset | Admg | Pag:
    """``obj`` with each variable ``n`` named ``names[n]``: a table keeps its
    column order, and a PAG edge's ends, with their marks, are put in name
    order again; the text of notes and conflicts is left out. A result
    computed on renamed input maps back by ``renamed(result, inverse(names))``."""
    def pair(ends):
        return frozenset(map(names.get, ends))

    if isinstance(obj, Dataset):
        return Dataset(tuple(replace(v, name=names[v.name]) for v in obj.variables),
                       {names[n]: col for n, col in obj.columns.items()}, obj.sample_count)
    vertices = tuple(replace(v, name=names[v.name]) for v in obj.vertices)
    if isinstance(obj, Admg):
        return Admg(vertices, frozenset((names[u], names[v]) for u, v in obj.directed),
                    frozenset(map(pair, obj.bidirected)))
    edges = []
    for e in obj.edges:
        u, v, mark_u, mark_v = names[e.u], names[e.v], e.mark_u, e.mark_v
        edges.append(PagEdge(u, v, mark_u, mark_v) if u < v else PagEdge(v, u, mark_v, mark_u))
    return Pag(vertices, tuple(sorted(edges, key=lambda e: (e.u, e.v))),
               {pair(ends): pair(sep) for ends, sep in obj.sepsets.items()})


def reordered(ds: Dataset, seed: int) -> Dataset:
    """The rows and the columns in a seeded order."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(ds.sample_count)
    variables = tuple(ds.variables[i] for i in rng.permutation(len(ds.variables)))
    return Dataset(variables, {n: c[rows] for n, c in ds.columns.items()}, ds.sample_count)


def rescaled(ds: Dataset, factors: Mapping[str, float]) -> Dataset:
    """Each named continuous column times its factor: a metric in other units."""
    assert all(ds.meta(name).kind == Kind.CONTINUOUS for name in factors)
    columns = {n: c * factors[n] if n in factors else c for n, c in ds.columns.items()}
    return Dataset(ds.variables, columns, ds.sample_count)


def relabelled(ds: Dataset, names: Sequence[str], seed: int) -> Dataset:
    """Each named integer column as a categorical one, its levels spelled by
    labels dealt out in a seeded order."""
    rng = np.random.default_rng(seed)
    variables, columns = [], dict(ds.columns)
    for v in ds.variables:
        if v.name in names:
            levels, columns[v.name] = np.unique(ds.columns[v.name], return_inverse=True)
            spelling = rng.permutation(len(levels)).tolist()
            v = replace(v, kind=Kind.CATEGORICAL, domain=tuple(f"{v.name}-{i}" for i in spelling))
        variables.append(v)
    return Dataset(tuple(variables), columns, ds.sample_count)


def reloaded(ds: Dataset) -> Dataset:
    """``ds`` written as a CSV table and a roles file, and read back."""
    table, roles = io.StringIO(), io.StringIO()
    ds.dump_table(table)
    ds.dump_roles(roles)
    return load_dataset(table.getvalue(), roles.getvalue())
