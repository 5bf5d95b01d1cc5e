"""Statistical primitives: covariance, partial correlation, Fisher-z test,
discrete entropy, and a greedy minimum-entropy coupling.

The coupling bounds the exogenous randomness a function y = f(x, E) needs:
couple the conditional rows p(y | x = xi) through a shared index E, greedily
assigning the largest joint atoms first, and report H(E) (Kocaoglu et al.,
"Entropic causal inference", AAAI 2017).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, Kind
from .errors import (
    InsufficientSamples,
    NonDiscreteVariable,
    SingularCovariance,
)

logger = logging.getLogger(__name__)

_COND_LIMIT = 1e12  # covariance condition number beyond which we call it singular
# norm bound on the condition number below which no SVD is needed
_SCREEN_LIMIT = _COND_LIMIT * 1e-3


@dataclass(frozen=True)
class CiTestResult:
    x: str
    y: str
    conditioning_set: frozenset[str]
    statistic: float
    p_value: float
    independent: bool


# --------------------------------------------------------------------------
# correlation


def covariance(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    """The ``(p, p)`` sample covariance of the named columns, in the order
    given, equal to ``numpy.cov``'s bit for bit: one preallocated float64 copy
    of the columns, centred in place in ``numpy.cov``'s order of operations."""
    x = np.empty((len(names), ds.sample_count), order="F")  # numpy.cov's transposed view
    for j, name in enumerate(names):
        x[j] = ds.column(name)
    x -= x.mean(axis=1)[:, None]
    cov = np.dot(x, x.T)
    cov *= np.true_divide(1, ds.sample_count - 1)
    return cov


def partial_corrs_from_covs(covs: np.ndarray) -> np.ndarray:
    """Partial correlation of the first two variables given the rest, for
    each matrix of a ``(B, m, m)`` stack of joint covariance matrices
    (precision-matrix identity).

    Entries whose matrix is singular (a non-finite entry, or, beyond 2x2, a
    condition number above the limit) are NaN. Each matrix is factorized by
    the same LAPACK kernel as a lone ``(m, m)`` matrix, so the result does
    not depend on what else is in the stack.

    The finite matrices are inverted first, and a matrix whose bound
    cond(C) <= ||C||_F * ||C^-1||_F is below ``_SCREEN_LIMIT`` is non-singular
    without an SVD. Only the matrices that bound cannot clear have their
    condition number computed. Below the screen's limit, the SVD's condition
    number is within 1e-6 relative of the true one, far from ``_COND_LIMIT``,
    so the screen decides exactly as the condition number alone would.
    """
    covs = np.asarray(covs, dtype=np.float64)
    # a non-finite entry makes the matrix singular; for larger matrices it
    # would also stop the SVD behind cond from converging
    singular = ~np.isfinite(covs).all(axis=(1, 2))
    # overflow, 0/0 and square roots of negatives end as NaN or +-1 below
    with np.errstate(all="ignore"):
        if covs.shape[1] == 2:
            num = covs[:, 0, 1]
            denom = np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
        else:
            finite = covs[~singular]
            try:
                inv = np.linalg.inv(finite)
            except np.linalg.LinAlgError:
                # an exactly singular member: condition numbers first, so
                # that only invertible matrices are inverted
                singular[~singular] = np.linalg.cond(finite) > _COND_LIMIT
                inv = np.linalg.inv(covs[~singular])
            else:
                unclear = ~(_frobenius_sq(finite) * _frobenius_sq(inv) < _SCREEN_LIMIT**2)
                if unclear.any():
                    cleared = np.ones(finite.shape[0], dtype=bool)
                    cleared[unclear] = ~(np.linalg.cond(finite[unclear]) > _COND_LIMIT)
                    singular[~singular] = ~cleared
                    inv = inv[cleared]
            prec = np.full_like(covs, np.nan)
            prec[~singular] = inv
            num = -prec[:, 0, 1]
            denom = np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
        r = np.where(denom == 0.0, 0.0, num / denom)
    # clamp to [-1, 1] the way min(1, max(-1, r)) does, NaN included
    r = np.fmin(np.fmax(r, -1.0), 1.0)
    r[singular] = np.nan
    return r


# c in the first-order bound c * 2**-52 * cond(C)**2 on the error of rho by
# LU inverse or by Cholesky (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 10, 14): about 2m(m+1) times LU growth, < 1e4 at m <= 7
_SCHUR_SLACK = 1e4


def _schur_partial_corrs(cov: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial correlation of x and y given z (at least one) for each ``(x,
    y, *z)`` row of indices into ``cov``, and a bound on cond2 of the row's
    joint covariance C; both NaN at a non-positive pivot or non-finite value.

    Every entry is an array over the stack. An unrolled Cholesky gives
    Czz = L L^T and W = L^-1 [Czx, I], and rho comes from the 2x2 Schur
    complement S = Cxx - Wx^T Wx, the residual covariance of x and y. M =
    [[L, 0], [Wx^T, chol(S)]] is the Cholesky factor of C in (z, x, y)
    order, so cond2(C) <= ||C||_F ||M^-1||_F^2, and bounding the off-diagonal
    block of M^-1 by the product of its factors' norms gives ||M^-1||_F^2 <=
    a + b + a b ||Wx||_F^2, a = ||L^-1||_F^2, b = trace(S^-1).
    """
    n, k = cov.shape[0], rows.shape[1] - 2
    ends = rows.T[[*range(2, k + 2), 0, 1]]
    c = np.take(cov.ravel(), ends[:, None] * n + ends[None])  # C in (z, x, y) order
    eye = np.broadcast_to(np.eye(k)[:, :, None], (k, k, rows.shape[0]))
    rhs = np.concatenate([c[:k, k:], eye], axis=1)
    with np.errstate(all="ignore"):
        frob = np.sqrt(np.einsum("ijb,ijb->b", c, c))
        L: dict[tuple[int, int], np.ndarray] = {}
        w: list[np.ndarray] = []
        for i in range(k):
            for j in range(i + 1):
                s = c[i, j] - sum(L[i, p] * L[j, p] for p in range(j))
                L[i, j] = s / L[j, j] if j < i else np.sqrt(np.where(s > 0.0, s, np.nan))
            w.append((rhs[i] - sum(L[i, p] * w[p] for p in range(i))) / L[i, i])
        W = np.array(w)
        sq = np.einsum("jab,jab->ab", W, W)
        s00, s11 = c[k, k] - sq[0], c[k + 1, k + 1] - sq[1]
        s01 = c[k + 1, k] - np.einsum("jb,jb->b", W[:, 0], W[:, 1])
        rho = s01 / np.sqrt(s00 * s11)
        det = s00 * s11 - s01 * s01
        b = (s00 + s11) / np.where((s00 > 0.0) & (det > 0.0), det, np.nan)
        a = sq[2:].sum(axis=0)
        bound = frob * (a + b + a * b * (sq[0] + sq[1]))
        bad = ~(np.isfinite(rho) & np.isfinite(bound))
    rho[bad] = bound[bad] = np.nan
    return rho, bound


def _frobenius_sq(mats: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    return np.einsum("bij,bij->b", mats, mats)


def partial_corr_from_cov(cov: np.ndarray) -> float:
    """Partial correlation of the first two variables given the rest, from
    their joint covariance matrix (precision-matrix identity)."""
    r = float(partial_corrs_from_covs(np.asarray(cov)[np.newaxis])[0])
    if math.isnan(r):
        raise SingularCovariance(
            "covariance submatrix is singular; shrink the conditioning set",
            size=int(cov.shape[0]),
        )
    return r


def _fisher_z(rho: float, n: int, k: int) -> tuple[float, float]:
    """Fisher-z statistic and two-sided p-value for a partial correlation
    ``rho`` measured on ``n`` rows given ``k`` conditioning variables.

    The z-transform scaled by sqrt(n - k - 3) is asymptotically standard
    normal under independence; a perfect correlation has an infinite
    statistic and p-value 0.
    """
    if abs(rho) >= 1.0 - 1e-15:
        return math.inf, 0.0
    z = 0.5 * math.log((1.0 + rho) / (1.0 - rho))
    statistic = math.sqrt(n - k - 3) * z
    # 2 * (1 - Phi(|t|)) == erfc(|t| / sqrt(2))
    return statistic, math.erfc(abs(statistic) / math.sqrt(2.0))


# relative half-width of the band around the critical |rho| where the
# array decision defers to the scalar test
_DECISION_BAND = 1e-9


@functools.lru_cache(maxsize=1024)
def _critical_rho(n: int, k: int, alpha: float) -> float:
    """The |rho| at which the Fisher-z test on ``n`` rows given ``k``
    variables turns from independent (p > alpha) to dependent, to 1e-12
    relative: bisection on the scalar test, which is monotone in |rho| up to
    rounding. 0 when even rho = 0 is dependent, inf when rho = 1 is not."""

    def independent(r: float) -> bool:
        return _fisher_z(r, n, k)[1] > alpha

    if not independent(0.0):
        return 0.0
    if independent(1.0):
        return math.inf
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if independent(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _fisher_z_independent(rhos: np.ndarray, n: int, k: int, alpha: float) -> np.ndarray:
    """``_fisher_z(rho, n, k)[1] > alpha`` for each entry of ``rhos`` (False
    for NaN). The array is compared with the critical |rho|; only the values
    within ``_DECISION_BAND`` of it are decided by the scalar test."""
    crit = _critical_rho(n, k, alpha)
    mag = np.abs(rhos)
    low, high = crit * (1.0 - _DECISION_BAND), crit * (1.0 + _DECISION_BAND)
    out = mag < low
    band = (mag >= low) & (mag <= high)
    for i in np.flatnonzero(band).tolist():
        out[i] = _fisher_z(float(rhos[i]), n, k)[1] > alpha
    return out


def partial_correlation(
    ds: Dataset, x: str, y: str, conditioning: Sequence[str] = ()
) -> float:
    """Pearson partial correlation of x and y given the conditioning columns.

    Equivalent to correlating the residuals of x and y after regressing each
    on the conditioning set (the regression route is the test oracle). A
    variable is perfectly correlated with itself.
    """
    cond = sorted(set(conditioning) - {x, y})
    if x == y:
        return 1.0
    n = ds.sample_count
    if n < len(cond) + 4:
        raise InsufficientSamples(
            f"need at least |conditioning|+4 = {len(cond) + 4} rows, have {n}",
            rows=n, conditioning=len(cond),
        )
    cov = covariance(ds, [x, y, *cond])
    if cov[0, 0] == 0.0 or cov[1, 1] == 0.0:
        return 0.0  # a constant column carries no association
    return partial_corr_from_cov(cov)


def fisher_z_test(
    ds: Dataset,
    x: str,
    y: str,
    conditioning: Sequence[str] = (),
    alpha: float = 0.05,
) -> CiTestResult:
    """Fisher-z conditional independence test.

    The z-transformed partial correlation scaled by sqrt(n - |cond| - 3) is
    asymptotically standard normal under independence; the two-sided p-value
    uses the closed-form normal CDF. ``independent`` is ``p > alpha``.
    """
    cond = tuple(sorted(set(conditioning) - {x, y}))
    rho = partial_correlation(ds, x, y, cond)
    statistic, p_value = _fisher_z(rho, ds.sample_count, len(cond))
    return CiTestResult(
        x=x, y=y, conditioning_set=frozenset(cond),
        statistic=statistic, p_value=p_value,
        independent=bool(p_value > alpha),
    )


# --------------------------------------------------------------------------
# entropy


def _require_discrete(ds: Dataset, variables: Sequence[str]) -> np.ndarray:
    cols = []
    for name in variables:
        meta = ds.meta(name)
        if meta.kind == Kind.CONTINUOUS:
            raise NonDiscreteVariable(
                f"entropy requires discrete columns; {name!r} is continuous",
                variable=name,
            )
        cols.append(ds.column(name).astype(np.int64, copy=False))
    return np.stack(cols).T  # column-major: each column is contiguous


_COUNTING_SPAN = 4  # widest max - min + 1 that _levels counts, per element


def _levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D integer array,
    without a sort while the range is narrow: a value's code is the rank of
    its offset from the minimum among the offsets present."""
    if values.shape[0]:
        lo = values.min()
        span = int(values.max()) - int(lo) + 1
        if span <= _COUNTING_SPAN * values.shape[0]:
            offsets = values - lo
            present = np.bincount(offsets, minlength=span) > 0
            if present.all():  # every offset is its own rank
                return np.arange(span) + lo, offsets
            rank = np.cumsum(present, dtype=np.intp) - 1
            return np.flatnonzero(present) + lo, rank[offsets]
    return np.unique(values, return_inverse=True)


def _joint_codes(mat: np.ndarray) -> np.ndarray:
    """One dense integer code per row of an integer matrix, numbered in
    lexicographic row order: the ``inverse`` of ``np.unique(mat, axis=0)``.

    Columns are folded in one at a time (mixed radix over each column's
    level index) and the codes re-compacted after each fold, so they stay
    below the row count whatever the column cardinalities are.
    """
    _, codes = _levels(mat[:, 0])
    for col in mat.T[1:]:
        levels, inverse = _levels(col)
        _, codes = _levels(codes * levels.shape[0] + inverse)
    return codes


def count_bits(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of the distribution of positive integer counts."""
    p = counts / counts.sum()
    return max(float(-(p * np.log2(p)).sum()), 0.0)


def entropy(ds: Dataset, variables: Sequence[str]) -> float:
    """Shannon entropy (bits) of the empirical joint over the named columns."""
    if not variables:
        raise NonDiscreteVariable("entropy requires at least one variable")
    return count_bits(np.bincount(_joint_codes(_require_discrete(ds, variables))))


def conditional_entropy(ds: Dataset, target: str, given: str) -> float:
    """H(target | given) in bits, via the chain rule on empirical joints."""
    return entropy(ds, [given, target]) - entropy(ds, [given])


# --------------------------------------------------------------------------
# minimum-entropy coupling


def greedy_coupling(rows: Sequence[np.ndarray]) -> list[tuple[tuple[int, ...], float]]:
    """Greedily couple probability vectors through a shared latent index.

    Each atom pairs every distribution's current largest entry and carries the
    minimum of those entries; residuals shrink until all mass is assigned.
    Returns (per-distribution value indices, mass) per atom. Atom masses sum
    to one and, restricted to any single distribution, reproduce it exactly.
    """
    residual = [np.asarray(r, dtype=np.float64).copy() for r in rows]
    atoms: list[tuple[tuple[int, ...], float]] = []
    remaining = 1.0
    while remaining > 1e-12:
        picks = tuple(int(np.argmax(r)) for r in residual)
        mass = float(min(r[i] for r, i in zip(residual, picks)))
        if mass <= 1e-12:
            break
        for r, i in zip(residual, picks):
            r[i] -= mass
        atoms.append((picks, mass))
        remaining -= mass
    return atoms


def contingency_table(ds: Dataset, x: str, y: str) -> np.ndarray:
    """Joint counts of two discrete columns, levels ascending: its row sums,
    column sums and non-empty cells (row-major) are ``entropy``'s counts."""
    mat = _require_discrete(ds, [x, y])
    xs, x_codes = _levels(mat[:, 0])
    ys, y_codes = _levels(mat[:, 1])
    if xs.shape[0] < 2 or ys.shape[0] < 2:
        logger.info("degenerate joint for (%s, %s); latent entropy is 0", x, y)
    cells = np.bincount(x_codes * ys.shape[0] + y_codes, minlength=xs.shape[0] * ys.shape[0])
    return cells.reshape(xs.shape[0], ys.shape[0])


def coupling_bits(table: np.ndarray) -> float:
    """Entropy (bits) of the greedy coupling of p(column | row) over a count
    table's rows; 0 for a table with a single row or column."""
    if min(table.shape) < 2:
        return 0.0
    joint = np.array(table, dtype=np.float64, order="C")
    joint /= joint.sum()
    bits = 0.0
    for _, mass in greedy_coupling(joint / joint.sum(axis=1, keepdims=True)):
        bits -= mass * math.log2(mass)
    return max(bits, 0.0)


def min_entropy_latent(ds: Dataset, x: str, y: str) -> float:
    """Entropy (bits) of the smallest exogenous E with y = f(x, E) that the
    greedy coupling finds; not the common entropy, the smallest latent that
    makes x and y independent. A constant column needs none: returns 0."""
    return coupling_bits(contingency_table(ds, x, y))
