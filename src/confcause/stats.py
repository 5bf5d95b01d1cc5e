"""Statistical primitives: partial correlation, Fisher-z independence test,
discrete entropy, and a greedy minimum-entropy coupling.

The coupling machinery quantifies how much latent randomness a hidden common
cause would need to explain an observed pairwise dependence: couple the
conditional rows p(y | x = xi) through a shared latent index Z, greedily
assigning the largest joint atoms first, and report H(Z).
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


@dataclass(frozen=True)
class EntropyEstimate:
    variables: tuple[str, ...]
    value_bits: float
    support_size: int


# --------------------------------------------------------------------------
# correlation


def partial_corrs_from_covs(covs: np.ndarray) -> np.ndarray:
    """Partial correlation of the first two variables given the rest, for
    each matrix of a ``(B, m, m)`` stack of joint covariance matrices
    (precision-matrix identity).

    Entries whose matrix is singular (non-finite, or condition number above
    the limit) are NaN. Each matrix is factorized by the same LAPACK kernel
    as a lone ``(m, m)`` matrix, so the result does not depend on what else
    is in the stack.

    The finite matrices are inverted first, and a matrix whose bound
    cond(C) <= ||C||_F * ||C^-1||_F is below ``_SCREEN_LIMIT`` is non-singular
    without an SVD. Only the matrices that bound cannot clear have their
    condition number computed. Below the screen's limit, the SVD's condition
    number is within 1e-6 relative of the true one, far from ``_COND_LIMIT``,
    so the screen decides exactly as the condition number alone would.
    """
    covs = np.asarray(covs, dtype=np.float64)
    singular = np.zeros(covs.shape[0], dtype=bool)
    # overflow, 0/0 and square roots of negatives end as NaN or +-1 below
    with np.errstate(all="ignore"):
        if covs.shape[1] == 2:
            num = covs[:, 0, 1]
            denom = np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
        else:
            # the SVD behind cond may fail to converge on non-finite input
            singular = ~np.isfinite(covs).all(axis=(1, 2))
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
    r = np.where(r > -1.0, r, -1.0)
    r = np.where(r < 1.0, r, 1.0)
    r[singular] = np.nan
    return r


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
    mat = ds.matrix([x, y, *cond])
    cov = np.cov(mat, rowvar=False)
    cov = np.atleast_2d(cov)
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
    n = ds.sample_count
    if n <= len(cond) + 3:
        raise InsufficientSamples(
            f"need more than |conditioning|+3 = {len(cond) + 3} rows, have {n}",
            rows=n, conditioning=len(cond),
        )
    rho = partial_correlation(ds, x, y, cond)
    statistic, p_value = _fisher_z(rho, n, len(cond))
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
        cols.append(ds.column(name).astype(np.int64))
    return np.column_stack(cols)


def _joint_codes(mat: np.ndarray) -> np.ndarray:
    """One dense integer code per row of an integer matrix, numbered in
    lexicographic row order: the ``inverse`` of ``np.unique(mat, axis=0)``.

    Columns are folded in one at a time (mixed radix over each column's
    level index) and the codes re-compacted after each fold, so they stay
    below the row count whatever the column cardinalities are.
    """
    _, codes = np.unique(mat[:, 0], return_inverse=True)
    for col in mat.T[1:]:
        levels, inverse = np.unique(col, return_inverse=True)
        _, codes = np.unique(codes * levels.shape[0] + inverse, return_inverse=True)
    return codes


def entropy(ds: Dataset, variables: Sequence[str]) -> EntropyEstimate:
    """Shannon entropy (bits) of the empirical joint over the named columns."""
    if not variables:
        raise NonDiscreteVariable("entropy requires at least one variable")
    counts = np.bincount(_joint_codes(_require_discrete(ds, variables)))
    p = counts / counts.sum()
    bits = float(-(p * np.log2(p)).sum())
    return EntropyEstimate(tuple(variables), max(bits, 0.0), int(counts.shape[0]))


def conditional_entropy(ds: Dataset, target: str, given: str) -> float:
    """H(target | given) in bits, via the chain rule on empirical joints."""
    return entropy(ds, [given, target]).value_bits - entropy(ds, [given]).value_bits


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


def min_entropy_latent(
    ds: Dataset, x: str, y: str
) -> tuple[float, dict[tuple[int, int, int], float]]:
    """Entropy (bits) of the smallest latent variable that can explain the
    observed x-y dependence as pure confounding, with the realized joint
    distribution over (x value, y value, latent index).

    A degenerate marginal (constant column) needs no latent: returns 0 and
    the observed joint under a single latent state, which is a point mass
    when both columns are constant.
    """
    mat = _require_discrete(ds, [x, y])
    xs, x_codes = np.unique(mat[:, 0], return_inverse=True)
    ys, y_codes = np.unique(mat[:, 1], return_inverse=True)
    counts = np.bincount(
        x_codes * ys.shape[0] + y_codes, minlength=xs.shape[0] * ys.shape[0]
    ).reshape(xs.shape[0], ys.shape[0])
    if xs.shape[0] < 2 or ys.shape[0] < 2:
        logger.info("degenerate joint for (%s, %s); latent entropy is 0", x, y)
        joint = {
            (int(xs[i]), int(ys[j]), 0): float(counts[i, j] / mat.shape[0])
            for i, j in zip(*np.nonzero(counts))
        }
        return 0.0, joint

    table = counts.astype(np.float64)
    table /= table.sum()

    px = table.sum(axis=1)
    rows = [table[i] / px[i] for i in range(xs.shape[0])]
    atoms = greedy_coupling(rows)

    bits = 0.0
    joint: dict[tuple[int, int, int], float] = {}
    for z, (picks, mass) in enumerate(atoms):
        bits -= mass * math.log2(mass)
        for i, pick in enumerate(picks):
            key = (int(xs[i]), int(ys[pick]), z)
            joint[key] = joint.get(key, 0.0) + float(px[i] * mass)
    return max(bits, 0.0), joint
