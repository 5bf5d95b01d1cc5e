"""Statistical kernel checks against independently computed references."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from confcause.dataset import Dataset, Kind, Role, VariableMeta
from confcause.errors import InsufficientSamples, NonDiscreteVariable
from confcause.stats import (
    _critical_rho,
    _fisher_z,
    _fisher_z_independent,
    conditional_entropy,
    entropy,
    fisher_z_test,
    greedy_coupling,
    min_entropy_latent,
    partial_correlation,
    partial_corrs_from_covs,
)


def _dataset(**cols):
    variables = tuple(
        VariableMeta(name, Role.METRIC, Kind.CONTINUOUS) for name in sorted(cols)
    )
    n = len(next(iter(cols.values())))
    return Dataset(variables, {k: np.asarray(v, dtype=float) for k, v in cols.items()}, n)


def _discrete_dataset(**cols):
    variables = tuple(
        VariableMeta(name, Role.METRIC, Kind.DISCRETE) for name in sorted(cols)
    )
    n = len(next(iter(cols.values())))
    return Dataset(variables, {k: np.asarray(v, dtype=np.int64) for k, v in cols.items()}, n)


def residual_correlation(x, y, z_cols):
    """Reference route: correlate the least-squares residuals."""
    n = len(x)
    design = np.column_stack([np.ones(n)] + list(z_cols))
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    return float(np.corrcoef(rx, ry)[0, 1])


class TestPartialCorrelation:
    def test_marginal_matches_pearson(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        y = 0.6 * x + rng.standard_normal(400)
        ds = _dataset(a=x, b=y)
        expected = scipy.stats.pearsonr(x, y).statistic
        assert partial_correlation(ds, "a", "b") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_regression_residual_route(self, k):
        rng = np.random.default_rng(17 + k)
        z = rng.standard_normal((500, k))
        x = z @ rng.uniform(0.3, 0.9, k) + rng.standard_normal(500)
        y = z @ rng.uniform(0.3, 0.9, k) + 0.4 * x + rng.standard_normal(500)
        cols = {f"z{i}": z[:, i] for i in range(k)}
        ds = _dataset(a=x, b=y, **cols)
        got = partial_correlation(ds, "a", "b", tuple(sorted(cols)))
        want = residual_correlation(x, y, [z[:, i] for i in range(k)])
        assert got == pytest.approx(want, abs=1e-10)

    def test_conditioning_removes_confounding(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(20000)
        x = 1.2 * z + rng.standard_normal(20000)
        y = -0.9 * z + rng.standard_normal(20000)
        ds = _dataset(a=x, b=y, c=z)
        assert abs(partial_correlation(ds, "a", "b")) > 0.3
        assert abs(partial_correlation(ds, "a", "b", ("c",))) < 0.03

    def test_self_correlation_is_one(self):
        ds = _dataset(a=np.arange(10.0), b=np.arange(10.0) ** 2)
        assert partial_correlation(ds, "a", "a") == 1.0

    def test_constant_column_gives_zero(self):
        ds = _dataset(a=np.ones(50), b=np.arange(50.0))
        assert partial_correlation(ds, "a", "b") == 0.0


class TestFisherZ:
    def test_exact_statistic_on_constructed_correlation(self):
        # tiled pattern keeps the sample correlation at exactly 1/2
        x = np.tile([1.0, 2.0, 3.0], 33)
        y = np.tile([1.0, 3.0, 2.0], 33)
        ds = _dataset(a=x, b=y)
        res = fisher_z_test(ds, "a", "b")
        expected = math.sqrt(99 - 3) * 0.5 * math.log(3.0)
        assert res.statistic == pytest.approx(expected, abs=1e-10)
        assert res.p_value == pytest.approx(2 * scipy.stats.norm.sf(expected), abs=1e-12)
        assert not res.independent

    def test_matches_normal_survival_oracle_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(20, 300))
            k = int(rng.integers(0, 4))
            z = rng.standard_normal((n, k)) if k else np.empty((n, 0))
            x = z.sum(axis=1) * 0.5 + rng.standard_normal(n)
            y = z.sum(axis=1) * 0.5 + rng.uniform(-0.8, 0.8) * x + rng.standard_normal(n)
            cols = {f"z{i}": z[:, i] for i in range(k)}
            ds = _dataset(a=x, b=y, **cols)
            cond = tuple(sorted(cols))
            res = fisher_z_test(ds, "a", "b", cond)
            rho = partial_correlation(ds, "a", "b", cond)
            stat = math.sqrt(n - k - 3) * 0.5 * math.log((1 + rho) / (1 - rho))
            p = 2 * scipy.stats.norm.sf(abs(stat))
            assert res.statistic == pytest.approx(stat, abs=1e-10)
            assert res.p_value == pytest.approx(p, abs=1e-9)
            assert res.independent == (res.p_value > 0.05)

    def test_null_calibration(self):
        rng = np.random.default_rng(4242)
        rejections = 0
        for _ in range(1000):
            ds = _dataset(a=rng.standard_normal(200), b=rng.standard_normal(200))
            if not fisher_z_test(ds, "a", "b", alpha=0.05).independent:
                rejections += 1
        assert 0.03 <= rejections / 1000 <= 0.08

    def test_too_few_samples_raises(self):
        ds = _dataset(a=np.arange(4.0), b=np.arange(4.0)[::-1], c=np.ones(4))
        with pytest.raises(InsufficientSamples):
            fisher_z_test(ds, "a", "b", ("c",))

    def test_result_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(120)
        y = 0.5 * x + rng.standard_normal(120)
        ds = _dataset(a=x, b=y)
        r1 = fisher_z_test(ds, "a", "b")
        r2 = fisher_z_test(ds, "b", "a")
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)


class TestEntropy:
    def test_dyadic_distribution_exact(self):
        ds = _discrete_dataset(a=[0, 0, 1, 2])
        assert entropy(ds, ("a",)).value_bits == pytest.approx(1.5, abs=1e-12)

    def test_joint_entropy_of_copy_equals_marginal(self):
        ds = _discrete_dataset(a=[0, 1, 0, 1, 1, 0], b=[0, 1, 0, 1, 1, 0])
        h_joint = entropy(ds, ("a", "b")).value_bits
        h_single = entropy(ds, ("a",)).value_bits
        assert h_joint == pytest.approx(h_single, abs=1e-12)

    def test_conditional_entropy_identities(self):
        # H(b|a) = H(a,b) - H(a), and conditioning never increases entropy
        ds = _discrete_dataset(a=[0, 0, 1, 1, 1, 2, 2, 0], b=[0, 1, 1, 1, 0, 2, 2, 0])
        h_ab = entropy(ds, ("a", "b")).value_bits
        h_a = entropy(ds, ("a",)).value_bits
        h_b = entropy(ds, ("b",)).value_bits
        assert conditional_entropy(ds, "b", "a") == pytest.approx(h_ab - h_a, abs=1e-12)
        assert conditional_entropy(ds, "b", "a") <= h_b + 1e-12

    def test_continuous_input_rejected(self):
        ds = _dataset(a=np.linspace(0, 1, 20))
        with pytest.raises(NonDiscreteVariable):
            entropy(ds, ("a",))


def brute_force_min_coupling_2x2(p0, p1):
    """Exact minimum-entropy coupling for two binary rows: one free mass."""
    lo = max(0.0, p0[0] + p1[0] - 1.0)
    hi = min(p0[0], p1[0])
    best = math.inf
    for t in np.linspace(lo, hi, 20001):
        cells = [t, p0[0] - t, p1[0] - t, 1.0 - p0[0] - p1[0] + t]
        h = -sum(c * math.log2(c) for c in cells if c > 1e-12)
        best = min(best, h)
    return best


class TestGreedyCoupling:
    def test_hand_worked_atoms(self):
        atoms = greedy_coupling([np.array([0.8, 0.2]), np.array([0.3, 0.7])])
        # argmax pairing peels (0,1) at 0.7, then (1,0) at 0.2, then (0,0) at 0.1
        assert [(picks, pytest.approx(mass)) for picks, mass in atoms] == [
            ((0, 1), pytest.approx(0.7)),
            ((1, 0), pytest.approx(0.2)),
            ((0, 0), pytest.approx(0.1)),
        ]

    def test_binary_rows_achieve_bruteforce_minimum(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p0 = rng.dirichlet([1.0, 1.0])
            p1 = rng.dirichlet([1.0, 1.0])
            atoms = greedy_coupling([p0, p1])
            h_greedy = -sum(m * math.log2(m) for _, m in atoms if m > 1e-12)
            h_min = brute_force_min_coupling_2x2(p0, p1)
            assert h_greedy <= h_min + 1e-6

    @given(
        st.lists(
            st.lists(st.integers(1, 50), min_size=2, max_size=4),
            min_size=2,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_marginals_preserved(self, count_rows):
        rows = [np.array(r, dtype=float) / sum(r) for r in count_rows]
        atoms = greedy_coupling(rows)
        masses = np.zeros((len(rows), len(rows[0])))
        for picks, mass in atoms:
            for i, j in enumerate(picks):
                masses[i, j] += mass
        for i, row in enumerate(rows):
            np.testing.assert_allclose(masses[i], row, atol=1e-12)


class TestMinEntropyLatent:
    def test_independent_pair_needs_no_latent_state(self):
        # b constant given nothing: single-row coupling is deterministic
        ds = _discrete_dataset(a=[0, 0, 1, 1], b=[0, 0, 0, 0])
        bits, joint = min_entropy_latent(ds, "a", "b")
        assert bits == pytest.approx(0.0, abs=1e-12)
        total = sum(joint.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_copy_is_zero_bits(self):
        ds = _discrete_dataset(a=[0, 1, 0, 1, 2, 2], b=[0, 1, 0, 1, 2, 2])
        bits, _ = min_entropy_latent(ds, "a", "b")
        assert bits == pytest.approx(0.0, abs=1e-12)

    def test_noisy_channel_costs_bits(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 2000)
        flip = rng.random(2000) < 0.3
        b = np.where(flip, 1 - a, a)
        ds = _discrete_dataset(a=a, b=b)
        bits, _ = min_entropy_latent(ds, "a", "b")
        assert 0.5 < bits < 1.5


# --------------------------------------------------------------------------
# the SVD-free singularity screen and the array Fisher-z decision


def _cond_first_rhos(covs):
    """Reference: singularity by condition number first, then one stacked
    inverse of the matrices that pass (the order before the norm screen)."""
    covs = np.asarray(covs, dtype=np.float64)
    singular = np.zeros(covs.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        if covs.shape[1] == 2:
            num = covs[:, 0, 1]
            denom = np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
        else:
            singular = ~np.isfinite(covs).all(axis=(1, 2))
            singular[~singular] = np.linalg.cond(covs[~singular]) > 1e12
            prec = np.full_like(covs, np.nan)
            prec[~singular] = np.linalg.inv(covs[~singular])
            num = -prec[:, 0, 1]
            denom = np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
        r = np.where(denom == 0.0, 0.0, num / denom)
    r = np.where(r > -1.0, r, -1.0)
    r = np.where(r < 1.0, r, 1.0)
    r[singular] = np.nan
    return r


def _cov_with_cond(rng, m, cond):
    """Random symmetric positive definite matrix with the given condition
    number, eigenvalues spread log-uniformly between 1/cond and 1."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eig = np.sort(np.exp(rng.uniform(-np.log(cond), 0.0, m)))
    eig[0], eig[-1] = 1.0 / cond, 1.0
    return (q * eig) @ q.T * 10.0 ** rng.uniform(-3, 3)


def _duplicate_column_cov(rng, m):
    """Covariance of data whose last column copies another: two equal rows."""
    data = rng.standard_normal((50, m))
    data[:, -1] = data[:, int(rng.integers(0, m - 1))]
    return np.cov(data, rowvar=False)


def _mixed_stack(rng, m, size, singular_member):
    mats = []
    for _ in range(size):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            data = rng.standard_normal((40, m)) @ rng.standard_normal((m, m))
            mats.append(np.cov(data, rowvar=False))
        elif kind == 1:
            mats.append(_cov_with_cond(rng, m, 10.0 ** rng.uniform(11, 13)))
        elif kind == 2:
            cov = _cov_with_cond(rng, m, 10.0 ** rng.uniform(0, 4))
            cov[rng.integers(m), rng.integers(m)] = rng.choice([np.nan, np.inf, -np.inf])
            mats.append(cov)
        else:
            mats.append(_cov_with_cond(rng, m, 10.0 ** rng.uniform(5, 10)))
    if singular_member and m > 2:
        mats[int(rng.integers(0, size))] = _duplicate_column_cov(rng, m)
    return np.stack(mats)


class TestSingularityScreen:
    def _assert_same(self, covs):
        got, want = partial_corrs_from_covs(covs), _cond_first_rhos(covs)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_mixed_stacks_match_the_cond_first_reference(self, m):
        rng = np.random.default_rng(100 + m)
        singular = 0
        for trial in range(150):
            covs = _mixed_stack(rng, m, int(rng.integers(1, 30)), trial % 3 == 0)
            self._assert_same(covs)
            singular += int(np.isnan(partial_corrs_from_covs(covs)).sum())
        assert singular > 0 or m == 2  # a pair is never singular

    def test_exactly_singular_member_takes_the_fallback(self):
        rng = np.random.default_rng(9)
        covs = _mixed_stack(rng, 4, 12, singular_member=True)
        covs[3] = _duplicate_column_cov(rng, 4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(covs[np.isfinite(covs).all(axis=(1, 2))])
        self._assert_same(covs)
        assert math.isnan(partial_corrs_from_covs(covs)[3])

    @pytest.mark.parametrize("m", [3, 5])
    def test_condition_numbers_at_the_limit(self, m):
        rng = np.random.default_rng(m)
        covs = np.stack([_cov_with_cond(rng, m, 10.0 ** e)
                         for e in np.linspace(11.0, 13.0, 400)])
        got = partial_corrs_from_covs(covs)
        assert np.isnan(got).any() and not np.isnan(got).all()
        self._assert_same(covs)

    def test_norm_bound_tight_at_the_limit(self):
        """Geometric spectra make the norm bound equal cond to ~1e-12, and
        the SVD's own error near cond 1e12 is ~1e-4: the screen's margin is
        what keeps these matrices on the condition-number path."""
        rng = np.random.default_rng(12)
        for m in (3, 4):
            q, _ = np.linalg.qr(rng.standard_normal((20000, m, m)))
            cond = 1e12 * (1 + rng.uniform(-3e-3, 3e-3, 20000))
            eig = np.geomspace(1.0 / cond, np.ones_like(cond), m, axis=1)
            covs = (q * eig[:, None, :]) @ np.swapaxes(q, 1, 2)
            self._assert_same(covs)

    def test_well_conditioned_stack_needs_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("cond called on a stack the screen clears")

        rng = np.random.default_rng(4)
        covs = np.stack([_cov_with_cond(rng, 5, 10.0 ** rng.uniform(0, 8))
                         for _ in range(50)])
        want = _cond_first_rhos(covs)
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        assert partial_corrs_from_covs(covs).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 5),
        size=st.integers(1, 12),
        singular_member=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hypothesis_stacks(self, m, size, singular_member, seed):
        rng = np.random.default_rng(seed)
        self._assert_same(_mixed_stack(rng, m, size, singular_member))


class TestFisherZDecision:
    @staticmethod
    def _flip(n, k, alpha):
        """Adjacent floats (lo, hi): the scalar test says independent at lo
        and dependent at hi."""
        lo, hi = 0.0, 1.0
        while np.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                mid = np.nextafter(lo, 1.0)
            if _fisher_z(mid, n, k)[1] > alpha:
                lo = mid
            else:
                hi = mid
        return lo, hi

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("n", [7, 40, 1000, 60000])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_the_scalar_test_around_the_critical_rho(self, k, n, alpha):
        crit = _critical_rho(n, k, alpha)
        lo, hi = self._flip(n, k, alpha)
        assert crit * (1 - 1e-9) <= lo < hi <= crit * (1 + 1e-9)
        points = [0.0, 1.0, crit, crit * (1 - 1e-9), crit * (1 + 1e-9), 0.5, 1 - 1e-16]
        for centre in (lo, hi, crit, crit * (1 - 1e-9), crit * (1 + 1e-9)):
            below = above = centre
            for _ in range(4):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
                points += [below, above]
        rhos = np.array(points + [-p for p in points])
        got = _fisher_z_independent(rhos, n, k, alpha)
        want = [_fisher_z(float(r), n, k)[1] > alpha for r in rhos]
        assert got.tolist() == want
        assert got[rhos == lo].all() and not got[rhos == hi].any()

    def test_nan_is_never_independent(self):
        got = _fisher_z_independent(np.array([np.nan, 0.0, np.nan]), 100, 1, 0.05)
        assert got.tolist() == [False, True, False]

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 1.5])
    def test_degenerate_alpha(self, alpha):
        rhos = np.array([0.0, 1e-300, 0.3, -0.999, 1.0, -1.0])
        got = _fisher_z_independent(rhos, 50, 2, alpha)
        assert got.tolist() == [_fisher_z(float(r), 50, 2)[1] > alpha for r in rhos]
