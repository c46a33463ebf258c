import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodem.errors import DataError, DegenerateError, DimError, FloodemError
from floodem.gaussian import BLOCK, GaussianParams, Lifted, _fit_sums, log_pdf, weighted_mle
from floodem.oracle import log_density, raw_weighted_mle


def test_log_pdf_standard_normal_at_mode():
    g = GaussianParams(np.zeros(1), np.eye(1))
    assert log_pdf(g, np.zeros((1, 1)))[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_log_pdf_bivariate_standard_at_mode():
    g = GaussianParams(np.zeros(2), np.eye(2))
    assert log_pdf(g, np.zeros((1, 2)))[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_log_pdf_matches_direct_formula():
    # m=1, mu=3, var=4, x=5: direct scalar evaluation of the density formula
    g = GaussianParams(np.array([3.0]), np.array([[4.0]]))
    expected = -0.5 * math.log(2 * math.pi * 4.0) - (5.0 - 3.0) ** 2 / (2 * 4.0)
    assert expected == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5, abs=1e-15)
    assert log_pdf(g, np.array([[5.0]]))[0] == pytest.approx(expected, abs=1e-12)


def test_log_pdf_batch_matches_scalar(rng):
    g = GaussianParams(rng.normal(size=3), np.diag([1.0, 2.0, 3.0]))
    pts = rng.normal(size=(10, 3))
    batch = log_pdf(g, pts)
    for i in range(10):
        assert batch[i] == pytest.approx(log_pdf(g, pts[i : i + 1])[0], abs=1e-12)


def test_log_pdf_integrates_to_one_1d():
    mu, sig = 1.7, 1.5
    g = GaussianParams(np.array([mu]), np.array([[sig**2]]))
    xs = np.linspace(mu - 6 * sig, mu + 6 * sig, 200001)
    dens = np.exp(log_pdf(g, xs[:, None]))
    integral = float(np.sum((dens[1:] + dens[:-1]) * np.diff(xs)) / 2.0)
    assert abs(integral - 1.0) <= 1e-8


def test_log_pdf_dim_mismatch():
    g = GaussianParams(np.zeros(2), np.eye(2))
    with pytest.raises(DimError):
        log_pdf(g, np.zeros((1, 3)))
    with pytest.raises(DimError):  # a single point is a one-row batch, never a bare vector
        log_pdf(g, np.zeros(2))


# Points 0 and 2 lie 1 from their centre: the ridge is 1e-9 * (1 + 1) / 1.
TWO_POINT_RIDGE = 2e-9


def test_weighted_mle_two_points_unit_weights():
    est = weighted_mle(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
    assert est.mean[0] == pytest.approx(1.0, abs=1e-15)
    # (S_w + psi) / W with S_w = 1 + 1 and W = 2
    assert est.cov[0, 0] == pytest.approx((2.0 + TWO_POINT_RIDGE) / 2.0, abs=1e-15)
    with pytest.raises(DimError):  # points are (n, m), never reshaped from (n,)
        weighted_mle(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def test_weighted_mle_zero_weight_removes_point():
    est = weighted_mle(np.array([[0.0], [2.0]]), np.array([1.0, 0.0]))
    assert est.mean[0] == pytest.approx(0.0, abs=1e-15)
    # No scatter around the one weighted point: psi / W with W = 1.
    assert est.cov[0, 0] == pytest.approx(TWO_POINT_RIDGE, rel=1e-12, abs=0.0)


def test_weighted_mle_matches_independent_moments(rng):
    pts = rng.normal(size=(50, 3)) * 2.0 + 1.0
    est = weighted_mle(pts, np.ones(50))
    mean = pts.mean(axis=0)
    centered = pts - mean
    psi = 1e-9 * np.sum(centered**2) / 3.0
    cov = (centered.T @ centered + psi * np.eye(3)) / 50.0
    np.testing.assert_allclose(est.mean, mean, atol=1e-12)
    np.testing.assert_allclose(est.cov, cov, atol=1e-12)


def test_weighted_mle_weight_homogeneity(rng):
    pts = rng.normal(size=(20, 2))
    w = rng.uniform(0.1, 2.0, size=20)
    a = weighted_mle(pts, w)
    b = weighted_mle(np.vstack([pts, pts]), np.concatenate([w / 2, w / 2]))
    np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
    np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)


def test_weighted_mle_errors():
    with pytest.raises(DegenerateError):
        weighted_mle(np.array([[1.0], [2.0]]), np.array([0.0, 0.0]))
    with pytest.raises(DimError):
        weighted_mle(np.array([[1.0], [2.0]]), np.array([1.0]))
    with pytest.raises(DimError, match="common dimension"):
        weighted_mle([[1.0, 2.0], [3.0]], np.ones(2))
    with pytest.raises(DataError):
        weighted_mle(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))


def test_weighted_mle_factorizes_its_fit_once(rng, monkeypatch):
    """The fit goes through the checked constructor: one factorization, and
    the Gaussian it makes from the same mean and covariance, bit for bit."""
    pts, w = rng.normal(size=(50, 3)) * [1.0, 5.0, 20.0], rng.uniform(0.1, 1.0, size=50)
    calls, cholesky = [], np.linalg.cholesky

    def counting(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    g = weighted_mle(Lifted(pts), w)
    assert len(calls) == 1
    monkeypatch.undo()
    ref = GaussianParams(g.mean, g.cov)
    assert np.array_equal(g.mean, ref.mean) and np.array_equal(g.cov, ref.cov)
    assert np.array_equal(g._chol_inv, ref._chol_inv) and g._log_norm == ref._log_norm


def test_log_pdf_writes_into_out(rng):
    g = GaussianParams(rng.normal(size=2), np.array([[2.0, 0.3], [0.3, 1.0]]))
    pts = rng.normal(size=(20, 2))
    for x in (pts, Lifted(pts)):
        out = np.empty(20)
        assert log_pdf(g, x, out=out) is out
        np.testing.assert_array_equal(out, log_pdf(g, x))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_raw_log_pdf_in_blocks_has_the_bits_of_one_whole_array_pass(rng, m):
    """The raw density runs BLOCK columns at a time, and every density is bit
    for bit the one whole-array formula's, at and around the block edges, in
    either point layout, with and without ``out``. N = 0 takes no block. A
    one-column block would take BLAS's matrix-vector path, whose density
    differs in about one draw in five for m > 1, so N = BLOCK + 1 gets 20
    more draws."""
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3) + (BLOCK + 1,) * 20:
        a = rng.normal(size=(m, m))
        g = GaussianParams(rng.normal(size=m) * 10.0, 50.0 * (a @ a.T + m * np.eye(m)))
        for x in (rng.normal(size=(m, n)).T * 20.0 + 40.0, rng.normal(size=(n, m)) * 20.0 + 40.0):
            z = g._chol_inv @ np.subtract(x.T, g.mean[:, None], order="C")
            whole = np.subtract(g._log_norm, 0.5 * np.einsum("ij,ij->j", z, z))
            assert np.array_equal(log_pdf(g, x), whole), n
            out = np.empty(n)
            assert log_pdf(g, x, out=out) is out
            assert np.array_equal(out, whole), n


def test_weighted_mle_cov_always_factorizes(rng):
    # includes nearly-degenerate weight patterns
    for _ in range(25):
        pts = rng.normal(size=(12, 3))
        w = rng.uniform(0.0, 1.0, size=12) ** 8
        if w.sum() == 0.0:
            continue
        est = weighted_mle(pts, w)
        np.linalg.cholesky(est.cov)


def test_gaussian_params_symmetrizes():
    g = GaussianParams(np.zeros(2), np.array([[2.0, 0.3], [0.1, 2.0]]))
    np.testing.assert_array_equal(g.cov, g.cov.T)


@pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1e-12]]])
def test_gaussian_params_rejects_a_covariance_cholesky_fails(cov):
    # A given covariance is used as it stands, never repaired.
    with pytest.raises(DataError, match="positive definite"):
        GaussianParams(np.zeros(2), np.array(cov))


def _scaled_points(rng, n, m, offset, scale):
    """Correlated points whose channels differ in scale by up to 100x."""
    mix = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
    scales = scale * 10.0 ** rng.uniform(-1.0, 1.0, size=m)
    return (rng.normal(size=(n, m)) @ mix) * scales + offset * rng.uniform(-1.0, 1.0, size=m)


def test_lifted_columns_are_ones_centred_points_and_pair_products():
    pts = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 7.0]])
    lift = Lifted(pts)
    z = pts - [3.0, 5.0]
    expected = np.vstack([np.ones(3), z.T, z[:, 0] ** 2, z[:, 0] * z[:, 1], z[:, 1] ** 2])
    assert lift.shape == (3, 2)
    np.testing.assert_array_equal(lift.center, [3.0, 5.0])
    # Feature-major: one contiguous row of all points per statistic.
    assert lift.phi.flags.c_contiguous
    np.testing.assert_array_equal(lift.phi, expected)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lifted_path_matches_raw_points(m):
    rng = np.random.default_rng(100 + m)
    for offset in (0.0, 1e3, 1e6):
        for scale in (1e-3, 1.0, 1e3):
            pts = _scaled_points(rng, 300, m, offset, scale)
            w = rng.uniform(size=300) ** 4  # soft weights concentrated like EM responsibilities
            lift = Lifted(pts)
            raw, lifted = raw_weighted_mle(pts, w), weighted_mle(lift, w)
            sd = np.sqrt(np.diag(raw.cov))
            assert np.max(np.abs(lifted.mean - raw.mean) / (np.abs(raw.mean) + sd)) <= 1e-12
            assert np.max(np.abs(lifted.cov - raw.cov) / np.outer(sd, sd)) <= 1e-10
            for g in (raw, raw_weighted_mle(pts, rng.uniform(size=300))):
                ref = log_density(g, pts)
                assert np.max(np.abs(log_pdf(g, lift) - ref) / (1.0 + np.abs(ref))) <= 1e-10


def test_log_pdf_and_the_lift_read_either_point_layout_alike(rng):
    """Point-major (C-ordered) and feature-major (F-ordered) copies of the
    same points give the same densities and the same lift."""
    pts = _scaled_points(rng, 500, 3, 1e3, 10.0)
    point_major, feature_major = np.ascontiguousarray(pts), np.asfortranarray(pts)
    g = raw_weighted_mle(pts, rng.uniform(size=500))
    np.testing.assert_allclose(log_pdf(g, feature_major), log_pdf(g, point_major), rtol=1e-12, atol=0.0)
    a, b = Lifted(point_major), Lifted(feature_major)
    np.testing.assert_allclose(b.center, a.center, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(b.phi, a.phi, rtol=1e-12, atol=1e-12 * np.abs(a.phi).max())
    # (1, 1) sits midway between means (0, 0) and (2, 2) of one covariance:
    # an exact tie in either layout.
    tie = np.ones((6, 2))
    g0, g2 = GaussianParams(np.zeros(2), np.eye(2)), GaussianParams(np.full(2, 2.0), np.eye(2))
    for x in (np.ascontiguousarray(tie), np.asfortranarray(tie)):
        np.testing.assert_array_equal(log_pdf(g0, x), log_pdf(g2, x))


@pytest.mark.parametrize("value", [0.1, 3.0, 1e6 + 0.1])
def test_lifted_constant_channel_gets_the_same_jitter(rng, value):
    """A constant channel's variance is the ridge alone, psi / W, with psi
    from the spread of the other channels over all the points."""
    pts = np.column_stack([rng.normal(size=(40, 2)), np.full(40, value)])
    w = rng.uniform(size=40)
    raw, lifted = raw_weighted_mle(pts, w), weighted_mle(Lifted(pts), w)
    jitter = 1e-9 * np.sum(np.var(pts[:, :2], axis=0) * 40) / 3.0 / w.sum()
    # The raw-point reference's variance keeps the square of its mean's
    # rounding error (about 1e-20 at 1e6), so only the lifted one is the
    # jitter to the last bits.
    assert lifted.cov[2, 2] == pytest.approx(jitter, rel=1e-12, abs=0.0)
    assert raw.cov[2, 2] == pytest.approx(jitter, rel=1e-9, abs=0.0)
    sd = np.sqrt(np.diag(raw.cov))
    assert np.max(np.abs(lifted.cov - raw.cov) / np.outer(sd, sd)) <= 1e-9
    assert lifted.mean[2] == pytest.approx(value, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("value", [0.1, 3.0, 1e6 + 0.1])
def test_constant_one_channel_fit_gets_the_absolute_floor(rng, value):
    """Constant points have no spread beyond the rounding of their centre, so
    no ridge scales with them and no floor stands in: any fit of them, and
    any fit whose points differ from them by an ulp, is a DegenerateError."""
    pts = np.full((50, 1), value)
    nudged = pts.copy()
    nudged[::7] = np.nextafter(value, np.inf)
    for points in (pts, nudged, pts[:1]):
        with pytest.raises(DegenerateError, match="no spread beyond the rounding of their centre"):
            Lifted(points)
        with pytest.raises(DegenerateError, match="no spread"):
            weighted_mle(points, rng.uniform(size=len(points)))
    assert Lifted(np.array([[value], [value * (1.0 + 1e-10)]])).ridge > 0.0


def test_lifted_path_keeps_every_input_check():
    lift = Lifted(np.array([[1.0], [2.0]]))
    with pytest.raises(DimError):
        weighted_mle(lift, np.array([1.0]))
    with pytest.raises(DataError):
        weighted_mle(lift, np.array([1.0, -1.0]))
    with pytest.raises(DegenerateError):
        weighted_mle(lift, np.array([0.0, 0.0]))
    with pytest.raises(DimError):
        log_pdf(GaussianParams(np.zeros(2), np.eye(2)), lift)
    with pytest.raises(DimError):
        Lifted(np.zeros((0, 2)))


def _factored_alone(mean, cov):
    """One class factored by itself, from its (m,) mean and (m, m)
    covariance: (mean, symmetrized covariance, L^-1, log normaliser,
    |L^-1|_F^2), each from single-matrix calls."""
    sym = cov / 2.0 + cov.T / 2.0
    chol = np.linalg.cholesky(sym)
    inv = np.linalg.inv(chol)
    log_norm = -0.5 * mean.size * float(np.log(2.0 * np.pi)) - float(np.sum(np.log(np.diag(chol))))
    return mean, sym, inv, log_norm, float(np.sum(inv**2))


def _fitted_alone(lift, sums):
    """One class's fit from its (K,) statistic sums, by the covariance rule
    with scalar arithmetic and an (m, m) scatter, then `_factored_alone`."""
    total, m = float(sums[0]), lift.shape[1]
    moments = sums / total
    offset = moments[1 : 1 + m]
    cov = np.empty((m, m))
    cov[lift.pairs] = moments[1 + m :]
    cov.T[lift.pairs] = moments[1 + m :]
    cov -= np.outer(offset, offset)
    cov.flat[:: m + 1] += lift.ridge / total
    return _factored_alone(lift.center + offset, cov)


def _assert_bits(g, ref):
    for got, want in zip((g.mean, g.cov, g._chol_inv, g._log_norm, g._trace_prec), ref):
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)


def _first_error(calls):
    """(type, message) of the first call that raises a FloodemError, or None."""
    for call in calls:
        try:
            call()
        except FloodemError as exc:
            return type(exc), str(exc)
    return None


def _raised(call):
    try:
        call()
    except FloodemError as exc:
        return type(exc), str(exc)
    return None


_ROW_KINDS = ["ok", "ok", "zero weight", "not positive definite", "nan"]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), kinds=st.tuples(*[st.sampled_from(_ROW_KINDS)] * 2))
def test_a_stacked_fit_is_each_rows_fit_bit_for_bit(seed, m, kinds):
    """`_fit_sums` of a (2, K) stack gives each row's fit bit for bit: the
    fit of that row alone and the scalar covariance rule factored by
    single-matrix calls. Where a row has zero weight, a covariance that is
    not positive definite or a NaN statistic, the stack raises the error
    its first failing row raises alone."""
    rng = np.random.default_rng(seed)
    lift = Lifted(rng.normal(size=(40, m)) * rng.uniform(0.5, 20.0, size=m) + rng.normal(size=m) * 30.0)
    sums = np.array([lift.phi @ rng.uniform(0.0, 1.0, size=40) ** 4 for _ in kinds])
    for row, kind in zip(sums, kinds):
        if kind == "zero weight":
            row[:] = 0.0
        elif kind == "not positive definite":  # unit offsets, no scatter: variances psi / W - 1 < 0
            row[1:] = np.r_[np.full(m, row[0]), np.zeros(row.size - 1 - m)]
        elif kind == "nan":
            row[1 + rng.integers(row.size - 1)] = np.nan
    want = _first_error(lambda c=c: _fit_sums(lift, sums[c : c + 1]) for c in range(2))
    assert (want is None) == (set(kinds) == {"ok"})
    assert _raised(lambda: _fit_sums(lift, sums)) == want
    if want is None:
        for c, g in enumerate(_fit_sums(lift, sums)):
            _assert_bits(g, _fitted_alone(lift, sums[c]))
            _assert_bits(_fit_sums(lift, sums[c : c + 1])[0], _fitted_alone(lift, sums[c]))


_COV_KINDS = ["ok", "ok", "not positive definite", "nan", "inf", "-inf in the mean", "inf against -inf"]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), kinds=st.tuples(*[st.sampled_from(_COV_KINDS)] * 2))
def test_a_stack_of_gaussians_is_each_constructor_bit_for_bit(seed, m, kinds):
    """`GaussianParams.stack` of two classes gives each class's constructor,
    and the single-matrix factorization, bit for bit. Where a class is not
    positive definite or has a non-finite entry, among them +inf and -inf
    at mirrored entries, the stack raises the first failing class's own
    error, with no numpy warning."""
    rng = np.random.default_rng(seed)
    means, covs = rng.normal(size=(2, m)) * 10.0, np.empty((2, m, m))
    for c, kind in enumerate(kinds):
        a = rng.normal(size=(m, m))
        covs[c] = a @ a.T + rng.uniform(0.1, 1.0) * np.eye(m) + rng.normal(size=(m, m)) * 1e-12
        i, j = rng.integers(m, size=2)
        if kind == "not positive definite":
            covs[c, i, i] = -rng.uniform(0.0, 1.0)
        elif kind in ("nan", "inf"):
            covs[c, i, j] = np.nan if kind == "nan" else np.inf
        elif kind == "-inf in the mean":
            means[c, i] = -np.inf
        elif kind == "inf against -inf":
            covs[c, 0, -1], covs[c, -1, 0] = np.inf, -np.inf
    want = _first_error(lambda c=c: GaussianParams(means[c], covs[c]) for c in range(2))
    assert (want is None) == (set(kinds) == {"ok"})
    assert _raised(lambda: GaussianParams.stack(means, covs)) == want
    if want is None:
        for c, g in enumerate(GaussianParams.stack(means, covs)):
            _assert_bits(g, _factored_alone(means[c], covs[c]))
            _assert_bits(GaussianParams(means[c], covs[c]), _factored_alone(means[c], covs[c]))
