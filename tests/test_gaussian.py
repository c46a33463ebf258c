import math

import numpy as np
import pytest

from floodem.errors import DataError, DegenerateError, DimError
from floodem.gaussian import GaussianParams, Lifted, log_pdf, weighted_mle
from floodem.oracle import log_density, raw_weighted_mle


def test_log_pdf_standard_normal_at_mode():
    g = GaussianParams(np.zeros(1), np.eye(1))
    assert log_pdf(g, np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_log_pdf_bivariate_standard_at_mode():
    g = GaussianParams(np.zeros(2), np.eye(2))
    assert log_pdf(g, np.zeros(2)) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_log_pdf_matches_direct_formula():
    # m=1, mu=3, var=4, x=5: direct scalar evaluation of the density formula
    g = GaussianParams(np.array([3.0]), np.array([[4.0]]))
    expected = -0.5 * math.log(2 * math.pi * 4.0) - (5.0 - 3.0) ** 2 / (2 * 4.0)
    assert expected == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5, abs=1e-15)
    assert log_pdf(g, np.array([5.0])) == pytest.approx(expected, abs=1e-12)


def test_log_pdf_batch_matches_scalar(rng):
    g = GaussianParams(rng.normal(size=3), np.diag([1.0, 2.0, 3.0]))
    pts = rng.normal(size=(10, 3))
    batch = log_pdf(g, pts)
    for i in range(10):
        assert batch[i] == pytest.approx(log_pdf(g, pts[i]), abs=1e-12)


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
        log_pdf(g, np.zeros(3))


# Points 0 and 2 lie 1 from their centre: the ridge is 1e-9 * (1 + 1) / 1.
TWO_POINT_RIDGE = 2e-9


def test_weighted_mle_two_points_unit_weights():
    for points in ([[0.0], [2.0]], [0.0, 2.0]):  # (n,) points are n one-dimensional points
        est = weighted_mle(np.array(points), np.array([1.0, 1.0]))
        assert est.mean[0] == pytest.approx(1.0, abs=1e-15)
        # (S_w + psi) / W with S_w = 1 + 1 and W = 2
        assert est.cov[0, 0] == pytest.approx((2.0 + TWO_POINT_RIDGE) / 2.0, abs=1e-15)


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
