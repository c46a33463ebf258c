"""Multivariate Gaussian numerics shared by both EM variants.

Densities are taken in log space, since raw densities of the target rasters'
feature values underflow. `GaussianParams` refuses a covariance that fails
Cholesky and never repairs one.

Every covariance fit follows one rule, a fixed ridge psi per lift (a
conjugate covariance prior; Fraley & Raftery, J. Classification 2007): the fit
of weights w with total W is Sigma = (S_w + psi I) / W, S_w the weighted
scatter around the weighted mean, the exact maximizer of the weighted log
likelihood plus the log prior -psi/2 tr(Sigma^-1). So EM over these fits is
MAP-EM, and the fit is positive definite however the weights collapse.

Fits run on the lift (`Lifted`) Phi = [1, z, z_i z_j for i <= j],
z = x - (mean of the points), one contiguous row per statistic: a fit needs
only the statistic sums Phi @ w, and a log density is linear in Phi, so EM
lifts its points once. The lift keeps its column sums Phi @ 1, so the fit of
weights 1 - w costs no second product: its sums are Phi @ 1 - Phi @ w.
`log_pdf` keeps the Cholesky path for raw points, for prediction and MAP:
two raw densities cost less than a lift and its two products, and only the
raw path keeps MAP's exact ties. Both paths read the points channel by channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateError, DimError

_LOG_2PI = float(np.log(2.0 * np.pi))


class Lifted:
    """An (n, m) point set lifted once to its Gaussian sufficient statistics.

    ``phi`` is (K, n) with K = 1 + m + m(m+1)/2, one contiguous row per
    statistic: a row of ones, the centred points z = x - ``center``, then
    z_i * z_j for i <= j in row-major order. Centring on the points' mean
    keeps the raw second moments close to the covariances they stand for.
    ``shape`` is the (n, m) of the points, like a point array's; (n,) points
    are n one-dimensional points. ``sums`` is phi @ 1, the statistic sums of
    unit weights. ``ridge`` is the fits' psi: 1e-9 of sum_n |z_n|^2 / m, so a
    unit-weight fit's ridge psi / n is 1e-9 of its mean variance. Points with
    no spread beyond the rounding of their centre, a mean |z|^2 of at most
    (64 ulps of |centre|)^2, have no scale to set psi from: a DegenerateError.
    """

    def __init__(self, points: np.ndarray) -> None:
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError as exc:
            raise DimError("points do not share a common dimension") from exc
        if pts.ndim not in (0, 2) and pts.size:  # row k of any other shape is point k
            pts = pts.reshape(len(pts), -1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimError(f"cannot lift points of shape {pts.shape}; need a non-empty (n, m) array")
        n, m = pts.shape
        self.shape = (n, m)
        self.pairs = np.triu_indices(m)
        self.phi = np.empty((1 + m + self.pairs[0].size, n))
        self.phi[0] = 1.0
        z = self.phi[1 : 1 + m]
        # The centre from each channel's running sum, the order a point-major
        # mean adds in, so either layout of the points lifts to the same bits.
        self.center = np.cumsum(pts.T, axis=1, out=z)[:, -1] / n
        np.subtract(pts.T, self.center[:, None], out=z)
        for k, (i, j) in enumerate(zip(*self.pairs), start=1 + m):
            np.multiply(z[i], z[j], out=self.phi[k])
        self.sums = self.phi.sum(axis=1)
        spread = float(self.sums[1 + m + np.flatnonzero(self.pairs[0] == self.pairs[1])].sum())
        if spread <= (64.0 * np.finfo(float).eps) ** 2 * n * float(self.center @ self.center):
            raise DegenerateError("points have no spread beyond the rounding of their centre")
        self.ridge = 1e-9 * spread / m


@dataclass
class GaussianParams:
    """Mean vector and positive-definite covariance of one class's feature distribution.

    The covariance is symmetrized on construction; one that then fails
    Cholesky is a DataError, never repaired. The inverse factor is cached so
    per-pixel density evaluation is a single triangular multiply.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        m = self.mean.size
        if cov.shape != (m, m):
            raise DimError(f"covariance shape {cov.shape} does not match mean dimension {m}")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(cov))):
            raise DataError("Gaussian parameters contain non-finite entries")
        cov = (cov + cov.T) / 2.0
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DataError("covariance is not positive definite") from None
        self.cov = cov
        self._chol_inv = np.linalg.inv(chol)
        self._log_norm = -0.5 * m * _LOG_2PI - float(np.sum(np.log(np.diag(chol))))

    @property
    def dim(self) -> int:
        return self.mean.size


def _theta(g: GaussianParams, lifted: Lifted) -> np.ndarray:
    """Coefficients of ln N(x; mean, cov) on the lifted coordinates, so the
    log density is ``theta @ lifted.phi``."""
    d = g.mean - lifted.center
    prec = g._chol_inv.T @ g._chol_inv
    prec_d = prec @ d
    # z_i z_j appears once for i < j, so its coefficient carries both P_ij and P_ji.
    quad = -0.5 * (2.0 - np.eye(g.dim)) * prec
    return np.concatenate([[g._log_norm - 0.5 * float(d @ prec_d)], prec_d, quad[lifted.pairs]])


def log_pdf(g: GaussianParams, x: np.ndarray | Lifted, out: np.ndarray | None = None) -> np.ndarray | float:
    """Log density ln N(x; mean, cov), for a single vector, a (n, m) batch or a
    `Lifted` batch; a batch's densities go into ``out`` where one is given.
    A raw batch is read as its (m, n) transpose, z = L^-1 (x^T - mean) with
    one contiguous row per coordinate: `RasterScene.feature_matrix`'s layout."""
    if isinstance(x, Lifted):
        if x.shape[1] != g.dim:
            raise DimError(f"point dimension {x.shape} does not match Gaussian dimension {g.dim}")
        return np.matmul(_theta(g, x), x.phi, out=out)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != g.dim:
        raise DimError(f"point dimension {x.shape} does not match Gaussian dimension {g.dim}")
    z = g._chol_inv @ np.subtract(pts.T, g.mean[:, None], order="C")
    maha = np.einsum("ij,ij->j", z, z)
    out = np.subtract(g._log_norm, 0.5 * maha, out=out)
    return float(out[0]) if single else out


def weighted_mle(points: np.ndarray | Lifted, weights: np.ndarray) -> GaussianParams:
    """Weighted Gaussian fit under the lift's ridge, read from the lift.

    Raw points are lifted on entry. The mean is the weighted average, and the
    covariance the weighted outer-product average around it plus psi / W on
    the diagonal; both come from phi @ w.
    """
    lift = points if isinstance(points, Lifted) else Lifted(points)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != lift.shape[0]:
        raise DimError(f"{lift.shape[0]} points but {w.shape[0]} weights")
    if np.any(w < 0):
        raise DataError("negative weight")
    return _fit_sums(lift, lift.phi @ w)


def _fit_sums(lift: Lifted, sums: np.ndarray) -> GaussianParams:
    """`weighted_mle`'s fit from the statistic sums ``sums`` = phi @ w of some
    weights w >= 0; ``sums[0]``, from phi's row of ones, is their total W.
    The covariance (S_w + psi I) / W, psi the lift's ``ridge``, exactly
    maximizes sum_n w_n ln N(x_n; mean, Sigma) - psi/2 tr(Sigma^-1), the
    objective whose sum over the classes EM never lets drop."""
    total = float(sums[0])
    if not total > 0.0:
        raise DegenerateError("total weight is zero")
    m = lift.shape[1]
    moments = sums / total
    offset = moments[1 : 1 + m]
    cov = np.empty((m, m))
    cov[lift.pairs] = moments[1 + m :]
    cov.T[lift.pairs] = moments[1 + m :]
    cov -= np.outer(offset, offset)
    cov.flat[:: m + 1] += lift.ridge / total
    return GaussianParams(lift.center + offset, cov)
