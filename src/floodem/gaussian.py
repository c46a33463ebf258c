"""Multivariate Gaussian numerics shared by both EM variants.

Densities are taken in log space, since raw densities of the target rasters'
feature values underflow. `GaussianParams` refuses a covariance that fails
Cholesky and never repairs one. EM fits and factors its class pair as one
stack (`_fit_sums`, `GaussianParams.stack`), each class with its own bits.

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
BLOCK = 8192  # columns per block of a raw `log_pdf`: near-best for m = 3 and 4 at 256²


class Lifted:
    """An (n, m) point set lifted once to its Gaussian sufficient statistics.

    ``phi`` is (K, n) with K = 1 + m + m(m+1)/2, one contiguous row per
    statistic: a row of ones, the centred points z = x - ``center``, then
    z_i * z_j for i <= j in row-major order. Centring on the points' mean
    keeps the raw second moments close to the covariances they stand for.
    ``shape`` is the (n, m) of the points. ``sums`` is phi @ 1, the statistic
    sums of unit weights. ``ridge`` is the fits' psi: 1e-9 of sum_n |z_n|^2
    / m, so a unit-weight fit's ridge psi / n is 1e-9 of its mean variance.
    Points with no spread beyond the rounding of their centre, a mean |z|^2
    of at most (64 ulps of |centre|)^2, leave psi no scale: a DegenerateError.
    """

    def __init__(self, points: np.ndarray) -> None:
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError as exc:
            raise DimError("points do not share a common dimension") from exc
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimError(f"cannot lift points of shape {pts.shape}; need a non-empty (n, m) array")
        n, m = pts.shape
        self.shape = (n, m)
        self.pairs = np.triu_indices(m)
        self.quad = np.where(self.pairs[0] == self.pairs[1], -0.5, -1.0)  # theta's P weights: z_i z_j, i < j, is z_j z_i too
        self.phi = np.empty((1 + m + self.pairs[0].size, n))
        self.square = np.empty((m, m), dtype=np.intp)  # the row of phi behind each covariance entry
        self.square[self.pairs] = self.square.T[self.pairs] = np.arange(1 + m, self.phi.shape[0])
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

    `stack`'s stack of one. The covariance is symmetrized, evening out a
    computed fit's rounding (a model file's must already be symmetric); one
    that then fails Cholesky is a DataError, never repaired. L^-1 is cached,
    so a density is one triangular multiply, and so is tr(cov^-1) = |L^-1|_F^2.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol_inv: np.ndarray = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)
    _trace_prec: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(1, -1)
        vars(self).update(vars(GaussianParams.stack(mean, np.asarray(self.cov, dtype=float)[None])[0]))

    @classmethod
    def stack(cls, means: np.ndarray, covs: np.ndarray) -> tuple[GaussianParams, ...]:
        """(r, m) means and (r, m, m) covariances as r Gaussians, checked and factored by one batched
        Cholesky and one batched inverse; where they fail, the error is the first failing class's own."""
        r, m = means.shape
        if covs.shape[1:] != (m, m):
            raise DimError(f"covariance shape {covs.shape[1:]} does not match mean dimension {m}")
        if not (np.isfinite(means).all() and np.isfinite(covs).all()):
            for c in range(r if r > 1 else 0):  # a class before the non-finite one may fail Cholesky first
                cls.stack(means[c : c + 1], covs[c : c + 1])
            raise DataError("Gaussian parameters contain non-finite entries")
        half = covs / 2.0  # halved first, so a finite entry cannot overflow
        sym = half + half.swapaxes(1, 2)
        try:
            chol = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:  # every class is finite, so the first to fail says what any would
            raise DataError("covariance is not positive definite") from None
        inv = np.linalg.inv(chol)
        log_norm = -0.5 * m * _LOG_2PI - np.log(chol.diagonal(0, 1, 2)).sum(axis=1)
        gs = tuple(object.__new__(cls) for _ in range(r))
        for g, *fields in zip(gs, means, sym, inv, log_norm.tolist(), np.square(inv).sum(axis=(1, 2)).tolist()):
            g.mean, g.cov, g._chol_inv, g._log_norm, g._trace_prec = fields
        return gs

    @property
    def dim(self) -> int:
        return self.mean.size


def _theta(g: GaussianParams, lifted: Lifted) -> np.ndarray:
    """Coefficients theta of ln N(x; mean, cov) on the lift: the log density is ``theta @ lifted.phi``."""
    d = g.mean - lifted.center
    prec = g._chol_inv.T @ g._chol_inv
    prec_d = prec @ d
    return np.concatenate([[g._log_norm - 0.5 * float(d @ prec_d)], prec_d, lifted.quad * prec[lifted.pairs]])


def log_pdf(g: GaussianParams, x: np.ndarray | Lifted, out: np.ndarray | None = None) -> np.ndarray:
    """Log densities ln N(x; mean, cov) of a (n, m) batch or a `Lifted`
    batch, written into ``out`` where one is given. A raw batch is read as
    its (m, n) transpose, z = L^-1 (x^T - mean) with one contiguous row per
    coordinate: `RasterScene.feature_matrix`'s layout."""
    if isinstance(x, Lifted):
        if x.shape[1] != g.dim:
            raise DimError(f"point dimension {x.shape} does not match Gaussian dimension {g.dim}")
        return np.matmul(_theta(g, x), x.phi, out=out)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != g.dim:
        raise DimError(f"point dimension {x.shape} does not match Gaussian dimension {g.dim}")
    n, m = x.shape
    out = np.empty(n) if out is None else out
    # BLOCK columns at a time through two reused (m, BLOCK) buffers, each
    # density from the same operations as one whole-array pass: its bits. A
    # one-column product takes BLAS's matrix-vector path, which can round
    # otherwise, so a lone last column joins the block before it.
    buf = np.empty((2, m * min(n, BLOCK + 1)))
    for a in range(0, n - 1 if n > 1 else n, BLOCK):
        b = n if a + BLOCK >= n - 1 else a + BLOCK
        d, z = buf[:, : m * (b - a)].reshape(2, m, b - a)
        np.subtract(x[a:b].T, g.mean[:, None], out=d)
        np.matmul(g._chol_inv, d, out=z)
        maha = np.einsum("ij,ij->j", z, z, out=out[a:b])
        maha *= 0.5
        np.subtract(g._log_norm, maha, out=maha)
    return out


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
    return _fit_sums(lift, (lift.phi @ w)[None])[0]


def _fit_sums(lift: Lifted, sums: np.ndarray) -> tuple[GaussianParams, ...]:
    """`weighted_mle`'s fits, as one `GaussianParams.stack`, from an (r, K) stack of
    sums phi @ w of weights w >= 0, each row's first entry their total W. The
    covariance (S_w + psi I) / W, psi the lift's ``ridge``, exactly maximizes
    sum_n w_n ln N(x_n; mean, Sigma) - psi/2 tr(Sigma^-1), the objective EM never
    lets drop. Where a row fails, the first that fails raises its own error."""
    totals = sums[:, :1]
    if not totals.min(initial=np.inf) > 0.0:  # a NaN total is the minimum, and fails every comparison
        _fit_sums(lift, sums[: np.argmin(totals[:, 0] > 0.0)])
        raise DegenerateError("total weight is zero")
    r, m = sums.shape[0], lift.shape[1]
    moments = sums / totals
    offset = moments[:, 1 : 1 + m]
    cov = moments[:, lift.square]
    cov -= offset[:, :, None] * offset[:, None, :]
    cov.reshape(r, m * m)[:, :: m + 1] += lift.ridge / totals
    return GaussianParams.stack(lift.center + offset, cov)
