"""Latent factor extraction by principal components.

The observation matrix is decomposed as X = F B^T + U where the columns
of F/sqrt(n) are the leading eigenvectors of X X^T, B^T = F^T X / n, and
U is the residual.  Under this normalization (1/n) F^T F = I and B^T B
is diagonal.  The number of factors is selected by the eigenvalue-ratio
rule: the m maximizing lambda_m / lambda_{m+1}.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, DimensionError, NonFinite, RankDeficient

# Relative spectral floors below which the factor space, or an
# eigenvalue ratio, is considered unidentified.
_RANK_RTOL = 1e-12
_RATIO_RTOL = 1e-14


@dataclass(frozen=True)
class DataMatrix:
    """An n x d observation matrix with an optional response vector."""

    x: np.ndarray
    y: np.ndarray | None = None
    column_names: tuple | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2:
            raise DimensionError("x must be a 2-d array")
        n, d = x.shape
        if n < 2 or d < 1:
            raise DimensionError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if not np.isfinite(x).all():
            raise NonFinite("x contains non-finite entries")
        y = self.y
        if y is not None:
            y = np.asarray(y, dtype=float).ravel()
            if y.shape[0] != n:
                raise DimensionError(f"y has length {y.shape[0]}, expected {n}")
            if not np.isfinite(y).all():
                raise NonFinite("y contains non-finite entries")
            y = y.copy()
            y.setflags(write=False)
        names = self.column_names
        if names is not None:
            names = tuple(str(c) for c in names)
            if len(names) != d:
                raise DimensionError("column_names length does not match d")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    @cached_property
    def spectrum(self):
        """Read-only (eigenvalues, eigenvectors) of X X^T, computed on first use."""
        evals, vecs = _leading_eigen(self.x)
        evals.setflags(write=False)
        vecs.setflags(write=False)
        return evals, vecs


@dataclass(frozen=True)
class FactorModel:
    """Estimated factors, loadings, idiosyncratic parts, and the spectrum."""

    f_hat: np.ndarray
    b_hat: np.ndarray
    u_hat: np.ndarray
    m: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        for name in ("f_hat", "b_hat", "u_hat", "eigenvalues"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _leading_eigen(x):
    """Eigenvalues (descending, clipped at 0) and eigenvectors of X X^T.

    Works on whichever Gram matrix is smaller: X X^T directly when
    n <= d, otherwise X^T X with the singular-vector relation
    v_k = X w_k / sqrt(lambda_k).  Returns only vectors for eigenvalues
    above the rank floor; callers check they have enough.
    """
    n, d = x.shape
    evals, vecs = np.linalg.eigh(x @ x.T if n <= d else x.T @ x)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    vecs = vecs[:, order]
    if n <= d:
        return evals, vecs
    keep = evals > _RANK_RTOL * max(evals[0], 1e-300)
    left = np.zeros((n, d))
    if keep.any():
        left[:, keep] = x @ vecs[:, keep] / np.sqrt(evals[keep])
    return evals, left


def _fix_signs(vecs):
    """Flip columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def estimate_factors(data, m):
    """Estimate an m-factor model from the observation matrix.

    Parameters
    ----------
    data : DataMatrix
    m : int
        Number of factors, 1 <= m <= min(n, d).

    Returns
    -------
    FactorModel
        With f_hat = sqrt(n) times the top-m eigenvectors of X X^T,
        b_hat^T = f_hat^T X / n, and u_hat = X - f_hat b_hat^T.
    """
    x = data.x
    n, d = x.shape
    m = int(m)
    if not 1 <= m <= min(n, d):
        raise DimensionError(f"m must lie in [1, {min(n, d)}], got {m}")
    evals, vecs = data.spectrum
    evals = evals[: min(n, d)]
    if evals[0] <= 0.0 or evals[m - 1] < _RANK_RTOL * evals[0]:
        raise RankDeficient(
            f"eigenvalue {m} of X X^T is below {_RANK_RTOL:g} of the leading one; "
            "the factor space is not identified"
        )
    v = _fix_signs(vecs[:, :m])
    f_hat = np.sqrt(n) * v
    b_hat = x.T @ f_hat / n
    u_hat = x - f_hat @ b_hat.T
    return FactorModel(f_hat=f_hat, b_hat=b_hat, u_hat=u_hat, m=m, eigenvalues=evals)


def select_num_factors(data, m_max):
    """Pick the number of factors by the eigenvalue-ratio rule.

    Returns the m in [1, m_max] maximizing lambda_m / lambda_{m+1} of
    X X^T, breaking ties toward the smaller m.
    """
    n, d = data.x.shape
    m_max = int(m_max)
    if not 1 <= m_max <= min(n, d) - 1:
        raise DimensionError(f"m_max must lie in [1, {min(n, d) - 1}], got {m_max}")
    evals = data.spectrum[0][: m_max + 1]
    if evals[0] <= 0.0 or evals[m_max] < _RATIO_RTOL * evals[0]:
        raise DegenerateSpectrum(
            f"eigenvalue {m_max + 1} of X X^T is numerically zero relative to the "
            "leading one; reduce m_max"
        )
    ratios = evals[:m_max] / evals[1 : m_max + 1]
    return int(np.argmax(ratios)) + 1


def default_m_max(n, d):
    """Default selection bound: min(20, floor(min(n, d) / 2)), at least 1."""
    return max(1, min(20, min(n, d) // 2))
