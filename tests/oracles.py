"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the code paths it checks: the
eigensolver is a hand-rolled Jacobi sweep rather than LAPACK, gradients
come from central differences, the solver reference is plain proximal
gradient with a tiny fixed step, and the quadratic-loss reference is
coordinate descent.  The quadrature loss integrates the kernel density
numerically instead of using the closed forms, and the one-step LAMM
helpers spell out, one call per piece, what the solver's loop does
inline.
"""

import numpy as np
from scipy import integrate

from faqr import (
    DimensionError,
    check_loss,
    kernel_density,
    loss_gradient,
    loss_value,
    soft_threshold,
)


def jacobi_eigh(a, max_sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    evals = np.diag(a).copy()
    order = np.argsort(evals)[::-1]
    return evals[order], v[:, order]


def fd_gradient(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += eps
        dn[j] -= eps
        g[j] = (f(up) - f(dn)) / (2.0 * eps)
    return g


def fd_jacobian(g, x, eps=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += eps
        dn[j] -= eps
        cols.append((g(up) - g(dn)) / (2.0 * eps))
    return np.column_stack(cols)


def golden_section(f, lo, hi, tol=1e-12, max_iter=500):
    """Golden-section search for the minimizer of a unimodal function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def prox_grad_reference(z, y, tau, kernel_cdf_fn, h, lam_sigma, step=1e-3, iters=10**6):
    """Plain proximal gradient with a tiny fixed step on the smoothed loss.

    Slow but simple: theta <- soft(theta - step * grad, step * lam_sigma).
    """
    n = y.shape[0]
    theta = np.zeros(z.shape[1])
    for _ in range(iters):
        r = y - z @ theta
        psi = kernel_cdf_fn(-r / h) - tau
        grad = z.T @ psi / n
        v = theta - step * grad
        t = step * lam_sigma
        theta = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    return theta


def lasso_cd_quarter(z, y, lam_sigma, iters=3000):
    """Coordinate descent for (1/(4n)) ||y - Z theta||^2 + sum t_j |theta_j|.

    The quarter scaling matches the Huberized expectile loss at tau=1/2
    when no residual exceeds the cutoff.
    """
    n, p = z.shape
    theta = np.zeros(p)
    col_sq = (z * z).sum(axis=0)
    r = y.copy()
    for _ in range(iters):
        for j in range(p):
            rho = r + z[:, j] * theta[j]
            b = z[:, j] @ rho / (2.0 * n)
            a = col_sq[j] / (2.0 * n)
            new = np.sign(b) * max(abs(b) - lam_sigma[j], 0.0) / a
            r = rho - z[:, j] * new
            theta[j] = new
    return theta


def canonical_correlations(a, b):
    """Canonical correlations between the column spaces of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.svd(qa.T @ qb, compute_uv=False)


def smoothed_check_by_quadrature(r, tau, kernel):
    """Quadrature evaluation of the smoothed check loss at a scalar residual.

    Integrates rho_tau(t) K_h(t - r) over the effective support.
    """
    r = float(r)
    h = kernel.h
    if kernel.family in ("uniform", "epanechnikov"):
        lo, hi = r - h, r + h
    else:
        lo, hi = r - 45.0 * h, r + 45.0 * h

    def integrand(t):
        return check_loss(t, tau) * kernel_density(kernel, (t - r) / h) / h

    pts = [0.0] if lo < 0.0 < hi else None
    val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=200)
    return val


def lamm_iterate(problem, lam, theta_prev, phi):
    """One proximal step: exact minimizer of the isotropic surrogate."""
    if not phi > 0:
        raise DimensionError("phi must be positive")
    g = loss_gradient(problem, theta_prev)
    return soft_threshold(theta_prev - g / phi, (lam / phi) * problem.sigma_hat)


def majorization_holds(problem, theta_new, theta_prev, phi, slack=1e-12):
    """Whether the quadratic surrogate at theta_prev dominates the loss.

    The identical penalty term appears on both sides of the surrogate
    test and cancels, so only the smooth parts are compared.
    """
    f_prev = loss_value(problem, theta_prev)
    g = loss_gradient(problem, theta_prev)
    f_new = loss_value(problem, theta_new)
    delta = np.asarray(theta_new, dtype=float) - np.asarray(theta_prev, dtype=float)
    surrogate = f_prev + g @ delta + 0.5 * phi * (delta @ delta)
    return bool(surrogate >= f_new - slack)
