"""Reference implementations and test-only readers used as test oracles.

Everything after the readers deliberately avoids the code paths it
checks: the eigensolver is a hand-rolled Jacobi sweep rather than
LAPACK, gradients come from central differences, the solver reference is
plain proximal gradient with a tiny fixed step, and the quadratic-loss
reference is coordinate descent.  The quadrature loss integrates the
kernel density numerically instead of using the closed forms, and the
one-step LAMM helpers spell out, one call per piece, what the solver's
loop does inline.

The readers at the top are not independent: the loss value, gradient
and Hessian, the elementwise smoothed check loss, the kernel density,
the KKT residual and soft-thresholding are views of faqr's own code (the
kernel pass and the two helpers behind it, the solver's KKT helper and
its shrink), so that the tests check that code through them.  No runtime path needs them.
``solver_settings`` sets the solver's tolerances and budgets for a block.
``load_csv_by_cells`` is the CSV reader as a plain loop: csv.reader
splits the file and float() parses each cell.
"""

import csv
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from faqr import DimensionError, MissingValue, ParseError, check_loss, kernel_pass, solver
from faqr.factor_model import DataMatrix
from faqr.smoothed_loss import _cdf_density, _terms
from faqr.solver import _kkt_from_gradient, _shrink


def loss_value(problem, theta):
    """Sample smoothed quantile objective (1/n) sum_i l(r_i(theta))."""
    return kernel_pass(problem.residuals(theta), problem.tau, problem.kernel).value


def loss_gradient(problem, theta):
    """Gradient (1/n) sum_i [Kbar_h(-r_i) - tau] z_i of the objective."""
    psi = kernel_pass(problem.residuals(theta), problem.tau, problem.kernel).psi
    return problem.z_hat.T @ psi / problem.n


def loss_hessian(problem, theta):
    """Hessian (1/n) sum_i K_h(-r_i) z_i z_i^T of the objective."""
    w = kernel_pass(problem.residuals(theta), problem.tau, problem.kernel).weight / problem.n
    hess = (problem.z_hat * w[:, None]).T @ problem.z_hat
    return 0.5 * (hess + hess.T)


def smoothed_check(r, tau, kernel):
    """Smoothed check loss of residuals r, elementwise."""
    out = _terms(np.asarray(r, dtype=float), tau, kernel)[0]
    return out if out.ndim else float(out)


def kernel_density(kernel, t):
    """Unscaled kernel density K(t).  K_h(t) is K(t/h)/h by composition."""
    out = _cdf_density(kernel.family, np.asarray(t, dtype=float))[1]
    return out if out.ndim else float(out)


def kkt_residual(problem, theta, lam):
    """Max violation of the subgradient optimality conditions at theta."""
    theta = np.asarray(theta, dtype=float)
    return _kkt_from_gradient(loss_gradient(problem, theta), theta, lam * problem.sigma_hat)


def soft_threshold(v, t):
    """Componentwise soft-thresholding: sign(v) max(|v| - t, 0)."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim and t.shape != v.shape:
        raise DimensionError("threshold vector must match v in length")
    if np.any(t < 0):
        raise DimensionError("thresholds must be non-negative")
    out = _shrink(v, t)
    return out if out.ndim else float(out)


@contextmanager
def solver_settings(**values):
    """Set solver module constants for the block: phi0=... sets solver._PHI0.

    Names are phi0, tol, kkt_tol, max_outer and max_inner; a misspelt
    name raises, because the patch needs the constant to exist.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(solver, "_" + name.upper(), value)
        yield


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


def load_csv_by_cells(path, response_column=None, has_header=True):
    """faqr.harness.io.load_csv as one loop over csv.reader's rows and cells."""
    with open(path, newline="") as fh:
        header, rows = None, []
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if has_header and header is None:
                header = [c.strip() for c in row]
                continue
            rows.append((line_no, row))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} fields, rows have {width}")
    if response_column is None:
        resp_idx = None
    elif isinstance(response_column, str) and not response_column.lstrip("-").isdigit():
        if header is None:
            raise ParseError(f"{path}: response column by name needs a header row")
        if response_column not in header:
            raise ParseError(f"{path}: no column named {response_column!r} in header {header}")
        resp_idx = header.index(response_column)
    else:
        resp_idx = int(response_column)
        if not 0 <= resp_idx < width:
            raise ParseError(f"{path}: response index {resp_idx} out of range [0, {width})")
    values = np.empty((len(rows), width))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: line {line_no} has {len(row)} fields, expected {width}",
                             line=line_no)
        for j, cell in enumerate(row):
            where = dict(line=line_no, column=j + 1)
            if not cell.strip():
                raise MissingValue(f"{path}: empty cell at line {line_no}, column {j + 1}",
                                   **where)
            try:
                v = float(cell.strip())
            except ValueError:
                raise ParseError(f"{path}: cannot parse {cell!r} at line {line_no}, "
                                 f"column {j + 1}", **where) from None
            if not math.isfinite(v):
                raise MissingValue(f"{path}: non-finite value {cell!r} at line {line_no}, "
                                   f"column {j + 1}", **where)
            values[i, j] = v
    names = None if header is None else tuple(header)
    if resp_idx is None:
        return DataMatrix(x=values, y=None, column_names=names)
    keep = [k for k in range(width) if k != resp_idx]
    names = None if names is None else tuple(names[k] for k in keep)
    return DataMatrix(x=values[:, keep], y=values[:, resp_idx], column_names=names)
