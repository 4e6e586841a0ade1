"""Independent checks of each workload's outputs.

Nothing here imports faqr.  The checks rebuild what they need from the
inputs with their own numpy code: principal components from an SVD
(with faqr's documented sign rule), the documented bandwidth rule, the
Gaussian-kernel smoothed score, the empirical window quantiles.  The
thresholds come from the acceptance criteria and from the method's own
stopping rules, not from observed outputs.  Each check returns a list
of problems; an empty list means the output passed.
"""

import math

import numpy as np

from inputs import SUPPORT, true_beta

KKT_TOL = 1e-4  # acceptance criterion 7: worst KKT residual of a fit
DESCENT_SLACK = 1e-12  # acceptance criterion 7: objective trace may not rise
NULL_GRAD_TOL = 1e-8  # fit_factor_only accepts a gradient norm up to max(gtol, 1e-8)
T_N_RTOL = 1e-6  # recomputed adequacy statistic, relative
METRIC_RTOL = 1e-9  # recomputed MAPE and pseudo-R2, relative
P_VALUE_MAX = 0.01  # adequacy p-value under the strong signal
TPR_MIN = 0.95  # Monte Carlo mean true-positive rate of FAQR

_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_cdf(t):
    t = np.asarray(t, dtype=float)
    return 0.5 * _erfc(-t / math.sqrt(2.0)).astype(float)


def norm_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def bandwidth(n, d, m, tau):
    """The documented default: max(0.05, sqrt(tau(1-tau)) (log(d+m)/n)^(1/4))."""
    return max(0.05, math.sqrt(tau * (1.0 - tau)) * (math.log(d + m) / n) ** 0.25)


def pca(x, m):
    """Idiosyncratic parts and factors of an m-factor model, from an SVD.

    Factors are sqrt(n) times the leading left singular vectors, each
    flipped so that its largest-magnitude entry is positive.
    """
    n = x.shape[0]
    left = np.linalg.svd(x, full_matrices=False)[0][:, :m]
    signs = np.sign(left[np.argmax(np.abs(left), axis=0), np.arange(m)])
    f = math.sqrt(n) * left * np.where(signs == 0, 1.0, signs)
    loadings = x.T @ f / n
    return x - f @ loadings.T, f


def kkt_residual(z, y, theta, lam, tau, h):
    """Worst violation of the subgradient conditions of the penalized fit.

    The penalty weights are the column standard deviations of z.
    """
    theta = np.asarray(theta, dtype=float)
    weights = lam * z.std(axis=0)
    r = y - z @ theta
    g = z.T @ (norm_cdf(-r / h) - tau) / len(y)
    on = theta != 0.0
    viol = np.where(on, np.abs(g + weights * np.sign(theta)), np.maximum(np.abs(g) - weights, 0.0))
    return float(viol.max())


def empirical_quantile(values, tau):
    """Linear interpolation between order statistics (Hyndman-Fan type 7)."""
    a = np.sort(values)
    pos = (len(a) - 1) * tau
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(a) - 1)
    return float(a[lo] + (pos - lo) * (a[hi] - a[lo]))


def _check_loss(r, tau):
    return r * (tau - (r < 0))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _support(beta):
    return frozenset(int(j) for j in np.nonzero(beta)[0])


def check_fit(out, x, y, tau):
    """``faqr fit``: KKT on the benchmark's own design, support, factor count."""
    problems = []
    beta = np.asarray(out["beta"], dtype=float)
    gamma = np.asarray(out["gamma"], dtype=float)
    m = gamma.size
    if m != 2:
        problems.append(f"selected m={m}, the generator has 2 factors")
    if m < 1 or beta.size != x.shape[1]:
        return problems + [f"beta has {beta.size} entries and gamma {m}"]
    u, f = pca(x, m)
    kkt = kkt_residual(
        np.hstack([u, f]), y, np.concatenate([beta, gamma]), out["lambda"], tau,
        bandwidth(*x.shape, m, tau),
    )
    if not kkt <= KKT_TOL:
        problems.append(f"recomputed KKT residual {kkt:.3g} > {KKT_TOL:g}")
    if _support(beta) != SUPPORT:
        problems.append(f"support {sorted(_support(beta))} != {sorted(SUPPORT)}")
    return problems


def check_backtest(out, y, window, tau):
    """``faqr backtest``: MAPE and pseudo-R2 recomputed from the predictions."""
    problems = []
    if out["failures"]:
        problems.append(f"{len(out['failures'])} failed windows")
    pred = np.asarray(out["predictions"], dtype=float)
    actual = np.asarray(out["actuals"], dtype=float)
    if pred.size != y.size - window or not np.array_equal(actual, y[window:]):
        return problems + ["predictions or actuals do not line up with the input panel"]
    bench = np.array([empirical_quantile(y[t - window : t], tau) for t in range(window, y.size)])
    mape = float(np.abs(actual - pred).mean())
    r2 = 1.0 - _check_loss(actual - pred, tau).sum() / _check_loss(actual - bench, tau).sum()
    if not _close(mape, out["mape"], METRIC_RTOL):
        problems.append(f"MAPE {out['mape']!r} != recomputed {mape!r}")
    if not _close(r2, out["pseudo_r2"], METRIC_RTOL):
        problems.append(f"pseudo-R2 {out['pseudo_r2']!r} != recomputed {r2!r}")
    if not r2 > 0.0:
        problems.append(f"pseudo-R2 {r2:.4f} is not positive")
    return problems


def check_adequacy(out, x, y, tau):
    """``faqr adequacy``: t_n and the null-fit gradient from ``gamma_null``."""
    problems = []
    gamma = np.asarray(out["gamma_null"], dtype=float)
    n, d = x.shape
    h = bandwidth(n, d, gamma.size, tau)
    u, f = pca(x, gamma.size)
    r = y - f @ gamma
    psi = norm_cdf(-r / h) - tau
    grad = float(np.linalg.norm(f.T @ psi / n))
    if not grad <= NULL_GRAD_TOL:
        problems.append(f"factor-only gradient norm {grad:.3g} at gamma_null > {NULL_GRAD_TOL:g}")
    a = f * (norm_pdf(-r / h) / h)[:, None]
    u_star = u - a @ np.linalg.solve(a.T @ a, a.T @ u)
    t_n = float(np.abs(u_star.T @ psi / n).max())
    if not _close(t_n, out["t_n"], T_N_RTOL):
        problems.append(f"t_n {out['t_n']!r} != recomputed {t_n!r}")
    if not out["p_value"] <= P_VALUE_MAX:
        problems.append(f"p-value {out['p_value']} > {P_VALUE_MAX} under a strong signal")
    return problems


def check_monte_carlo(out, panels, tau):
    """Monte Carlo study: every fit's KKT and descent, then recovery rates."""
    problems = []
    if len(out["replicates"]) != len(panels):
        return [f"{len(out['replicates'])} replicates for {len(panels)} panels"]
    tpr, l1_faqr, l1_plain = [], [], []
    for r, (rec, (x, y)) in enumerate(zip(out["replicates"], panels)):
        n, d = x.shape
        beta_star = true_beta(d)
        u, f = pca(x, 2)
        designs = {
            "faqr": (np.hstack([u, f]), bandwidth(n, d, 2, tau)),
            "qr_plain": (x, bandwidth(n, d, 0, tau)),
        }
        for method, (z, h) in designs.items():
            fit = rec[method]
            theta = np.concatenate([fit["beta"], fit["gamma"]])
            if theta.size != z.shape[1]:
                problems.append(f"replicate {r} {method}: {theta.size} coefficients, design has {z.shape[1]}")
                continue
            kkt = kkt_residual(z, y, theta, fit["lambda"], tau, h)
            if not kkt <= KKT_TOL:
                problems.append(f"replicate {r} {method}: KKT residual {kkt:.3g} > {KKT_TOL:g}")
            rise = float(np.diff(fit["objective_trace"]).max(initial=0.0))
            if rise > DESCENT_SLACK:
                problems.append(f"replicate {r} {method}: objective rose by {rise:.3g}")
        beta_faqr = np.asarray(rec["faqr"]["beta"], dtype=float)
        tpr.append(len(_support(beta_faqr) & SUPPORT) / len(SUPPORT))
        l1_faqr.append(float(np.abs(beta_faqr - beta_star).sum()))
        l1_plain.append(float(np.abs(np.asarray(rec["qr_plain"]["beta"]) - beta_star).sum()))
    if not np.mean(tpr) >= TPR_MIN:
        problems.append(f"FAQR mean TPR {np.mean(tpr):.3f} < {TPR_MIN}")
    if not np.median(l1_faqr) <= np.median(l1_plain):
        problems.append(
            f"FAQR median l1 error {np.median(l1_faqr):.4f} > plain QR's {np.median(l1_plain):.4f}"
        )
    return problems
