"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them live).  The heavy Monte Carlo studies are shared session fixtures.
"""

import json

import numpy as np
import pytest

from faqr import (
    KernelSpec,
    QuantileProblem,
    fit_penalized,
    kernel_cdf,
    simulate_pivotal,
)
from faqr.factor_model import estimate_factors
from faqr.harness import (
    NoiseSpec,
    PipelineConfig,
    generate_dgp,
    rolling_backtest,
    run_power_study,
    run_simulation,
    sparse_signal_spec,
)
from faqr.harness.cli import main as cli_main
from faqr.harness.io import write_matrix_csv
from faqr.smoothed_loss import check_loss, default_bandwidth
from faqr.tuning import LambdaRule, select_lambda

from oracles import (
    canonical_correlations,
    fd_gradient,
    fd_jacobian,
    jacobi_eigh,
    kernel_density,
    loss_gradient,
    loss_hessian,
    loss_value,
    prox_grad_reference,
    smoothed_check,
    solver_settings,
)

REPS = 100


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_study(n, d, noise, reps=REPS, seed_base=1):
    spec = sparse_signal_spec(n=n, d=d, noise=noise, replicate_seed=seed_base)
    summaries, _ = run_simulation(spec, reps=reps, tau=0.5)
    return summaries


@pytest.fixture(scope="session")
def sim_grid_d200():
    grid = {}
    for noise_name, noise in (("gaussian", NoiseSpec.gaussian(0.5)),
                              ("t2", NoiseSpec.student_t(2))):
        for n in (200, 500, 1000):
            grid[noise_name, n] = run_study(n, 200, noise)
    return grid


@pytest.fixture(scope="session")
def sim_d500_t2():
    return run_study(500, 500, NoiseSpec.student_t(2))


def test_criterion_1_support_recovery_gaussian(sim_grid_d200):
    lines = []
    ok = True
    for n in (200, 500):
        s = sim_grid_d200["gaussian", n]["faqr"]
        ok = ok and s.tpr_mean >= 0.98 and s.fpr_mean <= 0.01
        lines.append(f"n={n} TPR={s.tpr_mean:.3f} FPR={s.fpr_mean:.4f}")
    report("criterion 1 (support recovery, gaussian d=200)", ok,
           "; ".join(lines) + " [need TPR>=0.98, FPR<=0.01]")


def test_criterion_2_heavy_tail_robustness(sim_d500_t2):
    faqr = sim_d500_t2["faqr"]
    qr = sim_d500_t2["qr_plain"]
    ok = (
        faqr.tpr_mean >= 0.97
        and faqr.fpr_mean <= 0.01
        and faqr.fpr_mean < qr.fpr_mean
    )
    report(
        "criterion 2 (t2 noise, d=500, n=500)", ok,
        f"FAQR TPR={faqr.tpr_mean:.3f} FPR={faqr.fpr_mean:.4f}; "
        f"plain-QR FPR={qr.fpr_mean:.4f} [need TPR>=0.97, FPR<=0.01, FAQR<QR]",
    )


def test_criterion_3_error_trend(sim_grid_d200):
    lines = []
    ok = True
    for noise_name in ("gaussian", "t2"):
        med = [sim_grid_d200[noise_name, n]["faqr"].l1_median for n in (200, 500, 1000)]
        qr_med = [
            sim_grid_d200[noise_name, n]["qr_plain"].l1_median for n in (200, 500, 1000)
        ]
        decreasing = med[0] > med[1] > med[2]
        dominates = all(f <= q for f, q in zip(med, qr_med))
        ok = ok and decreasing and dominates
        lines.append(
            f"{noise_name}: FAQR medians {['%.3f' % m for m in med]} vs "
            f"QR {['%.3f' % m for m in qr_med]}"
        )
    report("criterion 3 (l1 error trend, d=200)", ok,
           "; ".join(lines) + " [need strictly decreasing and FAQR<=QR]")


def test_criterion_4_test_size():
    runs, lo, hi = 500, 0.02, 0.09
    cases = [
        ("residual", NoiseSpec.gaussian(0.5), "gaussian"),
        ("residual", NoiseSpec.student_t(2), "t2"),
        ("multiplier", NoiseSpec.student_t(2), "t2"),
    ]
    lines = []
    ok = True
    for i, (method, noise, noise_name) in enumerate(cases):
        base = sparse_signal_spec(n=200, d=200, noise=noise, replicate_seed=0)
        pts = run_power_study(
            base, [0.0], reps=runs, b=200, method=method, tau=0.5,
            seed=5000 + i,
        )
        rate = pts[0].rejection_rate
        ok = ok and lo <= rate <= hi
        lines.append(f"{method}/{noise_name}: {rate:.3f}")
    report(
        f"criterion 4 (type I error, {runs} runs)", ok,
        "; ".join(lines) + f" [need within [{lo}, {hi}]]",
    )


def test_criterion_5_power_monotone():
    base = sparse_signal_spec(n=200, d=200, noise=NoiseSpec.gaussian(0.5),
                              replicate_seed=0)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    pts = run_power_study(base, grid, reps=150, b=200, method="residual",
                          tau=0.5, seed=777)
    rates = [p.rejection_rate for p in pts]
    inversions = [max(0.0, a - b) for a, b in zip(rates, rates[1:])]
    ok = (
        sum(1 for v in inversions if v > 0) <= 1
        and max(inversions, default=0.0) <= 0.03
        and rates[-1] >= 0.9
    )
    report(
        "criterion 5 (power curve, gaussian d=200 n=200)", ok,
        f"rates={['%.3f' % r for r in rates]} "
        "[need nondecreasing with one inversion <= 0.03, top >= 0.9]",
    )


def test_criterion_6_synthetic_backtest():
    cfg = PipelineConfig(num_factors=2)
    r2 = {"faqr": [], "qr_plain": []}
    for seed in range(20):
        spec = sparse_signal_spec(n=300, d=200, replicate_seed=10_000 + seed)
        data, _ = generate_dgp(spec)
        for method in ("faqr", "qr_plain"):
            rep = rolling_backtest(
                data, window=150, tau=0.5, method=method, config=cfg,
                seed=seed,
            )
            r2[method].append(rep.pseudo_r2)
    med_faqr = float(np.median(r2["faqr"]))
    med_qr = float(np.median(r2["qr_plain"]))
    ok = med_faqr > 0.5 and med_faqr >= med_qr
    report(
        "criterion 6 (synthetic rolling backtest, 20 seeds)", ok,
        f"median pseudo-R2: FAQR={med_faqr:.3f}, plain-QR={med_qr:.3f} "
        "[need FAQR>0.5 and FAQR>=QR]",
    )


def test_criterion_7_numerical_properties():
    lines = []
    ok = True

    # gradient and Hessian finite-difference checks
    rng = np.random.default_rng(1)
    z = rng.standard_normal((30, 5))
    y = z[:, 0] + 0.5 * rng.standard_normal(30)
    p = QuantileProblem(z, y, 0.4, KernelSpec("gaussian", 0.3), n_factors=1)
    theta = rng.standard_normal(5)
    g_err = np.abs(
        loss_gradient(p, theta) - fd_gradient(lambda t: loss_value(p, t), theta)
    ).max() / (1.0 + np.abs(loss_gradient(p, theta)).max())
    h_err = np.abs(
        loss_hessian(p, theta) - fd_jacobian(lambda t: loss_gradient(p, t), theta)
    ).max()
    ok &= g_err <= 1e-5 and h_err <= 1e-5
    lines.append(f"FD grad {g_err:.1e}, FD hess {h_err:.1e}")

    # LAMM descent and KKT on fresh fits, gaussian and t2 data
    worst_kkt = 0.0
    descent_ok = True
    for noise, seed in ((NoiseSpec.gaussian(0.5), 3), (NoiseSpec.student_t(2), 4)):
        spec = sparse_signal_spec(n=200, d=100, noise=noise, replicate_seed=seed)
        data, _ = generate_dgp(spec)
        fm = estimate_factors(data, 2)
        zz = np.hstack([fm.u_hat, fm.f_hat])
        pp = QuantileProblem(
            zz, data.y, 0.5,
            KernelSpec("gaussian", default_bandwidth(200, 100, 2, 0.5)), n_factors=2,
        )
        lam = select_lambda(pp, LambdaRule(seed=seed))
        fit = fit_penalized(pp, lam)
        descent_ok &= bool(np.all(np.diff(fit.objective_trace) <= 1e-12))
        worst_kkt = max(worst_kkt, fit.kkt_residual)

        # weighted-projection orthogonality on the same data
        from faqr.inference import fit_factor_only, weighted_project

        k = pp.kernel
        gamma0 = fit_factor_only(fm.f_hat, data.y, 0.5, k)[0]
        eps0 = data.y - fm.f_hat @ gamma0
        w = kernel_density(k, -eps0 / k.h) / k.h
        u_star = weighted_project(fm.u_hat, fm.f_hat, w)
        orth = np.abs(fm.f_hat.T @ (w[:, None] * u_star)).max()
        ok &= orth <= 1e-8
    ok &= descent_ok and worst_kkt <= 1e-4
    lines.append(f"descent={descent_ok}, worst KKT {worst_kkt:.1e}")

    # h-halving: smoothed loss approaches the check loss
    r = np.array([0.0, 0.4, -0.6, 1.3, -2.2])
    gaps = [
        float(np.mean(smoothed_check(r, 0.5, KernelSpec("gaussian", h))
                      - check_loss(r, 0.5)))
        for h in (0.1, 0.05, 0.025)
    ]
    halving = gaps[1] <= 0.6 * gaps[0] and gaps[2] <= 0.6 * gaps[1]
    ok &= halving
    lines.append(f"h-halving gaps {['%.2e' % g for g in gaps]}")

    # factor reconstruction and rotation consistency at scale
    spec = sparse_signal_spec(n=200, d=500, replicate_seed=8)
    data, truth = generate_dgp(spec)
    fm = estimate_factors(data, 2)
    recon = np.abs(fm.f_hat @ fm.b_hat.T + fm.u_hat - data.x).max()
    ok &= recon <= 1e-10 * np.abs(data.x).max()
    cc = canonical_correlations(fm.f_hat, truth.f).min()
    ok &= cc >= 0.95
    lines.append(f"reconstruction {recon:.1e}, canon corr {cc:.3f}")

    report("criterion 7 (numerical property suite)", bool(ok), "; ".join(lines))


def test_criterion_8_oracle_equivalences():
    lines = []
    ok = True

    # PCA vs dense Jacobi eigendecomposition
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 5))
    from faqr.factor_model import DataMatrix

    fm = estimate_factors(DataMatrix(x=x), 2)
    _, vecs = jacobi_eigh(x @ x.T)
    pca_err = 0.0
    for k in range(2):
        ours = fm.f_hat[:, k] / np.sqrt(8)
        ref = vecs[:, k] if np.dot(fm.f_hat[:, k], vecs[:, k]) >= 0 else -vecs[:, k]
        pca_err = max(pca_err, float(np.abs(ours - ref).max()))
    ok &= pca_err <= 1e-8
    lines.append(f"PCA vs Jacobi {pca_err:.1e}")

    # solver vs slow proximal-gradient reference
    n, dim = 100, 5
    z = rng.standard_normal((n, dim))
    y = z @ np.array([1.2, -0.8, 0, 0, 0]) + 0.4 * rng.standard_normal(n)
    h = 0.25
    p = QuantileProblem(z, y, 0.5, KernelSpec("gaussian", h), n_factors=0)
    lam = 0.08
    with solver_settings(tol=1e-12, kkt_tol=1e-8, max_outer=20000):
        fit = fit_penalized(p, lam)
    kspec = KernelSpec("gaussian", h)
    ref = prox_grad_reference(
        z, y, 0.5, lambda t: kernel_cdf(kspec, t), h, lam * p.sigma_hat,
        step=1e-3, iters=10**6,
    )
    solver_err = float(np.abs(fit.theta_hat - ref).max())
    ok &= solver_err <= 1e-4
    lines.append(f"solver vs prox-grad {solver_err:.1e}")

    # pivotal simulation vs an independent re-implementation on another bit
    # generator.  The reference takes 10**6 draws, so its own Monte Carlo
    # error (about 0.04%) is small against the 1% bound; a 10**4-draw
    # quantile is off by about 0.4% (one standard error) on its own.
    zq = rng.standard_normal((50, 10))
    pq = QuantileProblem(zq, np.zeros(50), 0.5, KernelSpec("gaussian", 0.3),
                         n_factors=0)
    ours = np.quantile(simulate_pivotal(pq, LambdaRule(seed=7, n_sim=10**4)), 0.9)
    zs = pq.z_hat / pq.sigma_hat
    gen = np.random.Generator(np.random.PCG64(424242))
    draws = []
    for _ in range(100):
        e = gen.random((10**4, 50))
        draws.append(np.abs((0.5 - (e <= 0.5)) @ zs).max(axis=1))
    ref_q = np.quantile(np.concatenate(draws), 0.9)
    tune_err = abs(ours - ref_q) / ref_q
    ok &= tune_err <= 0.01
    lines.append(f"pivotal 0.9-quantile rel err {tune_err:.4f}")

    report("criterion 8 (oracle equivalences)", bool(ok), "; ".join(lines))


def test_criterion_9_cli_determinism(tmp_path):
    spec = sparse_signal_spec(n=60, d=10, signal=(1.2, -0.8), gamma=(0.5,),
                              replicate_seed=13)
    data, _ = generate_dgp(spec)
    csv_path = tmp_path / "data.csv"
    write_matrix_csv(
        csv_path, np.column_stack([data.y, data.x]),
        header=["y"] + [f"x{j}" for j in range(10)],
    )
    jobs = {
        "fit": ["fit", "--data", str(csv_path), "--response", "y",
                "--factors", "1", "--seed", "3"],
        "simulate": ["simulate", "--n", "60", "--d", "12", "--reps", "10",
                     "--seed", "5", "--threads", "2"],
        "adequacy": ["adequacy", "--data", str(csv_path), "--response", "y",
                     "--method", "residual", "--reps", "100", "--factors", "1",
                     "--seed", "7"],
        "backtest": ["backtest", "--data", str(csv_path), "--response", "y",
                     "--window", "30", "--factors", "1", "--seed", "2",
                     "--threads", "2"],
    }
    ok = True
    lines = []
    for name, args in jobs.items():
        suffix = "csv" if name == "simulate" else "json"
        out1 = tmp_path / f"{name}_1.{suffix}"
        out2 = tmp_path / f"{name}_2.{suffix}"
        code1 = cli_main(args + ["--out", str(out1)])
        code2 = cli_main(args + ["--out", str(out2)])
        same = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()
        ok &= same
        lines.append(f"{name}={'identical' if same else 'MISMATCH'}")
    report("criterion 9 (byte-identical reruns)", bool(ok), "; ".join(lines))
