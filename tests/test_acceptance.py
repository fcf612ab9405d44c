"""Acceptance suite: one test per criterion, each printing a pass line with
the measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``.

All expected values come from independent oracles computed here: central
finite differences for derivatives, per-component ordinary least squares on
log-ratios for the small-power limit, self-generated ground truth for
recovery, hand loops for the leave-one-out scores, and Monte-Carlo sampling
for the coverage of sandwich confidence intervals.
"""

import time

import numpy as np
import pytest

from alphareg import (
    CvGrid,
    ZeroWithLogRatio,
    ZeroWithNonpositiveAlpha,
    closure,
    contiguity_matrix,
    fit_alpha_regression,
    fit_alpha_slx,
    fit_gwar,
    fitted_mean,
    gradient,
    gwar_marginal_effects,
    hessian_exact,
    kld,
    loocv_alpha,
    loocv_gwar,
    marginal_effects,
    median_heuristic_bandwidth,
    neighbor_lag,
    neighbor_table,
    sandwich_covariance,
    slx_effects,
    to_cartesian,
    chordal_distance_sq,
)
from alphareg.datasets import synthesize
from alphareg.regression import coef_to_theta
from alphareg.selection import _fold_start
from alphareg.simplex import alpha_transform, alpha_transform_inverse
from conftest import fd_gradient, fd_hessian, random_instance, rel_err

DEFAULT_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)


def test_criterion_1_derivative_correctness():
    """Analytic gradient and exact Hessian vs finite differences, 50 draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    alphas = (-1.0, -0.5, 0.25, 0.5, 1.0)
    worst_g, worst_h = 0.0, 0.0
    for trial in range(50):
        Y, X, B = random_instance(rng)
        alpha = alphas[trial % len(alphas)]
        worst_g = max(worst_g, rel_err(
            gradient(Y, X, alpha, B), fd_gradient(Y, X, alpha, B)))
        worst_h = max(worst_h, rel_err(
            hessian_exact(Y, X, alpha, B), fd_hessian(Y, X, alpha, B)))
    elapsed = time.perf_counter() - start
    assert worst_g < 1e-5, f"gradient relative error {worst_g:.2e}"
    assert worst_h < 1e-4, f"Hessian relative error {worst_h:.2e}"
    assert elapsed < 60.0
    print(f"criterion 1 derivative correctness: PASS "
          f"(grad {worst_g:.1e}, hess {worst_h:.1e}, {elapsed:.1f}s)")


def test_criterion_2_limit_consistency():
    """Estimates at a tiny power match per-component log-ratio OLS."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    n, D, p = 300, 4, 2
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    B_star = rng.uniform(-0.6, 0.6, size=(p + 1, D - 1))
    z = alpha_transform(fitted_mean(X, B_star), 0.5)
    Y = alpha_transform_inverse(z + 0.05 * rng.standard_normal(z.shape), 0.5)
    assert np.all(Y > 0)
    fit = fit_alpha_regression(Y, X, 1e-4)
    oracle = np.linalg.lstsq(X, np.log(Y[:, 1:] / Y[:, [0]]), rcond=None)[0]
    gap = np.max(np.abs(fit.coefficients - oracle))
    elapsed = time.perf_counter() - start
    assert gap < 1e-2, f"limit gap {gap:.2e}"
    assert elapsed < 30.0
    print(f"criterion 2 limit consistency: PASS (gap {gap:.1e}, {elapsed:.1f}s)")


def test_criterion_3_coefficient_recovery():
    """Self-generated truth: exact recovery noiseless, bounded with noise."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    n, D, p = 500, 3, 2
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    B_star = np.array([[0.2, -0.4], [0.6, 0.3], [-0.5, 0.25]])
    Y0 = fitted_mean(X, B_star)
    worst0, worstn = 0.0, 0.0
    for alpha in DEFAULT_GRID:
        fit = fit_alpha_regression(Y0, X, alpha)
        worst0 = max(worst0, float(np.max(np.abs(fit.coefficients - B_star))))
        z = alpha_transform(Y0, alpha) + 0.05 * rng.standard_normal((n, D - 1))
        fit_n = fit_alpha_regression(alpha_transform_inverse(z, alpha), X, alpha)
        worstn = max(worstn, float(np.max(np.abs(fit_n.coefficients - B_star))))
    elapsed = time.perf_counter() - start
    assert worst0 < 1e-4, f"noiseless recovery error {worst0:.2e}"
    assert worstn < 0.05, f"noisy recovery error {worstn:.3f}"
    assert elapsed < 30.0
    print(f"criterion 3 coefficient recovery: PASS "
          f"(noiseless {worst0:.1e}, noisy {worstn:.3f}, {elapsed:.1f}s)")


def test_criterion_4_marginal_effect_validity():
    """Analytic effects vs central differences of the mean map; sum rules."""
    rng = np.random.default_rng(404)
    Y, X, B = random_instance(rng, n=25, D=4, p=3)
    mu = fitted_mean(X, B)
    step = 1e-6
    worst_fd = 0.0
    for k in range(1, 4):
        eff = marginal_effects(B, mu, k)
        np.testing.assert_allclose(eff.sum(axis=1), 0.0, atol=1e-12)
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += step
        Xm[:, k] -= step
        fd = (fitted_mean(Xp, B) - fitted_mean(Xm, B)) / (2 * step)
        worst_fd = max(worst_fd, rel_err(eff, fd))
    assert worst_fd < 1e-5, f"effect FD error {worst_fd:.2e}"

    # lagged-covariate decomposition
    sim = synthesize(n=60, D=3, p=2, alpha=0.5, noise_scale=0.05,
                     spatial_mode="slx", seed=44)
    lag = neighbor_lag(*neighbor_table(sim["coords"], 4), sim["X"])
    slx = fit_alpha_slx(sim["Y"], sim["X"], lag, 0.5)
    for k in (1, 2):
        eff = slx_effects(slx, k)
        np.testing.assert_allclose(eff.total, eff.direct + eff.indirect,
                                   atol=1e-12)
        for table in (eff.direct, eff.indirect, eff.total):
            np.testing.assert_allclose(table.sum(axis=1), 0.0, atol=1e-12)

    # location-specific effects against per-location finite differences
    sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                     spatial_mode="two_cluster", seed=45)
    gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
    eff = gwar_marginal_effects(gfit, 1)
    np.testing.assert_allclose(eff.sum(axis=1), 0.0, atol=1e-12)
    worst_local = 0.0
    for i in range(40):
        xp, xm = sim["X"][i].copy(), sim["X"][i].copy()
        xp[1] += step
        xm[1] -= step
        Bi = gfit.local_coefficients[i]
        fd = (fitted_mean(xp[None], Bi) - fitted_mean(xm[None], Bi)) / (2 * step)
        worst_local = max(worst_local, rel_err(eff[i], fd[0]))
    assert worst_local < 1e-5, f"location effect FD error {worst_local:.2e}"
    print(f"criterion 4 marginal-effect validity: PASS "
          f"(FD {worst_fd:.1e}, local FD {worst_local:.1e})")


def test_criterion_5_gwar_reductions():
    """Flat-kernel collapse, sign recovery, and bandwidth selection."""
    sim = synthesize(n=300, D=3, p=1, alpha=0.5, noise_scale=0.03,
                     spatial_mode="two_cluster", seed=17)

    flat = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 1e6)
    glob = fit_alpha_regression(sim["Y"], sim["X"], 0.5)
    flat_gap = float(np.max(np.abs(flat.local_coefficients - glob.coefficients)))
    assert flat_gap < 1e-6, f"flat-kernel gap {flat_gap:.2e}"

    med = median_heuristic_bandwidth(sim["coords"])
    local = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, med / 8.0)
    signs = np.sign(local.local_coefficients[:, 1, :])
    base = np.sign(sim["B"][1])
    expected = np.where(sim["clusters"][:, None] == 0, base, -base)
    agreement = float(np.mean(np.all(signs == expected, axis=1)))
    assert agreement >= 0.95, f"sign agreement {agreement:.3f}"

    finite_wins = 0
    for seed in range(10):
        s = synthesize(n=60, D=3, p=1, alpha=0.5, noise_scale=0.03,
                       spatial_mode="two_cluster", seed=seed)
        m = median_heuristic_bandwidth(s["coords"])
        cv = loocv_gwar(s["Y"], s["X"], s["coords"],
                        CvGrid(alphas=(0.5,), hs=(m / 8.0, 1e6)))
        if cv.best[1] != 1e6:
            finite_wins += 1
    assert finite_wins >= 8, f"finite-bandwidth wins {finite_wins}/10"
    print(f"criterion 5 locally weighted reductions: PASS "
          f"(flat gap {flat_gap:.1e}, signs {agreement:.2f}, "
          f"wins {finite_wins}/10)")


def test_criterion_6_sandwich_coverage():
    """Coverage of 95% sandwich intervals over 1000 Monte-Carlo draws."""
    start = time.perf_counter()
    alpha = 0.5
    B_star = np.array([[0.2, -0.3], [0.5, 0.4]])
    theta_star = coef_to_theta(B_star)
    n, sigma = 1000, 0.1

    def one(rep):
        rng = np.random.default_rng([606, rep])
        X = np.hstack([np.ones((n, 1)), rng.uniform(-1, 1, size=(n, 1))])
        z = alpha_transform(fitted_mean(X, B_star), alpha)
        Y = alpha_transform_inverse(z + sigma * rng.standard_normal(z.shape),
                                    alpha)
        fit = fit_alpha_regression(Y, X, alpha)
        cov = sandwich_covariance(Y, X, alpha, fit.coefficients)
        se = np.sqrt(np.diag(cov.matrix))
        theta = coef_to_theta(fit.coefficients)
        return (theta - 1.96 * se <= theta_star) & (theta_star <= theta + 1.96 * se)

    hits = np.array([one(rep) for rep in range(1000)])
    coverage = hits.mean(axis=0)
    assert np.all(coverage >= 0.92) and np.all(coverage <= 0.97), (
        f"coverage {coverage}")

    # spherical special case against the sandwich diagonal
    rng = np.random.default_rng(607)
    m = 2000
    X = np.hstack([np.ones((m, 1)), rng.uniform(-1, 1, size=(m, 1))])
    z = alpha_transform(fitted_mean(X, B_star), alpha)
    Y = alpha_transform_inverse(z + sigma * rng.standard_normal(z.shape), alpha)
    fit = fit_alpha_regression(Y, X, alpha)
    sand = sandwich_covariance(Y, X, alpha, fit.coefficients)
    sph = sandwich_covariance(Y, X, alpha, fit.coefficients, kind="spherical")
    ratio = np.diag(sand.matrix) / np.diag(sph.matrix)
    assert np.all(np.abs(ratio - 1.0) < 0.25), f"diag ratio {ratio}"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 6 sandwich coverage: PASS "
          f"(coverage {np.round(coverage, 3).tolist()}, "
          f"diag ratio {np.round(ratio, 3).tolist()}, {elapsed:.0f}s)")


def test_criterion_7_loocv_oracle():
    """Engine scores equal a hand-written sequential recomputation."""
    sim = synthesize(n=60, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=77)
    Y, X = sim["Y"], sim["X"]
    alphas = (0.5, 1.0)
    cv = loocv_alpha(Y, X, CvGrid(alphas=alphas))

    # brute force: same protocol (fold fits started as the engine starts
    # them, from the chained full-data fit), written as plain loops
    brute = []
    warm = None
    start_by_alpha = {}
    for a in alphas:
        full = fit_alpha_regression(Y, X, a, theta0=warm)
        warm = full.lm.theta
        start_by_alpha[a] = _fold_start(full)
    for a in alphas:
        total = 0.0
        theta0, damping0 = start_by_alpha[a]
        for i in range(60):
            mask = np.arange(60) != i
            fold = fit_alpha_regression(Y[mask], X[mask], a, theta0=theta0,
                                        damping0=damping0)
            total += kld(Y[i:i + 1], fitted_mean(X[i:i + 1], fold.coefficients))
        brute.append(total)
    gap = float(np.max(np.abs(cv.scores - np.array(brute))))
    assert gap <= 1e-10, f"engine vs brute-force gap {gap:.2e}"
    print(f"criterion 7 leave-one-out oracle: PASS (gap {gap:.1e})")


def test_criterion_8_spatial_geometry():
    """Longitude wraparound and contiguity matrix invariants."""
    for lat in (0.0, 40.0):
        far = chordal_distance_sq(to_cartesian(lat, 179.0),
                                  to_cartesian(lat, -179.0))
        near = chordal_distance_sq(to_cartesian(lat, 1.0),
                                   to_cartesian(lat, -1.0))
        assert abs(far - near) < 1e-12

    rng = np.random.default_rng(808)
    from alphareg import GeoCoordinates

    coords = GeoCoordinates.from_degrees(rng.uniform(30, 45, 50),
                                         rng.uniform(-10, 30, 50))
    for k in (1, 5, 12):
        W = contiguity_matrix(coords, k)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(W) == 0.0)
        assert np.all((W > 0).sum(axis=1) == k)
    print("criterion 8 spatial geometry: PASS (wraparound + contiguity)")


def test_criterion_9_zero_handling():
    """30% zero cells fit at every positive grid power, error at alpha <= 0."""
    rng = np.random.default_rng(909)
    n, D, p = 120, 4, 2
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    B_star = rng.uniform(-0.5, 0.5, size=(p + 1, D - 1))
    Y = fitted_mean(X, B_star)
    zero_mask = rng.random((n, D)) < 0.3
    zero_mask[zero_mask.all(axis=1), 0] = False  # keep every row nonzero
    Y[zero_mask] = 0.0
    Y = closure(Y)
    frac = float(np.mean(Y == 0.0))
    assert 0.25 < frac < 0.35

    for alpha in DEFAULT_GRID:
        fit = fit_alpha_regression(Y, X, alpha)
        assert np.isfinite(fit.sse)
        np.testing.assert_allclose(fit.fitted.sum(axis=1), 1.0, atol=1e-12)

    with pytest.raises(ZeroWithNonpositiveAlpha):
        fit_alpha_regression(Y, X, -0.5)
    with pytest.raises(ZeroWithLogRatio):
        fit_alpha_regression(Y, X, 0.0)
    print(f"criterion 9 zero handling: PASS ({frac:.2f} zero cells, "
          f"all positive grid powers fit)")
