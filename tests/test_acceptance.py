"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

from genevar.asymptotics import (
    cov_identity_residual,
    pooled_curve_asymptotics,
    replicate_curve_asymptotics,
    synthetic_response_cov,
)
from genevar.cli import main
from genevar.correlation import fixed_point_solve
from genevar.inference import gene_sigma, power_increase, t_pvalues, validation_tests, z_pvalues
from genevar.model import (
    CorrelationEstimate,
    EstimationConfig,
    MultiArraySet,
)
from genevar.simulation import (
    SimDesign,
    generate_set,
    intensity_density,
    run_experiment,
    sample_intensities,
    scale_moments,
    variance_function,
)
from genevar.smoothing import ScatterData, kde_values, local_linear_at
from genevar.synthetic import synthetic_responses
from conftest import make_array


def check(criterion, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert condition, f"criterion {criterion}: {detail}"


def test_criterion_1_correlation_benchmark():
    """Benchmark reproduction at desk scale, T=100, rho in {-0.4, 0, 0.6}."""
    t0 = time.time()
    reports = {}
    for rho in (-0.4, 0.0, 0.6):
        design = SimDesign(rho=rho, n_runs=100, seed=1001)
        reports[rho] = run_experiment(
            design, estimators=("replicate_average", "corrected", "oracle"))
    elapsed = time.time() - t0

    m0_eta = reports[0.0].metrics["replicate_average"]
    m0_cor = reports[0.0].metrics["corrected"]
    gap = abs(m0_eta.mise - m0_cor.mise)
    check("1a", gap < 0.05e-3 and 0.1e-3 <= m0_eta.mise <= 0.5e-3,
          f"rho=0: MISE(uncorrected)={1e3 * m0_eta.mise:.3f}e-3, "
          f"MISE(corrected)={1e3 * m0_cor.mise:.3f}e-3, gap={1e3 * gap:.3f}e-3 "
          "(need gap < 0.05e-3, MISE in [0.1, 0.5]e-3)")

    m6_eta = reports[0.6].metrics["replicate_average"]
    m6_cor = reports[0.6].metrics["corrected"]
    ratio = m6_eta.mise / m6_cor.mise
    check("1b", ratio > 10.0,
          f"rho=0.6: MISE(uncorrected)/MISE(corrected)={ratio:.1f} (need > 10)")

    biases = {rho: reports[rho].metrics["corrected"].bias2 for rho in reports}
    check("1c", all(b < 0.05e-3 for b in biases.values()),
          "corrected Bias^2 by rho: "
          + ", ".join(f"{r}: {1e3 * b:.4f}e-3" for r, b in biases.items())
          + " (need all < 0.05e-3)")

    check("1d", elapsed < 600.0, f"runtime {elapsed:.0f}s (budget 600s)")


def test_criterion_2_gene_effect_designs():
    """Two-stage baseline vs residual-based estimator, T=100 per design."""
    nonsmooth = run_experiment(
        SimDesign(rho=0.0, n_runs=100, seed=1002, effect_mode="gene"),
        estimators=("two_stage", "replicate_average"))
    smooth = run_experiment(
        SimDesign(rho=0.0, n_runs=100, seed=1003, effect_mode="smooth"),
        estimators=("two_stage", "replicate_average"))

    b_naive = nonsmooth.metrics["two_stage"].bias2
    b_resid = nonsmooth.metrics["replicate_average"].bias2
    check("2a", b_naive > 8e-3 and b_resid < 0.1e-3,
          f"nonsmooth effects: Bias^2(two_stage)={1e3 * b_naive:.2f}e-3 (need > 8e-3), "
          f"Bias^2(replicate_average)={1e3 * b_resid:.4f}e-3 (need < 0.1e-3)")

    m_naive = smooth.metrics["two_stage"].mise
    m_resid = smooth.metrics["replicate_average"].mise
    check("2b", m_naive < m_resid,
          f"smooth effects: MISE(two_stage)={1e3 * m_naive:.3f}e-3 < "
          f"MISE(replicate_average)={1e3 * m_resid:.3f}e-3")


def test_criterion_3_moment_truths():
    """Quadrature of the design noise-scale moments."""
    f = intensity_density
    s1, err1 = integrate.quad(
        lambda t: np.sqrt(variance_function(t)) * float(f(t)), 6, 16,
        points=[12.0], limit=400)
    s2, err2 = integrate.quad(
        lambda t: float(variance_function(t)) * float(f(t)), 6, 16,
        points=[12.0], limit=400)
    check("3", abs(s1 - 0.4217) < 1e-3 and abs(s2 - 0.1857) < 1e-3,
          f"sigma1={s1:.5f} (target 0.4217 +- 0.001), "
          f"sigma2={s2:.5f} (target 0.1857 +- 0.001); "
          f"quadrature errors {err1:.1e}, {err2:.1e}")
    cached = scale_moments()
    assert cached[0] == pytest.approx(s1, abs=1e-9)
    assert cached[1] == pytest.approx(s2, abs=1e-9)


def test_criterion_4_correlation_algorithm():
    """Fixed point bias at rho=0.8 and root-N consistency."""
    design = SimDesign(rho=0.8, n_runs=100, seed=1004)
    config = design.config()
    rhos = np.array([
        fixed_point_solve(generate_set(design, t), config).estimate.rho
        for t in range(design.n_runs)])
    bias = rhos.mean() - 0.8
    check("4a", abs(bias) <= 0.004,
          f"rho=0.8: mean bias {bias:+.5f} over T=100 (need |bias| <= 0.004)")

    # consistency run at a mid-range correlation, away from the clipping
    # boundary, with everything else fixed
    rmse = {}
    for n in (2000, 8000):
        d = SimDesign(rho=0.4, n_genes=n, n_runs=50, seed=1005)
        cfg = d.config()
        r = np.array([
            fixed_point_solve(generate_set(d, t), cfg).estimate.rho
            for t in range(d.n_runs)])
        rmse[n] = float(np.sqrt(np.mean((r - 0.4) ** 2)))
    ratio = rmse[8000] / rmse[2000]
    check("4b", 0.15 <= ratio <= 0.85,
          f"RMSE(N=8000)/RMSE(N=2000) = {rmse[8000]:.5f}/{rmse[2000]:.5f} "
          f"= {ratio:.2f} (need within 0.5 +- 0.35)")


def test_criterion_5_synthetic_covariance_oracle():
    """Monte Carlo covariance of the synthetic responses vs the closed form,
    and the transform identity, over random rows for I in {3, 4, 5}."""
    rng = np.random.default_rng(1006)
    sigma_fn = lambda x: np.sqrt(variance_function(x))
    n_draws = 1_000_000
    worst_z = 0.0
    worst_identity = 0.0
    cases = [(3, 0), (3, 1), (4, 2), (4, 3), (5, 4)]
    for i, _ in cases:
        x_row = rng.uniform(6.5, 15.5, i)
        omega = synthetic_response_cov(sigma_fn(x_row) ** 2)
        worst_identity = max(worst_identity,
                             cov_identity_residual(sigma_fn(x_row) ** 2))
        sig = sigma_fn(x_row)
        y = sig * rng.standard_normal((n_draws, i))
        z = synthetic_responses(make_array(y, x=np.tile(x_row, (n_draws, 1))))
        centered = z - z.mean(axis=0)
        emp = (centered.T @ centered) / (n_draws - 1)
        for a in range(i):
            for b in range(a, i):
                m22 = np.mean(centered[:, a] ** 2 * centered[:, b] ** 2)
                se = np.sqrt(max(m22 - emp[a, b] ** 2, 1e-30) / n_draws)
                worst_z = max(worst_z, abs(emp[a, b] - omega[a, b]) / se)
    check("5", worst_z < 3.0 and worst_identity < 1e-10,
          f"worst |emp - closed form| = {worst_z:.2f} MC standard errors "
          f"(need < 3); transform identity residual {worst_identity:.1e} "
          "(need < 1e-10)")


def test_criterion_6_asymptotic_variance_match():
    """Empirical curve variances vs the closed-form first/second-order
    formulas at x in {8, 12, 14} over T=500 runs, plus the exact reduction
    of the correlated-case coefficients at rho=0."""
    xs_eval = np.array([8.0, 12.0, 14.0])
    s1, s2 = scale_moments()
    config = EstimationConfig(bandwidth=1.0, grid=np.linspace(6, 16, 101))

    def moments(rho, n_reps=3):
        return CorrelationEstimate(rho=rho, sigma1=s1, sigma2=s2, iterations=0,
                                   converged=True, n_reps=n_reps)

    def at(x):
        return np.sqrt(variance_function(x)), intensity_density(x), 2000, 1.0

    t_runs = 500
    d0 = SimDesign(rho=0.0, n_runs=t_runs, seed=1007, n_arrays=1)
    d6 = SimDesign(rho=0.6, n_runs=t_runs, seed=1008, n_arrays=1)
    vals_rep = np.empty((t_runs, 3))
    vals_pool0 = np.empty((t_runs, 3))
    vals_pool6 = np.empty((t_runs, 3))
    for t in range(t_runs):
        array = generate_set(d0, t).arrays[0]
        z = synthetic_responses(array)
        vals_rep[t], _ = local_linear_at(
            ScatterData(array.x[:, 0], z[:, 0]), config, xs_eval)
        vals_pool0[t], _ = local_linear_at(
            ScatterData(array.x.ravel(), z.ravel()), config, xs_eval)
        array6 = generate_set(d6, t).arrays[0]
        vals_pool6[t], _ = local_linear_at(
            ScatterData(array6.x.ravel(), synthetic_responses(array6).ravel()),
            config, xs_eval)

    def se_of_var(sample):
        n = sample.size
        m2 = sample.var()
        m4 = np.mean((sample - sample.mean()) ** 4)
        return np.sqrt(max(m4 - (n - 3) / (n - 1) * m2 * m2, 1e-30) / n)

    worst = 0.0
    details = []
    for k, x in enumerate(xs_eval):
        v1, _ = replicate_curve_asymptotics(moments(0.0), *at(float(x)))
        z1 = abs(vals_rep[:, k].var(ddof=1) - v1) / se_of_var(vals_rep[:, k])
        _, _, vstar0 = pooled_curve_asymptotics(moments(0.0), *at(float(x)))
        z2 = abs(vals_pool0[:, k].var(ddof=1) - vstar0) / se_of_var(vals_pool0[:, k])
        _, _, vstar6 = pooled_curve_asymptotics(moments(0.6), *at(float(x)))
        z3 = abs(vals_pool6[:, k].var(ddof=1) - vstar6) / se_of_var(vals_pool6[:, k])
        worst = max(worst, z1, z2, z3)
        details.append(f"x={x:g}: {z1:.2f}/{z2:.2f}/{z3:.2f}")
    check("6a", worst < 3.0,
          "per-replicate, pooled(rho=0), pooled(rho=0.6) deviations in SEs: "
          + "; ".join(details) + f"; worst {worst:.2f} (need < 3)")

    worst_red = 0.0
    for i in (3, 4, 5, 10):
        est = moments(0.0, n_reps=i)
        for x in (8.0, 14.0):
            v1, v2 = replicate_curve_asymptotics(est, *at(x))
            v1p, v2p, _ = pooled_curve_asymptotics(est, *at(x))
            worst_red = max(worst_red,
                            abs(v1p - v1) / abs(v1), abs(v2p - v2) / abs(v2))
    check("6b", worst_red < 1e-12,
          f"correlated-case coefficients reduce at rho=0; worst relative "
          f"residual {worst_red:.2e} (need < 1e-12)")


def test_criterion_7_validation_calibration():
    """Null model with G=19, I=10, known scales: the chi-square statistic's
    p-values are uniform and the normal statistics hold their size."""
    rng = np.random.default_rng(1009)
    g_count, i_count, reps = 19, 10, 1000
    sigma_g = rng.uniform(0.5, 2.0, g_count)
    p1 = np.empty(reps)
    reject3 = 0
    reject4 = 0
    for r in range(reps):
        alpha = rng.normal(0, 1, g_count)
        y = alpha[:, None] + sigma_g[:, None] * rng.standard_normal((g_count, i_count))
        arr = make_array(y, x=np.full((g_count, i_count), 10.0))
        res = validation_tests(arr, sigma_g)
        p1[r] = res.p1
        reject3 += res.p3 < 0.05
        reject4 += res.p4 < 0.05
    ks = stats.kstest(p1, "uniform")
    size3 = reject3 / reps
    size4 = reject4 / reps
    check("7", ks.pvalue > 0.01 and 0.03 <= size3 <= 0.07 and 0.03 <= size4 <= 0.07,
          f"chi-square p-values KS p={ks.pvalue:.3f} (need > 0.01); "
          f"sizes at nominal 0.05: T3={size3:.3f}, T4={size4:.3f} "
          "(need in [0.03, 0.07])")


def test_criterion_8_gene_selection_pattern():
    """Planted effects with an accurately estimated variance curve: the
    z-test never selects fewer genes than the t-test, and theoretical vs
    empirical power gains agree within a factor of two on average."""
    rng = np.random.default_rng(1010)
    n_genes, n_arrays = 2000, 5
    mu = np.zeros(n_genes)
    mu[:400] = rng.laplace(0, 1, 400)
    x = sample_intensities((n_genes, n_arrays), rng)
    scale = np.sqrt(variance_function(x))
    y = mu[:, None] + scale * rng.standard_normal((n_genes, n_arrays))
    super_set = MultiArraySet(x=x[None], y=y[None],
                              gene_ids=tuple(f"g{k}" for k in range(n_genes)))
    config = EstimationConfig(bandwidth=1.0, grid=np.linspace(6, 16, 101))
    fp = fixed_point_solve(super_set, config, fixed_rho=0.0)
    pooled_x = x.ravel()
    density = lambda pts: kde_values(pooled_x, config, pts)
    sigma_hat = np.sqrt(np.clip([
        gene_sigma(fp.curve, x[g], density) for g in range(n_genes)
    ], 1e-12, None))

    means = y.mean(axis=1)
    sample_sd = y.std(axis=1, ddof=1)
    _, p_t, _ = t_pvalues(means, sample_sd, n_arrays)
    _, p_z = z_pvalues(means, sigma_hat, n_arrays)
    fold = 2.0 ** np.abs(means)

    alphas = (0.05, 0.01, 0.005, 0.001)
    cells = []
    violations = 0
    for fc in (1.5, 2.0, 4.0):
        for alpha in alphas:
            pass_fc = fold > fc
            t_n = int(np.sum((p_t < alpha) & pass_fc))
            z_n = int(np.sum((p_z < alpha) & pass_fc))
            cells.append(f"FC>{fc:g}/a={alpha:g}: t={t_n} z={z_n}")
            violations += z_n < t_n
    check("8a", violations == 0,
          f"z >= t in all 12 cells ({violations} violations); " + "; ".join(cells[:4]) + " ...")

    theos, emps = zip(*power_increase(means, sigma_hat, n_arrays, alphas,
                                      p_t, p_z))
    mean_theo = float(np.mean(theos))
    mean_emp = float(np.mean(emps))
    ratio = mean_theo / mean_emp
    check("8b", 0.5 <= ratio <= 2.0,
          f"mean theoretical gain {100 * mean_theo:.2f}% vs empirical "
          f"{100 * mean_emp:.2f}%: ratio {ratio:.2f} (need within factor 2)")


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical outputs for every command."""
    from genevar.io import write_table

    sim_args = ["simulate", "--preset", "table2", "--rho", "0.4", "--reps", "2",
                "--n-genes", "300", "--seed", "42", "--format", "csv"]
    out_a, out_b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert main(sim_args + ["--out", str(out_a)]) == 0
    assert main(sim_args + ["--out", str(out_b)]) == 0
    sim_files = ["report.csv", "params.csv", "curves.csv", "ise.csv"]
    sim_same = all((out_a / f).read_bytes() == (out_b / f).read_bytes()
                   for f in sim_files)

    d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=1, seed=77)
    data_path = tmp_path / "arrays.csv"
    write_table(generate_set(d, 0), data_path)
    est_a, est_b = tmp_path / "est_a", tmp_path / "est_b"
    for out in (est_a, est_b):
        assert main(["estimate", "--input", str(data_path), "--out", str(out),
                     "--format", "csv"]) == 0
    est_files = ["curve.csv", "correlation.csv"]
    est_same = all((est_a / f).read_bytes() == (est_b / f).read_bytes()
                   for f in est_files)
    check("9", sim_same and est_same,
          f"simulate outputs identical: {sim_same}; "
          f"estimate outputs identical: {est_same}")
