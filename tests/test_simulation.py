import os
import threading

import numpy as np
import pytest
from scipy import integrate

from genevar import _forking, simulation
from genevar.model import GenevarError, InvalidRho, TooFewReplicates
from genevar.simulation import (
    GRID,
    SimDesign,
    generate_set,
    intensity_density,
    poly_component_quantile,
    run_experiment,
    sample_effects,
    sample_intensities,
    sample_noise,
    scale_moments,
    smooth_effect,
    variance_curvature,
    variance_function,
)


class TestDesignDensity:
    def test_density_normalized(self):
        total, _ = integrate.quad(lambda t: float(intensity_density(t)), 6, 16)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_density_positive_on_support(self):
        grid = np.linspace(6, 16, 101)
        assert np.all(intensity_density(grid) > 0)
        assert intensity_density(5.9) == 0.0

    def test_quantile_examples(self):
        assert poly_component_quantile(0.0001) == pytest.approx(7.0)
        assert poly_component_quantile(1.0) == pytest.approx(16.0)

    def test_sample_mean_matches_quadrature(self, rng):
        x = sample_intensities(1_000_000, rng)
        mean, _ = integrate.quad(lambda t: t * float(intensity_density(t)), 6, 16)
        se = x.std() / 1000.0
        assert x.mean() == pytest.approx(mean, abs=3 * se)
        assert x.min() >= 6.0 and x.max() <= 16.0


class TestVarianceFunction:
    def test_values(self):
        assert variance_function(12.0) == pytest.approx(0.15)
        assert variance_function(16.0) == pytest.approx(0.15)
        assert variance_function(6.0) == pytest.approx(0.69)

    def test_curvature_indicator(self):
        assert variance_curvature(8.0) == pytest.approx(0.03)
        assert variance_curvature(13.0) == 0.0

    def test_moment_truths(self):
        s1, s2 = scale_moments()
        assert s1 == pytest.approx(0.4217, abs=1e-3)
        assert s2 == pytest.approx(0.1857, abs=1e-3)

    @pytest.mark.parametrize("variance_fn", [
        variance_function,
        lambda x: np.full(np.shape(x), 0.49),
    ], ids=["design", "constant"])
    def test_moments_match_quadrature_with_break_point(self, variance_fn):
        def quad(g):
            return integrate.quad(lambda t: g(float(variance_fn(t)))
                                  * float(intensity_density(t)),
                                  6, 16, points=[12.0], limit=400)[0]

        s1, s2 = scale_moments(variance_fn)
        assert s1 == pytest.approx(quad(np.sqrt), rel=1e-14)
        assert s2 == pytest.approx(quad(lambda v: v), rel=1e-14)


class TestEffects:
    def test_no_active_genes(self, rng):
        assert np.array_equal(sample_effects(0, 50, rng), np.zeros(50))

    def test_active_prefix_only(self, rng):
        effects = sample_effects(10, 50, rng)
        assert np.all(effects[10:] == 0)
        assert np.all(effects[:10] != 0)

    def test_too_many_active_rejected(self, rng):
        with pytest.raises(GenevarError):
            sample_effects(51, 50, rng)

    def test_smooth_effect_values(self):
        assert smooth_effect(13.0) == pytest.approx(np.exp(-1.0))
        assert smooth_effect(12.0) == 0.0
        assert smooth_effect(14.0) == 0.0
        assert smooth_effect(10.0) == 0.0


class TestNoise:
    def test_uncorrelated(self, rng):
        e = sample_noise(100_000, 3, 0.0, rng)
        c = np.corrcoef(e.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 3.0 / np.sqrt(100_000))

    def test_strong_correlation(self, rng):
        e = sample_noise(100_000, 3, 0.8, rng)
        c = np.corrcoef(e.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off - 0.8) < 0.01)
        assert np.all(np.abs(e.var(axis=0) - 1.0) < 0.02)

    def test_invalid_rho_rejected(self, rng):
        with pytest.raises(InvalidRho):
            sample_noise(10, 3, -0.6, rng)
        with pytest.raises(InvalidRho):
            sample_noise(10, 3, 1.0, rng)

    def test_single_replicate_rejected(self, rng):
        with pytest.raises(TooFewReplicates):
            sample_noise(5, 1, 0.0, rng)

    def test_negative_rho_within_bound(self, rng):
        e = sample_noise(100_000, 3, -0.45, rng)
        c = np.corrcoef(e.T)
        assert np.all(np.abs(c[0, 1] + 0.45) < 0.02)


class TestGenerateSet:
    def test_shapes_and_sharing(self):
        d = SimDesign(n_genes=100, n_active=20, n_runs=1, seed=1)
        ms = generate_set(d, 0)
        assert ms.n_arrays == 4 and ms.n_genes == 100 and ms.n_replicates == 3
        assert ms.x.shape == ms.y.shape == (4, 100, 3)
        assert ms.gene_ids == tuple(f"g{k + 1}" for k in range(100))

    def test_gene_ids_follow_n_genes(self):
        # the id tuple is built once per gene count, not once per run
        for n, run in ((100, 0), (50, 0), (100, 1), (100, 2)):
            ms = generate_set(SimDesign(n_genes=n, n_active=10, n_runs=3), run)
            assert ms.gene_ids == tuple(f"g{k + 1}" for k in range(n))

    def test_substream_independence(self):
        # array j's data must not depend on whether other arrays were drawn
        d1 = SimDesign(n_genes=50, n_active=10, n_arrays=1, n_runs=1, seed=9)
        d4 = SimDesign(n_genes=50, n_active=10, n_arrays=4, n_runs=1, seed=9)
        a1 = generate_set(d1, 0).arrays[0]
        a4 = generate_set(d4, 0).arrays[0]
        assert np.array_equal(a1.x, a4.x)
        assert np.array_equal(a1.y, a4.y)

    def test_effects_shared_across_arrays(self):
        d = SimDesign(n_genes=200, n_active=200, rho=0.0, n_runs=1, seed=2,
                      variance_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        ms = generate_set(d, 0)
        # zero noise: y is exactly the shared effect vector on every array
        assert np.array_equal(ms.arrays[0].y, ms.arrays[1].y)


class TestRunExperiment:
    def test_deterministic_reports(self):
        d = SimDesign(n_genes=250, n_active=40, n_runs=3, seed=42)
        a = run_experiment(d, estimators=("replicate_average", "corrected", "oracle"))
        b = run_experiment(d, estimators=("replicate_average", "corrected", "oracle"))
        for name in a.estimators:
            assert a.metrics[name].bias2 == b.metrics[name].bias2
            assert a.metrics[name].var == b.metrics[name].var
            assert np.array_equal(a.metrics[name].ise, b.metrics[name].ise)
            assert np.array_equal(a.metrics[name].median_curve,
                                  b.metrics[name].median_curve)

    def test_mise_decomposition_identity(self):
        d = SimDesign(n_genes=300, n_active=40, n_runs=5, seed=3)
        rep = run_experiment(d, estimators=("replicate_average",))
        m = rep.metrics["replicate_average"]
        assert m.mise == pytest.approx(m.bias2 + m.var, abs=1e-12)

    def test_zero_noise_degenerate_run(self):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        d = SimDesign(n_genes=300, n_active=40, n_runs=2, seed=5, variance_fn=zero)
        rep = run_experiment(d, estimators=("replicate_average",))
        for name in rep.estimators:
            m = rep.metrics[name]
            assert m.bias2 == pytest.approx(0.0, abs=1e-20)
            assert m.var == pytest.approx(0.0, abs=1e-20)
            assert m.mise == pytest.approx(0.0, abs=1e-20)

    def test_uncorrected_bias_sign_pattern(self):
        # negative correlation inflates the uncorrected curve, positive
        # correlation deflates it
        report = {}
        for rho in (-0.4, 0.6):
            d = SimDesign(rho=rho, n_runs=10, seed=19)
            rep = run_experiment(d, estimators=("replicate_average",))
            m = rep.metrics["replicate_average"]
            signed = ((m.mean_curve - rep.truth) @ rep.weights) / rep.weights.sum()
            report[rho] = signed
        assert report[-0.4] > 0
        assert report[0.6] < 0

    def test_oracle_and_corrected_agree(self):
        # plugging the estimated (rho, s1) into the root tracks the oracle
        # that uses the true values: mean curves agree within twice the
        # Monte Carlo standard error of either, across the correlation range
        from genevar.simulation import _run_once, scale_moments

        t_runs = 16
        for rho in (-0.4, 0.2, 0.8):
            d = SimDesign(rho=rho, n_runs=t_runs, seed=37)
            moments = scale_moments(d.variance_fn)
            corrected = np.empty((t_runs, GRID.size))
            oracle = np.empty((t_runs, GRID.size))
            for t in range(t_runs):
                out, _ = _run_once(d, t, ("corrected", "oracle"), moments)
                corrected[t] = out["corrected"]
                oracle[t] = out["oracle"]
            se = np.maximum(corrected.std(axis=0), oracle.std(axis=0)) / np.sqrt(t_runs)
            gap = np.abs(corrected.mean(axis=0) - oracle.mean(axis=0))
            interior = (GRID >= 7) & (GRID <= 15)
            assert np.all(gap[interior] <= 2 * se[interior] + 1e-4)

    def test_parameter_stats_present_with_corrected(self):
        d = SimDesign(n_genes=300, n_active=40, n_runs=2, seed=21)
        rep = run_experiment(d, estimators=("corrected",))
        assert set(rep.parameter_stats) == {"rho", "sigma1", "sigma2"}
        p = rep.parameter_stats["rho"]
        assert p.mse == pytest.approx(p.bias2 + p.var, abs=1e-15)

    def test_paired_oracle_is_mean_paired_root(self):
        # at I=2 the oracle corrects each array's paired-difference curve
        # with the paired root and the true moments
        from genevar.estimators import correct, paired_difference_curve
        from genevar.model import CorrelationEstimate

        d = SimDesign(n_genes=300, n_replicates=2, n_arrays=3, rho=0.4,
                      n_runs=1, seed=43)
        rep = run_experiment(d, estimators=("oracle",))
        s1, s2 = scale_moments()
        truth = CorrelationEstimate(rho=0.4, sigma1=s1, sigma2=s2,
                                    iterations=0, converged=True, n_reps=2)
        want = np.mean([correct(
            paired_difference_curve(a, d.config()), truth).values
            for a in generate_set(d, 0).arrays], axis=0)
        assert np.array_equal(rep.metrics["oracle"].mean_curve, want,
                              equal_nan=True)

    @staticmethod
    def report_on_cpus(monkeypatch, forked, cpus, design, estimators):
        """run_experiment with the affinity set read as cpus; also the number
        of processes that ran the runs, [1] when none was forked."""
        before = len(forked)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                          raising=False)
            report = run_experiment(design, estimators=estimators)
        return report, [len(forked) - before or 1]

    @staticmethod
    def assert_same_report(a, b):
        for name in a.estimators:
            ma, mb = a.metrics[name], b.metrics[name]
            for field in ("bias2", "var", "mise", "median_run"):
                assert getattr(ma, field) == getattr(mb, field)
            for field in ("ise", "median_curve", "mean_curve"):
                assert np.array_equal(getattr(ma, field), getattr(mb, field),
                                      equal_nan=True)
        assert a.parameter_stats == b.parameter_stats

    def test_report_independent_of_worker_count(self, monkeypatch, forked):
        # 5 runs on 2 workers split unevenly; the report is bit-identical
        table2 = ("replicate_average", "corrected", "oracle")
        d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=5, seed=29)
        one, sizes_one = self.report_on_cpus(monkeypatch, forked, {0}, d,
                                             table2)
        two, sizes_two = self.report_on_cpus(monkeypatch, forked, {0, 1}, d,
                                             table2)
        assert (sizes_one, sizes_two) == ([1], [2])
        assert one.parameter_stats is not None
        self.assert_same_report(one, two)

    def test_single_run_uses_one_worker(self, monkeypatch, forked):
        d = SimDesign(n_genes=300, n_active=40, n_runs=1, seed=31)
        one, _ = self.report_on_cpus(monkeypatch, forked, {0}, d,
                                     ("corrected",))
        two, sizes = self.report_on_cpus(monkeypatch, forked, {0, 1}, d,
                                         ("corrected",))
        assert sizes == [1]
        self.assert_same_report(one, two)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_report_independent_of_patched_workers(self, monkeypatch, forked,
                                                   workers):
        # 5 runs cut into 2 or 3 shares are uneven shares; bit-identical
        table2 = ("replicate_average", "corrected", "oracle")
        d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=5, seed=29)
        reports = []
        for n in (1, workers):
            before = len(forked)
            with monkeypatch.context() as patch:
                patch.setattr(_forking, "workers", lambda: n)
                reports.append(run_experiment(d, estimators=table2))
            assert len(forked) - before == (0 if n == 1 else n)
        self.assert_same_report(*reports)

    def test_share_with_no_result_runs_in_process(self, monkeypatch, forked):
        # 5 runs in shares [0], [1, 2], [3, 4]; the second child sends nothing
        table2 = ("replicate_average", "corrected", "oracle")
        d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=5, seed=29)
        with monkeypatch.context() as patch:
            patch.setattr(_forking, "workers", lambda: 1)
            one = run_experiment(d, estimators=table2)
        parent, run_once, here = os.getpid(), simulation._run_once, []

        def losing(design, run, estimators, truth_moments):
            if os.getpid() == parent:
                here.append(run)
            elif run == 2:
                os._exit(0)
            return run_once(design, run, estimators, truth_moments)

        monkeypatch.setattr(_forking, "workers", lambda: 3)
        monkeypatch.setattr(simulation, "_run_once", losing)
        self.assert_same_report(one, run_experiment(d, estimators=table2))
        assert here == [1, 2]
        assert len(forked) == 3

    def test_no_affinity_call_runs_in_process(self, monkeypatch, forked):
        # as on macOS, where os.sched_getaffinity does not exist
        d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=3, seed=41)
        want, _ = self.report_on_cpus(monkeypatch, forked, {0, 1}, d,
                                      ("corrected",))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        before = len(forked)
        self.assert_same_report(want, run_experiment(d, estimators=("corrected",)))
        assert len(forked) == before

    def test_other_threads_keep_the_runs_in_process(self, monkeypatch, forked):
        d = SimDesign(n_genes=300, n_active=40, rho=0.3, n_runs=3, seed=41)
        want, _ = self.report_on_cpus(monkeypatch, forked, {0, 1}, d,
                                      ("corrected",))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        before = len(forked)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            report = run_experiment(d, estimators=("corrected",))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forked) == before
        self.assert_same_report(want, report)

    def test_error_inside_a_run_reaches_the_caller(self, monkeypatch):
        d = SimDesign(n_genes=300, n_active=40, n_replicates=2, n_runs=3, seed=1)
        monkeypatch.setattr(_forking, "workers", lambda: 2)
        with pytest.raises(GenevarError, match="replicate_average needs I >= 3"):
            run_experiment(d, estimators=("replicate_average",))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unknown_estimator_rejected(self):
        d = SimDesign(n_genes=100, n_active=20, n_runs=1, seed=1)
        with pytest.raises(GenevarError):
            run_experiment(d, estimators=("bogus",))

    def test_format_table_has_all_estimators(self):
        d = SimDesign(n_genes=200, n_active=30, n_runs=2, seed=23)
        rep = run_experiment(d, estimators=("replicate_average", "corrected"))
        text = rep.format_table()
        assert "replicate_average" in text and "corrected" in text
        assert "rho" in text
