import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genevar.cli import EXIT_INGESTION, EXIT_NONCONVERGENCE, EXIT_VALIDATION, main
from genevar.io import write_table
from genevar.model import FLAG_DEGENERATE, MultiArraySet, ReplicatedArray
from genevar.simulation import SimDesign, generate_set, sample_intensities, variance_function


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def replicated_csv(tmp_path_factory):
    d = SimDesign(n_genes=300, n_active=40, n_arrays=4, rho=0.3, n_runs=1, seed=101)
    path = tmp_path_factory.mktemp("data") / "arrays.csv"
    write_table(generate_set(d, 0), path)
    return path


@pytest.fixture(scope="module")
def selection_csv(tmp_path_factory):
    # five arrays, one spot per gene, planted effects on the first genes
    rng = np.random.default_rng(77)
    n, j = 400, 5
    mu = np.zeros(n)
    mu[:80] = rng.laplace(0, 1, 80)
    ids = tuple(f"g{k}" for k in range(n))
    arrays = []
    for _ in range(j):
        x = sample_intensities((n, 1), rng)
        y = mu[:, None] + np.sqrt(variance_function(x)) * rng.standard_normal((n, 1))
        arrays.append(ReplicatedArray(x=x, y=y, gene_ids=ids))
    path = tmp_path_factory.mktemp("data") / "selection.csv"
    write_table(MultiArraySet(arrays=tuple(arrays)), path)
    return path


class TestEstimate:
    def test_end_to_end(self, replicated_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(replicated_csv),
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        rows = read_rows(out / "curve.csv")
        assert {"x", "variance", "stderr", "flags"} <= set(rows[0])
        assert all(float(r["variance"]) >= 0 for r in rows if r["variance"] != "nan")
        corr = read_rows(out / "correlation.csv")[0]
        assert corr["converged"] == "True"
        assert corr["mode"] == "pooled"
        assert -0.5 < float(corr["rho"]) < 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert list(manifest["inputs"].values())[0]

    def test_reruns_are_byte_identical(self, replicated_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["estimate", "--input", str(replicated_csv),
                         "--out", str(out), "--format", "csv"]) == 0
            outs.append(out)
        for fname in ("curve.csv", "correlation.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_two_replicate_route(self, tmp_path):
        d = SimDesign(n_genes=500, n_active=0, n_replicates=2, n_arrays=3,
                      rho=0.2, n_runs=1, seed=55)
        path = tmp_path / "paired.csv"
        write_table(generate_set(d, 0), path)
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(path), "--out", str(out),
                     "--format", "csv"]) == 0
        corr = read_rows(out / "correlation.csv")[0]
        assert corr["mode"] == "paired"

    def test_single_array_needs_rho(self, tmp_path):
        d = SimDesign(n_genes=200, n_active=0, n_arrays=1, n_runs=1, seed=60)
        path = tmp_path / "single.csv"
        write_table(generate_set(d, 0), path)
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(path), "--out", str(out),
                     "--format", "csv"]) == EXIT_VALIDATION
        assert main(["estimate", "--input", str(path), "--out", str(out),
                     "--rho", "0.0", "--format", "csv"]) == 0

    def test_nonconvergence_exit_code(self, replicated_csv, tmp_path, monkeypatch):
        import genevar.correlation

        monkeypatch.setattr(genevar.correlation, "MAX_ITERATIONS", 1)
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(replicated_csv),
                     "--out", str(out), "--format", "csv"])
        assert code == EXIT_NONCONVERGENCE
        assert (out / "curve.csv").exists()  # outputs still written

    @pytest.mark.parametrize("flags, message", [
        (["--bandwidth", "inf"], "bandwidth must be finite"),
        (["--bandwidth", "1e308"], "bandwidth must be finite"),
        (["--grid", "nan:9:5"], "grid contains non-finite values"),
    ])
    def test_invalid_config_exit_code(self, replicated_csv, tmp_path, capsys,
                                      flags, message):
        assert main(["estimate", "--input", str(replicated_csv),
                     "--out", str(tmp_path / "out"), "--format", "csv"]
                    + flags) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_unequal_grid_exit_code(self, replicated_csv, tmp_path, capsys,
                                    monkeypatch):
        # every grid the CLI builds is equispaced; a producer that is not
        # must stop with the validation exit code
        import genevar.cli

        monkeypatch.setattr(genevar.cli, "default_grid",
                            lambda x, n_points=101: np.geomspace(7.0, 15.0, n_points))
        assert main(["estimate", "--input", str(replicated_csv),
                     "--out", str(tmp_path / "out"), "--format", "csv"]
                    ) == EXIT_VALIDATION
        assert "grid must be equispaced" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth, degenerate", [("0.05", 21), ("1000", 0)])
    def test_extreme_bandwidths(self, replicated_csv, tmp_path, bandwidth,
                                degenerate):
        # the degenerate grid points the exact window pass gives on this input
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(replicated_csv), "--out",
                     str(out), "--format", "csv", "--bandwidth", bandwidth]) == 0
        flags = [int(r["flags"]) for r in read_rows(out / "curve.csv")]
        assert sum(f & FLAG_DEGENERATE for f in flags) == degenerate

    def test_ingestion_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert main(["estimate", "--input", str(bad), "--out",
                     str(tmp_path / "o"), "--format", "csv"]) == EXIT_INGESTION


class TestValidate:
    def test_end_to_end(self, replicated_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["validate", "--input", str(replicated_csv),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "validation.csv")
        assert len(rows) == 4
        for row in rows:
            for col in ("p1", "p2", "p3", "p4"):
                assert 0.0 <= float(row[col]) <= 1.0
        assert "array1" in capsys.readouterr().out

    def test_biased_array_flagged(self, tmp_path):
        # inflate one array's residuals: its p-values must drop well below
        # the clean arrays'
        d = SimDesign(n_genes=300, n_active=40, n_arrays=4, rho=0.0,
                      n_runs=1, seed=31)
        ms = generate_set(d, 0)
        bad = ms.arrays[2]
        mean = bad.y.mean(axis=1, keepdims=True)
        inflated = ReplicatedArray(x=bad.x, y=mean + 3.0 * (bad.y - mean),
                                   gene_ids=bad.gene_ids)
        arrays = list(ms.arrays)
        arrays[2] = inflated
        path = tmp_path / "biased.csv"
        write_table(MultiArraySet(arrays=tuple(arrays)), path)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--out", str(out),
                     "--rho", "0.0", "--format", "csv"]) == 0
        rows = {r["array_id"]: r for r in read_rows(out / "validation.csv")}
        assert float(rows["array3"]["p1"]) < 0.01
        assert float(rows["array1"]["p1"]) > float(rows["array3"]["p1"])

    def test_single_replicate_rejected(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,0.1\n"
            "b,1,1,8.0,0.2\n")
        assert main(["validate", "--input", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


class TestSelect:
    def test_end_to_end(self, selection_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["select", "--input", str(selection_csv),
                     "--out", str(out), "--format", "csv"]) == 0
        calls = read_rows(out / "gene_calls.csv")
        assert len(calls) == 400
        counts = read_rows(out / "counts.csv")
        assert len(counts) == 12  # 3 fold changes x 4 alphas
        for row in counts:
            assert int(row["z_selected"]) >= 0
        power = read_rows(out / "power.csv")
        assert [float(r["alpha"]) for r in power] == [0.05, 0.01, 0.005, 0.001]

    def test_swapped_arrays_preserve_magnitudes(self, selection_csv, tmp_path):
        out_plain = tmp_path / "plain"
        out_swap = tmp_path / "swap"
        assert main(["select", "--input", str(selection_csv),
                     "--out", str(out_plain), "--format", "csv"]) == 0
        assert main(["select", "--input", str(selection_csv),
                     "--out", str(out_swap), "--format", "csv",
                     "--swap-arrays", "1,2,3,4,5"]) == 0
        a = read_rows(out_plain / "gene_calls.csv")
        b = read_rows(out_swap / "gene_calls.csv")
        for ra, rb in zip(a, b):
            assert float(ra["mean"]) == pytest.approx(-float(rb["mean"]), abs=1e-12)
            assert float(ra["p_z"]) == pytest.approx(float(rb["p_z"]), abs=1e-12)

    def test_average_pairs(self, selection_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["select", "--input", str(selection_csv),
                     "--out", str(out), "--format", "csv",
                     "--average-pairs", "1:2,3:4"]) == 0
        # two averaged pseudo-arrays -> n = 2 observations per gene
        calls = read_rows(out / "gene_calls.csv")
        assert len(calls) == 400

    @pytest.mark.parametrize("flags, index", [
        (["--average-pairs", "0:1,2:3"], 0),  # 0 must not wrap to the last array
        (["--swap-arrays", "9"], 9),
        (["--average-pairs", "1:9"], 9),
    ])
    def test_array_index_out_of_range(self, selection_csv, tmp_path, capsys,
                                      flags, index):
        assert main(["select", "--input", str(selection_csv),
                     "--out", str(tmp_path / "out"), "--format", "csv"]
                    + flags) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"array index {index} " in err and "J=5" in err

    def test_malformed_pair_usage_error(self, selection_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(selection_csv),
                  "--out", str(tmp_path / "out"), "--average-pairs", "1-2"])
        assert exc.value.code == 2


class TestSimulate:
    def test_preset_runs_and_reproduces(self, tmp_path):
        args = ["simulate", "--preset", "table2", "--rho", "0.2",
                "--reps", "2", "--n-genes", "250", "--seed", "42",
                "--format", "csv"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for fname in ("report.csv", "params.csv", "curves.csv", "ise.csv"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_table1_smooth_mode(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["simulate", "--preset", "table1", "--alpha-mode", "smooth",
                     "--reps", "2", "--n-genes", "250", "--seed", "7",
                     "--out", str(out), "--format", "csv"]) == 0
        rows = {r["estimator"] for r in read_rows(out / "report.csv")}
        assert rows == {"two_stage", "replicate_average"}

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "0"], "(--reps) must be at least 1"),
        (["--replicates", "1"], "(--replicates) must be at least 2"),
        (["--n-genes", "249"], "(--n-genes) is below the design's 250 active genes"),
    ])
    def test_argument_edges_exit_code(self, tmp_path, capsys, flags, message):
        args = ["simulate", "--preset", "table1", "--reps", "1",
                "--n-genes", "250", "--out", str(tmp_path / "out"),
                "--format", "csv"]
        assert main(args + flags) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_unknown_preset_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "table9", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestImportCost:
    """scipy.stats alone takes about a second to import, so scipy's
    statistics load on first use, never at start-up, and no command needs
    scipy's quadrature."""

    LAZY = {"scipy.stats", "scipy.special", "scipy.integrate"}

    @staticmethod
    def scipy_modules_after(code):
        import genevar

        src = str(Path(genevar.__file__).resolve().parents[1])
        report = ("import sys\nprint(' '.join(m for m in sys.modules "
                  "if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        return set(done.stdout.splitlines()[-1].split())

    def test_cli_import_loads_none(self):
        assert not self.scipy_modules_after("import genevar.cli") & self.LAZY

    def test_estimate_loads_none(self, replicated_csv, tmp_path):
        argv = ["estimate", "--input", str(replicated_csv),
                "--out", str(tmp_path / "out")]
        loaded = self.scipy_modules_after(
            f"from genevar.cli import main\nassert main({argv!r}) == 0")
        assert not loaded & self.LAZY

    def test_simulate_loads_no_quadrature(self, tmp_path):
        # the truth moments use numpy's Gauss-Legendre nodes, not scipy
        argv = ["simulate", "--preset", "table2", "--rho", "0.3",
                "--n-genes", "300", "--reps", "1", "--format", "csv",
                "--out", str(tmp_path / "out")]
        loaded = self.scipy_modules_after(
            f"from genevar.cli import main\nassert main({argv!r}) == 0")
        assert "scipy.integrate" not in loaded
