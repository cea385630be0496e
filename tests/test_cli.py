import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genevar.cli import (
    EXIT_INGESTION,
    EXIT_NONCONVERGENCE,
    EXIT_VALIDATION,
    _super_block,
    main,
)
from genevar import _forking, io as genevar_io
from genevar.io import read_table, write_table
from genevar.model import FLAG_DEGENERATE, MultiArraySet
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
    x, y = np.empty((j, n, 1)), np.empty((j, n, 1))
    for a in range(j):
        x[a] = sample_intensities((n, 1), rng)
        y[a] = mu[:, None] + np.sqrt(variance_function(x[a])) * rng.standard_normal((n, 1))
    path = tmp_path_factory.mktemp("data") / "selection.csv"
    write_table(MultiArraySet(x=x, y=y, gene_ids=tuple(f"g{k}" for k in range(n))),
                path)
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

    def test_manifest_digest_of_a_multi_block_input(self, tmp_path):
        # the digest is taken in 1 MB blocks; it must be the whole file's
        d = SimDesign(n_genes=3000, n_arrays=4, rho=0.3, n_runs=1, seed=7)
        path = tmp_path / "big.csv"
        write_table(generate_set(d, 0), path)
        assert path.stat().st_size > 1 << 20
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_table_format_prints_one_summary_line(self, replicated_csv,
                                                  tmp_path, capsys):
        # the default format adds a line on stdout and changes no file
        table, plain = tmp_path / "table", tmp_path / "csv"
        assert main(["estimate", "--input", str(replicated_csv),
                     "--out", str(table)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("rho ") and "converged True" in lines[0]
        assert main(["estimate", "--input", str(replicated_csv),
                     "--out", str(plain), "--format", "csv"]) == 0
        assert capsys.readouterr().out == ""
        for fname in ("curve.csv", "correlation.csv"):
            assert (table / fname).read_bytes() == (plain / fname).read_bytes()

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
        assert not (out / "manifest.json").exists()
        assert main(["estimate", "--input", str(path), "--out", str(out),
                     "--rho", "0.0", "--format", "csv"]) == 0
        assert (out / "manifest.json").is_file()

    def test_nonconvergence_exit_code(self, replicated_csv, tmp_path, monkeypatch):
        import genevar.correlation

        monkeypatch.setattr(genevar.correlation, "MAX_ITERATIONS", 1)
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(replicated_csv),
                     "--out", str(out), "--format", "csv"])
        assert code == EXIT_NONCONVERGENCE
        assert (out / "curve.csv").exists()  # outputs still written
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"

    @pytest.mark.parametrize("command, outputs", [
        ("validate", ["validation.csv"]),
        ("select", ["gene_calls.csv", "counts.csv", "power.csv"]),
    ])
    def test_nonconvergence_exit_code_of_every_fit(
            self, replicated_csv, tmp_path, monkeypatch, capsys, command,
            outputs):
        import genevar.correlation

        monkeypatch.setattr(genevar.correlation, "MAX_ITERATIONS", 1)
        out = tmp_path / "out"
        code = main([command, "--input", str(replicated_csv),
                     "--out", str(out), "--format", "csv"])
        assert code == EXIT_NONCONVERGENCE
        assert "did not converge (iterations=1)" in capsys.readouterr().err
        for name in outputs:  # outputs still written
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command

    @pytest.mark.parametrize("flags, message", [
        (["--bandwidth", "inf"], "bandwidth must be finite"),
        (["--bandwidth", "1e308"], "bandwidth must be finite"),
        (["--grid", "nan:9:5"], "grid contains non-finite values"),
    ])
    def test_invalid_config_exit_code(self, replicated_csv, tmp_path, capsys,
                                      flags, message):
        # the flag forms are checked as the flags parse: a usage error
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(replicated_csv),
                  "--out", str(tmp_path / "out"), "--format", "csv"] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    @pytest.mark.parametrize("flags, message", [
        (["--bandwidth", "0"], "bandwidth must be positive"),
        (["--bandwidth", "-1"], "bandwidth must be positive"),
        (["--bandwidth", "nan"], "bandwidth must be positive"),
        (["--bandwidth", "abc"], "expected a number"),
        (["--grid", "abc"], "expected 'n' or 'lo:hi:n'"),
        (["--grid", "6:16"], "expected 'n' or 'lo:hi:n'"),
        (["--grid", "6:16:1.5"], "expected 'n' or 'lo:hi:n'"),
        (["--grid", "0"], "grid needs at least one point"),
        (["--grid", "6:16:0"], "grid needs at least one point"),
        (["--grid", "6:inf:5"], "grid contains non-finite values"),
        (["--grid", "16:6:101"], "grid must be strictly increasing"),
        (["--grid", "6:6:2"], "grid must be strictly increasing"),
    ])
    def test_bad_flag_is_usage_error_before_the_input(
            self, tmp_path, capsys, command, flags, message):
        # the input does not exist: the flag is rejected before it is opened
        argv = ([command, "--preset", "table1"] if command == "simulate"
                else [command, "--input", str(tmp_path / "missing.csv")])
        if command == "simulate" and flags[0] == "--grid":
            message = "unrecognized arguments"  # simulate offers no --grid
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["1", "5", "6:16:1", "16:6:1", "6:16:11"])
    def test_grid_forms_accepted(self, replicated_csv, tmp_path, grid):
        assert main(["estimate", "--input", str(replicated_csv),
                     "--grid", grid, "--out", str(tmp_path / "out"),
                     "--format", "csv"]) == 0

    def test_unequal_grid_exit_code(self, replicated_csv, tmp_path, capsys,
                                    monkeypatch):
        # every grid the CLI builds is equispaced; a producer that is not
        # must stop with the validation exit code
        import genevar.model

        monkeypatch.setattr(genevar.model, "default_grid",
                            lambda x, n_points=101: np.geomspace(7.0, 15.0, n_points))
        assert main(["estimate", "--input", str(replicated_csv),
                     "--out", str(tmp_path / "out"), "--format", "csv"]
                    ) == EXIT_VALIDATION
        assert "grid must be equispaced" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth, degenerate",
                             [("0.05", 21), ("1000", 0), ("10000", 0)])
    def test_extreme_bandwidths(self, replicated_csv, tmp_path, bandwidth,
                                degenerate):
        # the degenerate grid points the exact window pass gives on this
        # input; a window holding every gene is never degenerate, however
        # wide
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(replicated_csv), "--out",
                     str(out), "--format", "csv", "--bandwidth", bandwidth]) == 0
        flags = [int(r["flags"]) for r in read_rows(out / "curve.csv")]
        assert sum(f & FLAG_DEGENERATE for f in flags) == degenerate

    def test_bandwidth_vast_beside_the_intensity_spread_fails(
            self, replicated_csv, tmp_path, capsys):
        # the weighted sd of every window's x is below 1e-6 h, so every
        # grid point is degenerate
        assert main(["estimate", "--input", str(replicated_csv), "--out",
                     str(tmp_path / "out"), "--format", "csv",
                     "--bandwidth", "1e30"]) == EXIT_VALIDATION
        assert "no evaluable points" in capsys.readouterr().err

    def test_single_replicate_rejected(self, tmp_path, capsys):
        # two arrays, so the J=1 correlation check does not answer first
        path = tmp_path / "flat.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,0.1\nb,1,1,8.0,0.2\nc,1,1,9.0,-0.1\n"
            "a,1,2,7.5,0.3\nb,1,2,8.5,0.0\nc,1,2,9.5,0.1\n")
        assert main(["estimate", "--input", str(path), "--out",
                     str(tmp_path / "o"), "--format", "csv"]) == EXIT_VALIDATION
        assert "I=1; within-gene residuals need I >= 2" in capsys.readouterr().err

    def test_ingestion_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert main(["estimate", "--input", str(bad), "--out",
                     str(tmp_path / "o"), "--format", "csv"]) == EXIT_INGESTION


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["estimate", "validate", "select"])
    @pytest.mark.parametrize("kind, reason", [("missing", "No such file"),
                                              ("directory", "Is a directory")])
    def test_ingestion_exit_code(self, tmp_path, capsys, command, kind, reason):
        path = tmp_path / "arrays.csv"
        if kind == "directory":
            path.mkdir()
        assert main([command, "--input", str(path), "--out",
                     str(tmp_path / "out"), "--format", "csv"]) == EXIT_INGESTION
        err = capsys.readouterr().err
        assert str(path) in err and reason in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["estimate", "validate", "select"])
    def test_undecodable_input(self, tmp_path, capsys, command):
        path = tmp_path / "arrays.csv"
        path.write_bytes(b"gene_id,replicate,array,x,y\ng\xff1,1,1,7.0,0.1\n")
        assert main([command, "--input", str(path), "--out",
                     str(tmp_path / "out"), "--format", "csv"]) == EXIT_INGESTION
        assert f"{path}:2: not utf-8" in capsys.readouterr().err


class TestEncoding:
    """Inputs are read, and outputs written, as UTF-8 whatever the locale."""

    def test_select_under_a_non_utf8_locale(self, selection_csv, tmp_path):
        import genevar

        path = tmp_path / "arrays.csv"
        path.write_bytes(selection_csv.read_bytes().replace(
            b"\ng0,", "\ngène1,".encode()))
        src = str(Path(genevar.__file__).resolve().parents[1])
        calls = {}
        for lc_all in ("C", "C.UTF-8"):
            out = tmp_path / lc_all
            env = dict(os.environ, PYTHONPATH=src, LC_ALL=lc_all,
                       PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
            done = subprocess.run(
                [sys.executable, "-m", "genevar.cli", "select", "--input",
                 str(path), "--out", str(out), "--format", "csv"],
                env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            calls[lc_all] = (out / "gene_calls.csv").read_bytes()
        assert "\ngène1,".encode() in calls["C.UTF-8"]
        assert calls["C"] == calls["C.UTF-8"]

    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["columnar", "row-pass"])
    def test_byte_order_mark_before_the_header(self, replicated_csv,
                                               tmp_path, quoted):
        # a quoted gene id sends the file to the row pass
        text = replicated_csv.read_bytes()
        if quoted:
            text = text.replace(b"\ng1,", b'\n"g1",')
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / f"arrays{len(mark)}.csv"
            path.write_bytes(mark + text)
            assert (genevar_io._read_columns(path) is None) == quoted
            out = tmp_path / f"out{len(mark)}"
            assert main(["estimate", "--input", str(path), "--out", str(out),
                         "--format", "csv"]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        assert outputs[0] == outputs[1] and len(outputs[0]) > 1


class TestUnmakeableOut:
    """An --out that cannot be made a directory is a usage error, answered
    before numpy loads and so before any work; the directory is made before
    the command runs."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "arrays.csv"],
        ["simulate", "--preset", "table3", "--n-genes", "300", "--reps", "2"],
    ], ids=["estimate", "simulate"])
    @pytest.mark.parametrize("below", [False, True],
                             ids=["a-file", "below-a-file"])
    def test_usage_error(self, tmp_path, argv, below):
        import genevar

        out = tmp_path / "taken"
        out.write_text("")
        if below:
            out = out / "sub"
        argv = [*argv, "--out", str(out)]
        code = ("import sys\nfrom genevar.cli import main\n"
                f"try:\n    main({argv!r})\nexcept SystemExit as exc:\n"
                "    print(exc.code, 'numpy' in sys.modules)\n")
        src = str(Path(genevar.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "2 False\n"
        assert str(out) in done.stderr
        assert "Traceback" not in done.stderr

    def test_failed_run_leaves_a_new_out_empty(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        out = tmp_path / "new" / "out"
        assert main(["estimate", "--input", str(bad), "--out", str(out),
                     "--format", "csv"]) == EXIT_INGESTION
        assert out.is_dir() and not any(out.iterdir())


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
        y = ms.y.copy()
        mean = y[2].mean(axis=1, keepdims=True)
        y[2] = mean + 3.0 * (y[2] - mean)
        path = tmp_path / "biased.csv"
        write_table(MultiArraySet(x=ms.x, y=y, gene_ids=ms.gene_ids), path)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--out", str(out),
                     "--rho", "0.0", "--format", "csv"]) == 0
        rows = {r["array_id"]: r for r in read_rows(out / "validation.csv")}
        assert float(rows["array3"]["p1"]) < 0.01
        assert float(rows["array1"]["p1"]) > float(rows["array3"]["p1"])

    def test_single_replicate_rejected(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,0.1\n"
            "b,1,1,8.0,0.2\n")
        assert main(["validate", "--input", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert ("validation needs genes with at least two replicates per array"
                in capsys.readouterr().err)


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

    def test_outputs_do_not_depend_on_workers(self, replicated_csv, tmp_path,
                                              monkeypatch, forked):
        # 64-row blocks, so that 3 workers write gene_calls.csv in 3 shares
        monkeypatch.setattr(genevar_io, "_WRITE_ROWS", 64)
        outputs = []
        for n in (1, 3):
            monkeypatch.setattr(_forking, "workers", lambda: n)
            out = tmp_path / f"workers{n}"
            assert main(["select", "--input", str(replicated_csv),
                         "--out", str(out), "--format", "csv"]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        # 3 children parse the input's 3 byte ranges and 3 format
        # gene_calls.csv; counts.csv and power.csv are one block each
        assert len(forked) == 6
        assert sorted(outputs[0]) == ["counts.csv", "gene_calls.csv", "power.csv"]
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("flags", [
        ["--alphas", "0"], ["--alphas", "1"], ["--alphas", "1.5"],
        ["--alphas", "-0.1"], ["--alphas", "nan"], ["--alphas", "0.05,1"],
        ["--fold-changes", "nan"], ["--fold-changes", "2,inf"],
    ])
    def test_level_or_threshold_out_of_range_usage_error(
            self, selection_csv, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(selection_csv),
                  "--out", str(tmp_path / "out")] + flags)
        assert exc.value.code == 2
        assert "is not strictly between" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--alphas", ","], ["--alphas", ""], ["--alphas", " , "],
        ["--fold-changes", ","], ["--fold-changes", ""],
    ])
    def test_empty_level_or_threshold_list_usage_error(
            self, selection_csv, tmp_path, capsys, flags):
        # an empty list would select nothing and write header-only tables
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(selection_csv),
                  "--out", str(tmp_path / "out")] + flags)
        assert exc.value.code == 2
        assert "expected at least one value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def gene_calls(path, out, *flags):
    """select's gene ids and (mean, sample_sd) columns for the input path."""
    assert main(["select", "--input", str(path), "--out", str(out),
                 "--format", "csv", *flags]) == 0
    rows = read_rows(out / "gene_calls.csv")
    return ([r["gene_id"] for r in rows],
            np.array([[float(r["mean"]), float(r["sample_sd"])] for r in rows]))


class TestSelectBlocks:
    """select's dye swaps, pair averages and super array against the
    input's (J, N, I) blocks: the super array's row g holds gene g's spots
    on every array."""

    def test_single_spot_input(self, selection_csv, tmp_path):
        # I = 1: the J arrays become the replicates
        ms = read_table(selection_csv)
        assert ms.n_replicates == 1
        ids, got = gene_calls(selection_csv, tmp_path / "out")
        y = ms.y[:, :, 0].T
        assert ids == list(ms.gene_ids)
        np.testing.assert_allclose(got[:, 0], y.mean(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], y.std(axis=1, ddof=1),
                                   rtol=0, atol=1e-12)

    def test_swap_then_average(self, replicated_csv, tmp_path):
        ms = read_table(replicated_csv)
        _, got = gene_calls(replicated_csv, tmp_path / "out",
                            "--swap-arrays", "2", "--average-pairs", "1:2,3:4")
        y = np.hstack([0.5 * (ms.y[0] - ms.y[1]), 0.5 * (ms.y[2] + ms.y[3])])
        np.testing.assert_allclose(got[:, 0], y.mean(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], y.std(axis=1, ddof=1),
                                   rtol=0, atol=1e-12)

    def test_super_block_is_one_read_only_copy(self, replicated_csv):
        ms = read_table(replicated_csv)
        block = _super_block(ms.x)
        assert not np.shares_memory(block, ms.x)
        assert not block.flags.writeable
        np.testing.assert_array_equal(block[0], np.hstack(list(ms.x)))
        kept = MultiArraySet(x=block, y=block, gene_ids=ms.gene_ids)
        assert np.shares_memory(kept.x, block)
        assert np.shares_memory(kept.arrays[0].y, block)

    @pytest.mark.parametrize("command, message", [
        ("estimate", "I=1; within-gene residuals need I >= 2"),
        ("validate", "validation needs genes with at least two replicates per array"),
    ], ids=["estimate", "validate"])
    def test_single_spot_input_rejected(self, selection_csv, tmp_path, capsys,
                                        command, message):
        assert main([command, "--input", str(selection_csv),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_alpha_mode_acts_on_table2(self, tmp_path):
        # --alpha-mode sets the gene effects of every preset, not only table1's
        reports = []
        for mode in ("smooth", "nonsmooth"):
            out = tmp_path / mode
            assert main(["simulate", "--preset", "table2", "--rho", "0.3",
                         "--n-genes", "300", "--reps", "1", "--alpha-mode", mode,
                         "--out", str(out), "--format", "csv"]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "0"], "(--reps) must be at least 1"),
        (["--replicates", "1"], "(--replicates) must be at least 2"),
        (["--n-genes", "249"], "(--n-genes) is below the design's 250 active genes"),
        # raised inside a run, in a worker process
        (["--replicates", "2"], "replicate_average needs I >= 3"),
    ])
    def test_argument_edges_exit_code(self, tmp_path, capsys, flags, message):
        args = ["simulate", "--preset", "table1", "--reps", "1",
                "--n-genes", "250", "--out", str(tmp_path / "out"),
                "--format", "csv"]
        assert main(args + flags) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_grid_is_usage_error(self, tmp_path):
        # simulate evaluates on the design's grid and offers no --grid
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "table1", "--n-genes", "300",
                  "--reps", "1", "--grid", "6:16:11",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_unknown_preset_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "table9", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestFitMemory:
    """The grid's order statistics, the variance components, the fixed
    point's node weights and the density take model.CHUNK_ROWS spots at a
    time, so the fit's largest temporaries are those of one array's
    synthetic responses and its sorted intensities."""

    @staticmethod
    def traced_fit(n_genes):
        """(bytes in one (J, N, I) block, traced heap peak of _fit) on an
        I=3, J=4 set of n_genes genes."""
        import argparse
        import tracemalloc

        from genevar.cli import _fit

        args = argparse.Namespace(grid=None, bandwidth=1.0)
        # a small fit first, so that its imports are not traced
        _fit(args, generate_set(SimDesign(n_genes=300, seed=1), 0), None)
        mset = generate_set(SimDesign(n_genes=n_genes, n_replicates=3,
                                      n_arrays=4, rho=0.4, seed=1), 0)
        tracemalloc.start()
        try:
            _fit(args, mset, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mset.x.nbytes == 8 * n_genes * 3 * 4
        return mset.x.nbytes, peak

    def test_fit_holds_two_full_size_arrays_at_most(self):
        # the margin is for the curves and other grid-sized arrays
        full, peak = self.traced_fit(20000)
        assert peak <= 2 * full + (1 << 18)

    def test_fit_holds_under_a_block_at_100k_genes(self):
        # one array's synthetic responses and sorted intensities are half
        # a block; chunk-sized buffers and grid-sized arrays come on top
        full, peak = self.traced_fit(100000)
        assert peak <= 0.6 * full


class TestImportCost:
    """No command imports scipy: importing its special functions alone cost
    about 0.25 s and 20 MB per process, and genevar.distributions computes
    the p-values and the power in numpy.  Each command imports only the
    genevar modules it runs, and --help or a usage error none of them, nor
    numpy."""

    @staticmethod
    def modules_after(code):
        import genevar

        src = str(Path(genevar.__file__).resolve().parents[1])
        report = "import sys\nprint(' '.join(sys.modules))"
        done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        return set(done.stdout.splitlines()[-1].split())

    def run_loads(self, argv):
        return self.modules_after(
            f"from genevar.cli import main\nassert main({argv!r}) == 0")

    @staticmethod
    def scipy(modules):
        return {m for m in modules if m.split(".")[0] == "scipy"}

    def test_cli_import_loads_none(self):
        assert not self.scipy(self.modules_after("import genevar.cli"))

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["estimate", "--help"], 0),
        (["validate", "--help"], 0),
        (["select", "--help"], 0),
        (["simulate", "--help"], 0),
        (["estimate", "--input", "x"], 2),  # no --out
    ], ids=["help", "estimate", "validate", "select", "simulate",
            "usage-error"])
    def test_help_loads_no_numpy(self, argv, code):
        # argparse answers before any command imports what it runs
        loaded = self.modules_after(
            f"from genevar.cli import main\ntry:\n    main({argv!r})\n"
            f"except SystemExit as exc:\n    assert exc.code == {code}\n"
            f"else:\n    raise AssertionError('main returned')")
        assert "numpy" not in loaded
        assert {m for m in loaded if m.split(".")[0] == "genevar"} == {
            "genevar", "genevar.cli"}

    def test_bad_flag_loads_no_numpy(self, tmp_path):
        # a bad flag form is a usage error before the missing input is
        # opened, which would exit 3
        argv = ["estimate", "--input", str(tmp_path / "missing.csv"),
                "--bandwidth", "0", "--out", str(tmp_path / "out")]
        loaded = self.modules_after(
            f"from genevar.cli import main\ntry:\n    main({argv!r})\n"
            f"except SystemExit as exc:\n    assert exc.code == 2\n"
            f"else:\n    raise AssertionError('main returned')")
        assert "numpy" not in loaded

    def test_package_import_loads_no_module(self):
        loaded = self.modules_after("import genevar")
        assert not {m for m in loaded if m.startswith("genevar.")}
        assert "numpy" not in loaded

    def test_estimate_loads_none(self, replicated_csv, tmp_path):
        loaded = self.run_loads(["estimate", "--input", str(replicated_csv),
                                 "--out", str(tmp_path / "out")])
        assert not self.scipy(loaded)
        assert "genevar.asymptotics" in loaded
        assert not loaded & {"genevar.inference", "genevar.distributions",
                             "statistics", "genevar.simulation"}

    def test_validate_loads_none(self, replicated_csv, tmp_path):
        loaded = self.run_loads(["validate", "--input", str(replicated_csv),
                                 "--out", str(tmp_path / "out")])
        assert not self.scipy(loaded)
        assert "genevar.inference" in loaded
        assert "genevar.simulation" not in loaded

    def test_select_loads_none(self, selection_csv, tmp_path):
        loaded = self.run_loads(["select", "--input", str(selection_csv),
                                 "--out", str(tmp_path / "out")])
        assert not self.scipy(loaded)
        assert "genevar.inference" in loaded
        assert "genevar.simulation" not in loaded

    def test_simulate_loads_no_quadrature(self, tmp_path):
        # the truth moments use numpy's Gauss-Legendre nodes, not scipy; the
        # runs import in forked workers, so one also runs in the probe itself
        argv = ["simulate", "--preset", "table2", "--rho", "0.3",
                "--n-genes", "300", "--reps", "1", "--format", "csv",
                "--out", str(tmp_path / "out")]
        loaded = self.modules_after(
            f"from genevar.cli import PRESETS, main\n"
            f"from genevar.simulation import SimDesign, _run_once, scale_moments\n"
            f"assert main({argv!r}) == 0\n"
            f"_run_once(SimDesign(n_genes=300, rho=0.3, n_runs=1), 0, "
            f"PRESETS['table2'], scale_moments())")
        assert not self.scipy(loaded)

    def test_simulate_loads_no_multiprocessing(self, tmp_path):
        # the runs are forked by genevar._forking, with no process pool
        loaded = self.run_loads(["simulate", "--preset", "table2", "--rho",
                                 "0.3", "--n-genes", "300", "--reps", "2",
                                 "--format", "csv", "--out", str(tmp_path)])
        assert "genevar.simulation" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}

    def test_no_module_imports_scipy(self):
        import genevar

        pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
        sources = sorted(Path(genevar.__file__).parent.glob("*.py"))
        assert sources
        assert [p.name for p in sources
                if pattern.search(p.read_text(encoding="utf-8"))] == []


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
class TestBlasPin:
    """Importing genevar pins OpenBLAS to one thread unless the caller chose."""

    @staticmethod
    def after_import(preset):
        import genevar

        env = dict(os.environ,
                   PYTHONPATH=str(Path(genevar.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, genevar, numpy\n"
                "threads = [line.split()[1] for line in open('/proc/self/status')"
                " if line.startswith('Threads:')]\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], *threads)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.split()

    def test_unset_becomes_one_thread(self):
        assert self.after_import(None) == ["1", "1"]

    def test_caller_value_kept(self):
        assert self.after_import("2")[0] == "2"
