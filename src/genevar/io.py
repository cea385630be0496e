"""CSV ingestion and serialization.

Two accepted layouts, distinguished by the required header:

    gene_id,replicate,array,x,y     log2 intensities and log2 ratios
    gene_id,replicate,array,r,g     positive raw channel intensities

Raw channels are transformed on ingestion: y = log2(g / r) and
x = (1/2) log2(g * r).  replicate runs 1..I and array 1..J; every
(gene, replicate, array) cell must appear exactly once.  Gene order follows
first appearance.  Serialization writes the log layout with full round-trip
precision.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .model import IngestionError, MultiArraySet, ReplicatedArray

LOG_HEADER = ["gene_id", "replicate", "array", "x", "y"]
RAW_HEADER = ["gene_id", "replicate", "array", "r", "g"]
_COLUMNS = [("gene", object), ("replicate", np.int64), ("array", np.int64),
            ("a", float), ("b", float)]


def _parse_positive_int(token, what, where):
    try:
        value = int(token)
    except ValueError:
        raise IngestionError(f"{where}: {what} {token!r} is not an integer") from None
    if value < 1:
        raise IngestionError(f"{where}: {what} must be >= 1, got {value}")
    return value


def _parse_float(token, what, where):
    try:
        value = float(token)
    except ValueError:
        raise IngestionError(f"{where}: {what} {token!r} is not a number") from None
    if not np.isfinite(value):
        raise IngestionError(f"{where}: {what} must be finite, got {token!r}")
    return value


def read_table(path) -> MultiArraySet:
    """Read either CSV layout into a MultiArraySet.

    The columns are parsed in C and checked with array operations.  A file
    that fails any of those checks is read again row by row, which accepts
    it or raises at its first faulty row with that row's path:line.
    """
    path = Path(path)
    parsed = _read_columns(path)
    if parsed is None:
        parsed = _read_rows(path)
    raw, gene_ids, a3, b3 = parsed
    if raw:
        a3, b3 = 0.5 * np.log2(a3 * b3), np.log2(b3 / a3)
    arrays = tuple(
        ReplicatedArray(x=a3[a], y=b3[a], gene_ids=gene_ids)
        for a in range(a3.shape[0]))
    return MultiArraySet(arrays=arrays)


def _read_columns(path):
    """The columnar pass: (raw, gene_ids, a3, b3) with the value columns in
    (J, N, I) blocks, or None when the file needs the row pass.

    It accepts a subset of what _read_rows accepts, with the same values:
    np.loadtxt takes fewer number spellings than int() and float() (no
    "1_0", no "1.0" replicate), needs exactly 5 fields on every non-empty
    line and reads universal newlines as csv does; quotes, which csv would
    strip, send the file to the row pass.
    """
    try:
        with path.open() as handle:
            header = [h.strip() for h in handle.readline().split(",")]
            if header not in (LOG_HEADER, RAW_HEADER):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rec = np.loadtxt(handle, delimiter=",", comments=None,
                                 dtype=_COLUMNS, ndmin=1)
    except (OSError, ValueError, Warning):
        return None
    genes = [g.strip() for g in rec["gene"].tolist()]
    if not all(genes) or any('"' in g for g in genes):
        return None
    rep, arr = rec["replicate"], rec["array"]
    a, b = rec["a"], rec["b"]
    raw = header == RAW_HEADER
    if (min(rep.min(), arr.min()) < 1
            or not (np.isfinite(a).all() and np.isfinite(b).all())
            or raw and not ((a > 0).all() and (b > 0).all())):
        return None
    index = dict(zip(dict.fromkeys(genes), range(len(genes))))
    n_genes, n_reps, n_arrays = len(index), int(rep.max()), int(arr.max())
    size = n_arrays * n_genes * n_reps
    if size != rec.size:
        return None
    gi = np.fromiter(map(index.__getitem__, genes), dtype=np.int64,
                     count=rec.size)
    cell = ((arr - 1) * n_genes + gi) * n_reps + (rep - 1)
    if not (np.bincount(cell, minlength=size) == 1).all():
        return None
    a3, b3 = np.empty(size), np.empty(size)
    a3[cell] = a
    b3[cell] = b
    shape = (n_arrays, n_genes, n_reps)
    return raw, tuple(index), a3.reshape(shape), b3.reshape(shape)


def _read_rows(path):
    """The row pass: _read_columns' result, built one csv row at a time
    with every check made in file order, so the first fault raises with
    its path:line."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        if header == LOG_HEADER:
            raw = False
        elif header == RAW_HEADER:
            raw = True
        else:
            raise IngestionError(
                f"{path}:1: header must be {','.join(LOG_HEADER)} or "
                f"{','.join(RAW_HEADER)}, got {','.join(header)!r}")

        gene_order = {}
        cells = {}
        max_rep = 0
        max_arr = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != 5:
                raise IngestionError(f"{where}: expected 5 fields, got {len(row)}")
            gene = row[0].strip()
            if not gene:
                raise IngestionError(f"{where}: empty gene_id")
            rep = _parse_positive_int(row[1], "replicate", where)
            arr = _parse_positive_int(row[2], "array", where)
            a = _parse_float(row[3], header[3], where)
            b = _parse_float(row[4], header[4], where)
            if raw and (a <= 0 or b <= 0):
                raise IngestionError(
                    f"{where}: channel intensities must be positive")
            if gene not in gene_order:
                gene_order[gene] = len(gene_order)
            key = (gene_order[gene], rep - 1, arr - 1)
            if key in cells:
                raise IngestionError(
                    f"{where}: duplicate cell gene={gene!r} replicate={rep} array={arr}")
            cells[key] = (a, b)
            max_rep = max(max_rep, rep)
            max_arr = max(max_arr, arr)

    if not cells:
        raise IngestionError(f"{path}: no data rows")
    n_genes = len(gene_order)
    expected = n_genes * max_rep * max_arr
    if len(cells) != expected:
        for g, gi in gene_order.items():
            for r in range(max_rep):
                for a in range(max_arr):
                    if (gi, r, a) not in cells:
                        raise IngestionError(
                            f"{path}: missing cell gene={g!r} "
                            f"replicate={r + 1} array={a + 1}")
    a3 = np.empty((max_arr, n_genes, max_rep))
    b3 = np.empty((max_arr, n_genes, max_rep))
    for (gi, r, ai), (av, bv) in cells.items():
        a3[ai, gi, r] = av
        b3[ai, gi, r] = bv
    return raw, tuple(gene_order), a3, b3


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under header.  Each column becomes Python
    scalars in one tolist() call; csv writes a float as its repr, which
    round-trips."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def write_table(mset: MultiArraySet, path) -> None:
    """Serialize in the log layout with round-trip decimal precision: one
    row per (array, gene, replicate), in that order."""
    n_arrays, n_reps = mset.n_arrays, mset.n_replicates
    genes = np.repeat(np.array(mset.gene_ids, dtype=object), n_reps)
    write_csv(path, LOG_HEADER, [
        np.tile(genes, n_arrays),
        np.tile(np.arange(1, n_reps + 1), n_arrays * mset.n_genes),
        np.repeat(np.arange(1, n_arrays + 1), genes.size),
        mset.pooled_x(),
        mset.stacked_y().ravel()])
