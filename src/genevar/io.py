"""CSV ingestion and serialization.

Two accepted layouts, distinguished by the required header:

    gene_id,replicate,array,x,y     log2 intensities and log2 ratios
    gene_id,replicate,array,r,g     positive raw channel intensities

Raw channels are transformed on ingestion: y = log2(g / r) and
x = (1/2) log2(g * r).  replicate runs 1..I and array 1..J; every
(gene, replicate, array) cell must appear exactly once.  Gene order follows
first appearance.  Serialization writes the log layout with full round-trip
precision.

A file is read in one of two passes.  The columnar pass parses _CHUNK_ROWS
rows at a time with np.loadtxt and checks each chunk with array operations;
of a chunk it keeps only a packed int64 (gene, array, replicate) key per row
and copies of the two value columns, so at most one chunk's strings are
alive, and after the last chunk it scatters the chunks into the (J, N, I)
blocks.  It gives way to the row pass, which reads with csv one row at a
time and raises at the first faulty row with its path:line, when a chunk
fails a check (a spelling np.loadtxt refuses, quotes, a blank gene id, a
non-finite value, a non-positive channel or index), when an index does not
fit the packed key, or when the cells do not fill the blocks exactly once.
So every file gets the row pass's result; the columnar pass only makes the
common case fast and small.  Writing turns _WRITE_ROWS rows at a time into
Python scalars.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .model import IngestionError, MultiArraySet

LOG_HEADER = ["gene_id", "replicate", "array", "x", "y"]
RAW_HEADER = ["gene_id", "replicate", "array", "r", "g"]
_COLUMNS = [("gene", object), ("replicate", np.int64), ("array", np.int64),
            ("a", float), ("b", float)]
_CHUNK_ROWS = 16384  # rows per np.loadtxt call of the columnar pass
_INDEX_BITS = 16     # bits for each of array - 1 and replicate - 1 in a packed key
_WRITE_ROWS = 4096   # rows per block that write_csv turns into Python scalars


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
    return MultiArraySet(x=a3, y=b3, gene_ids=gene_ids)


def _read_columns(path):
    """The columnar pass: (raw, gene_ids, a3, b3) with the value columns in
    (J, N, I) blocks, or None when the file needs the row pass.

    It accepts a subset of what _read_rows accepts, with the same values:
    np.loadtxt takes fewer number spellings than int() and float() (no
    "1_0", no "1.0" replicate), needs exactly 5 fields on every non-empty
    line and reads universal newlines as csv does; quotes, which csv would
    strip, send the file to the row pass.  Every other warning of np.loadtxt
    sends the file there too, but not the two that max_rows brings with it:
    a blank line "not counted towards max_rows", and "input contained no
    data" from a chunk that starts at the end of the file.
    """
    index, chunks = {}, []
    try:
        with path.open() as handle:
            header = [h.strip() for h in handle.readline().split(",")]
            if header not in (LOG_HEADER, RAW_HEADER):
                return None
            raw = header == RAW_HEADER
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.filterwarnings("ignore", "Input line .* contained no data")
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                full = True
                while full:
                    rec = np.loadtxt(handle, delimiter=",", comments=None,
                                     dtype=_COLUMNS, ndmin=1, max_rows=_CHUNK_ROWS)
                    full = rec.size == _CHUNK_ROWS
                    if rec.size:
                        chunk = _pack_chunk(rec, raw, index)
                        if chunk is None:
                            return None
                        chunks.append(chunk)
                    del rec  # before the next chunk is parsed
    except (OSError, ValueError, Warning):
        return None
    if not chunks:
        return None
    n_genes, mask = len(index), (1 << _INDEX_BITS) - 1
    n_reps = 1 + max(int((key & mask).max()) for key, _, _ in chunks)
    n_arrays = 1 + max(int((key >> _INDEX_BITS & mask).max()) for key, _, _ in chunks)
    size = n_arrays * n_genes * n_reps
    if size != sum(key.size for key, _, _ in chunks):
        return None
    a3, b3 = np.full(size, np.nan), np.full(size, np.nan)
    while chunks:
        key, a, b = chunks.pop()
        cell = ((key >> _INDEX_BITS & mask) * n_genes
                + (key >> 2 * _INDEX_BITS)) * n_reps + (key & mask)
        a3[cell] = a
        b3[cell] = b
        del key, a, b, cell  # one chunk at a time
    if np.isnan(a3).any():
        # as many rows as cells, every value finite: a cell left NaN means
        # another one was written twice
        return None
    shape = (n_arrays, n_genes, n_reps)
    return raw, tuple(index), a3.reshape(shape), b3.reshape(shape)


def _pack_chunk(rec, raw, index):
    """One parsed chunk as (key, a, b), or None if it fails a check.  New
    gene ids join index in order of first appearance; key packs (gene,
    array - 1, replicate - 1) into one int64 with _INDEX_BITS bits for
    each index; a and b are copies, so that rec and its strings can go."""
    genes = list(map(str.strip, rec["gene"].tolist()))
    if not all(genes) or '"' in "".join(genes):
        return None
    rep, arr = rec["replicate"], rec["array"]
    a, b = rec["a"], rec["b"]
    if (min(rep.min(), arr.min()) < 1
            or max(rep.max(), arr.max()) > 1 << _INDEX_BITS
            or not (np.isfinite(a).all() and np.isfinite(b).all())
            or raw and not ((a > 0).all() and (b > 0).all())):
        return None
    fresh = [g for g in dict.fromkeys(genes) if g not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    key = np.fromiter(map(index.__getitem__, genes), dtype=np.int64,
                      count=len(genes))
    key <<= _INDEX_BITS
    key |= arr - 1
    key <<= _INDEX_BITS
    key |= rep - 1
    return key, a.copy(), b.copy()


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
    """Write equal-length columns under header.  _WRITE_ROWS rows at a time
    become Python scalars, one tolist() per column; csv writes a float as
    its repr, which round-trips."""
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n_rows, _WRITE_ROWS):
            writer.writerows(zip(*(c[start:start + _WRITE_ROWS].tolist()
                                   for c in columns)))


def write_table(mset: MultiArraySet, path) -> None:
    """Serialize in the log layout with round-trip decimal precision: one
    row per (array, gene, replicate), in that order."""
    n_arrays, n_genes, n_reps = mset.x.shape
    genes = np.repeat(np.array(mset.gene_ids, dtype=object), n_reps)
    write_csv(path, LOG_HEADER, [
        np.tile(genes, n_arrays),
        np.tile(np.arange(1, n_reps + 1), n_arrays * n_genes),
        np.repeat(np.arange(1, n_arrays + 1), genes.size),
        mset.x.ravel(),
        mset.y.ravel()])
