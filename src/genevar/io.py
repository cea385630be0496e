"""CSV ingestion and serialization.

Two accepted layouts, distinguished by the required header:

    gene_id,replicate,array,x,y     log2 intensities and log2 ratios
    gene_id,replicate,array,r,g     positive raw channel intensities

Raw channels are transformed on ingestion: y = log2(g / r) and
x = (1/2) log2(g * r).  replicate runs 1..I and array 1..J; every
(gene, replicate, array) cell must appear exactly once.  Gene order follows
first appearance.  Serialization writes the log layout with full round-trip
precision.

A file is read in one of two passes.  The columnar pass splits the body
into line-aligned byte ranges, one per CPU in the process's affinity set,
and maps _parse_range over them through _forking.run: with more than one
range, each is parsed in a forked child and pickled back while this
process waits, and a range whose result does not arrive is parsed here;
with one usable CPU, where forking is unavailable, or with other threads
alive (forking is then unsafe), the whole body is one range, parsed here.  A
range is read through a bounded binary stream with universal newlines,
_CHUNK_ROWS rows at a time with np.loadtxt, and each chunk is checked
with array operations; of a chunk the pass keeps only a packed int64
(gene, array, replicate) key per row, with the gene indexed within its
range, and copies of the two value columns, so at most one chunk's
strings are alive per process.  This process maps each range's gene ids
in range order, which keeps first-appearance order, and scatters the
chunks into the (J, N, I) blocks.  The columnar pass gives way to the row
pass, which reads with csv one row at a time and raises at the first
faulty row with its path:line, when a chunk fails a check (a spelling
np.loadtxt refuses, quotes, a blank gene id, a non-finite value, a
non-positive channel or index), when an index does not fit the packed
key, or when the cells do not fill the blocks exactly once.  So every
file gets the row pass's result; the columnar pass only makes the common
case fast and small.  The blocks are handed over read-only, so
MultiArraySet keeps them without a copy.

Writing maps _format_block over a table's _WRITE_ROWS-row blocks
through _forking.run the same way, so this process holds one block's
text at a time on any number of CPUs.  A block is formatted a column at
a time: a float column through the repr of its list, which gives each
float's repr, as csv writes it.  Only a table of float, int, bool and
str columns whose strings csv would never quote takes that route; any
other table, and the header, go through csv.writer.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from pathlib import Path

import numpy as np

from . import _forking
from .model import IngestionError, MultiArraySet

LOG_HEADER = ["gene_id", "replicate", "array", "x", "y"]
RAW_HEADER = ["gene_id", "replicate", "array", "r", "g"]
_COLUMNS = [("gene", object), ("replicate", np.int64), ("array", np.int64),
            ("a", float), ("b", float)]
_CHUNK_ROWS = 16384  # rows per np.loadtxt call of the columnar pass
_INDEX_BITS = 16     # bits for each of array - 1 and replicate - 1 in a packed key
_WRITE_ROWS = 1024   # rows per block that write_csv formats at once
_QUOTED = ',"\r\n\0'  # a str field with one of these goes through csv.writer


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

    The columns are parsed in C, over one byte range per usable CPU, each
    range in a forked child when there are several, and checked with array
    operations.  A file that fails any of those checks is read again row
    by row, which accepts it or raises at its first faulty row with that
    row's path:line.
    """
    path = Path(path)
    parsed = _read_columns(path)
    if parsed is None:
        parsed = _read_rows(path)
    raw, gene_ids, a3, b3 = parsed
    if raw:
        a3, b3 = 0.5 * np.log2(a3 * b3), np.log2(b3 / a3)
    for block in (a3, b3):
        block.setflags(write=False)  # so that MultiArraySet need not copy
    return MultiArraySet(x=a3, y=b3, gene_ids=gene_ids)


def _read_columns(path):
    """The columnar pass: (raw, gene_ids, a3, b3) with the value columns in
    read-only (J, N, I) blocks, or None when the file needs the row pass.

    It accepts a subset of what _read_rows accepts, with the same values:
    np.loadtxt takes fewer number spellings than int() and float() (no
    "1_0", no "1.0" replicate), needs exactly 5 fields on every non-empty
    line and reads universal newlines as csv does; quotes, which csv would
    strip, send the file to the row pass.  Every other warning of np.loadtxt
    sends the file there too, but not the two that max_rows brings with it:
    a blank line "not counted towards max_rows", and "input contained no
    data" from a chunk that starts at the end of a range.
    """
    try:
        with path.open() as handle:
            header = [h.strip() for h in handle.readline().split(",")]
        if header not in (LOG_HEADER, RAW_HEADER):
            return None
        raw = header == RAW_HEADER
        parsed = list(_forking.run(
            _parse_range, [(path, start, end, raw)
                           for start, end in _ranges(path, _forking.workers())]))
    except (OSError, ValueError):
        return None
    if any(p is None for p in parsed):
        return None
    # each range's gene indices -> first-appearance order over the file
    index, chunks = {}, []
    for range_chunks, ids in parsed:
        to_file = np.fromiter((index.setdefault(g, len(index)) for g in ids),
                              dtype=np.int64, count=len(ids))
        chunks.extend((key, a, b, to_file) for key, a, b in range_chunks)
    del parsed, range_chunks  # so that the scatter frees each chunk as it goes
    if not chunks:
        return None
    n_genes, mask = len(index), (1 << _INDEX_BITS) - 1
    n_reps = 1 + max(int((c[0] & mask).max()) for c in chunks)
    n_arrays = 1 + max(int((c[0] >> _INDEX_BITS & mask).max()) for c in chunks)
    size = n_arrays * n_genes * n_reps
    if size != sum(c[0].size for c in chunks):
        return None
    a3, b3 = np.full(size, np.nan), np.full(size, np.nan)
    while chunks:
        key, a, b, to_file = chunks.pop()
        cell = ((key >> _INDEX_BITS & mask) * n_genes
                + to_file[key >> 2 * _INDEX_BITS]) * n_reps + (key & mask)
        a3[cell] = a
        b3[cell] = b
        del key, a, b, cell  # one chunk at a time
    if np.isnan(a3).any():
        # as many rows as cells, every value finite: a cell left NaN means
        # another one was written twice
        return None
    shape = (n_arrays, n_genes, n_reps)
    a3.setflags(write=False)
    b3.setflags(write=False)
    return raw, tuple(index), a3.reshape(shape), b3.reshape(shape)


def _ranges(path, n):
    """Up to n byte ranges (start, end) that cover the file in order, the
    first from byte 0.  Every later one starts just after a newline byte, so
    at a line start under universal newlines too; empty ones are dropped."""
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        cuts = [0]
        for k in range(1, n):
            handle.seek(max(size * k // n, cuts[-1]))
            handle.readline()
            cuts.append(handle.tell())
    cuts.append(size)
    return [(start, end) for start, end in zip(cuts, cuts[1:])
            if start == 0 or end > start]


class _Range(io.RawIOBase):
    """The bytes [start, end) of a file as an unbuffered binary stream."""

    def __init__(self, path, start, end):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self):
        self._file.close()
        super().close()


def _parse_range(path, start, end, raw):
    """The bytes [start, end) of path through np.loadtxt, _CHUNK_ROWS rows
    at a time: (chunks, ids), where ids are the range's gene ids in order of
    first appearance and each chunk's keys index them, or None when a chunk
    fails a check.  The range from byte 0 starts with the header line."""
    index, chunks = {}, []
    try:
        stream = io.BufferedReader(_Range(path, start, end), 1 << 16)
        with io.TextIOWrapper(stream, newline=None) as handle:
            if start == 0:
                handle.readline()
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
    return chunks, tuple(index)


def _pack_chunk(rec, raw, index):
    """One parsed chunk as (key, a, b), or None if it fails a check.  New
    gene ids join index in order of first appearance; key packs (gene,
    array - 1, replicate - 1) into one int64 with _INDEX_BITS bits for
    each index; a and b are copies, so that rec and its strings can go.
    A gene's id is stripped, checked and looked up once per run of equal
    raw ids on neighbouring rows, and its index repeated over the run; in
    a file with no such runs, such as one in (array, replicate, gene) row
    order, that is one lookup per row."""
    ids = rec["gene"]
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    genes = [g.strip() for g in ids[np.append(0, starts)].tolist()]
    if not all(genes) or '"' in "".join(genes):
        return None
    rep, arr = rec["replicate"], rec["array"]
    a, b = rec["a"], rec["b"]
    if (min(rep.min(), arr.min()) < 1
            or max(rep.max(), arr.max()) > 1 << _INDEX_BITS
            or not (np.isfinite(a).all() and np.isfinite(b).all())
            or raw and not ((a > 0).all() and (b > 0).all())):
        return None
    key = np.repeat(
        np.fromiter((index.setdefault(g, len(index)) for g in genes),
                    dtype=np.int64, count=len(genes)),
        np.diff(starts, prepend=0, append=len(ids)))
    key <<= _INDEX_BITS
    key |= arr - 1
    key <<= _INDEX_BITS
    key |= rep - 1
    return key, a.copy(), b.copy()


def _read_rows(path):
    """The row pass: _read_columns' result, built one csv row at a time
    with every check made in file order, so the first fault raises with
    its path:line."""
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from None
    with handle:
        reader = csv.reader(_decoded_lines(handle, path))
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


def _decoded_lines(handle, path):
    """The lines of handle, a text file opened on path.  Bytes that do not
    decode raise IngestionError with the path:line of the first line that
    holds such bytes."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        with path.open("rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    raise IngestionError(f"{path}:{lineno}: not {exc.encoding} "
                                         f"text: {bad.reason}") from None
        raise IngestionError(
            f"{path}: not {exc.encoding} text: {exc.reason}") from None


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under header, as csv.writer would.

    A table of float, int, bool and str columns whose strings csv would
    never quote is formatted a _WRITE_ROWS-row block at a time through
    _forking.run, so the blocks are shared among forked children, one
    contiguous share per usable CPU, and written here as they arrive; a
    table of one block is never forked.  Any other table, and the header,
    go through csv.writer.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    starts = range(0, n_rows, _WRITE_ROWS)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if all(map(_joinable, columns)):
            handle.writelines(_forking.run(_format_block, [
                (columns, start, min(start + _WRITE_ROWS, n_rows))
                for start in starts]))
        else:
            for start in starts:
                writer.writerows(zip(*(c[start:start + _WRITE_ROWS].tolist()
                                       for c in columns)))


def _joinable(column):
    """Whether _format_block writes column as csv.writer does: a 1-d
    column of floats no wider than double, of ints or bools, or of
    non-empty strings without a character of _QUOTED, which csv quotes
    (or, for some of them, quotes or refuses by Python version)."""
    if column.ndim != 1:
        return False
    kind = column.dtype.kind
    if kind == "U":
        text = "".join(column.tolist())
        return not ((column == "").any() or any(c in text for c in _QUOTED))
    return kind in "iub" or kind == "f" and column.dtype.itemsize <= 8


def _format_block(columns, lo, hi):
    """Rows [lo, hi) of joinable columns as CSV text, each column formatted
    once.  A float field is the float's repr, which round-trips and is what
    csv writes; any other field is the str of its Python scalar."""
    fields = [repr(c[lo:hi].tolist())[1:-1].split(", ")
              if c.dtype.kind == "f" else map(str, c[lo:hi].tolist())
              for c in columns]
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def write_table(mset: MultiArraySet, path) -> None:
    """Serialize in the log layout with round-trip decimal precision: one
    row per (array, gene, replicate), in that order."""
    n_arrays, n_genes, n_reps = mset.x.shape
    ids = np.array(mset.gene_ids)
    if ids.tolist() != list(mset.gene_ids):  # e.g. numpy drops a trailing NUL
        ids = np.array(mset.gene_ids, dtype=object)
    genes = np.repeat(ids, n_reps)
    write_csv(path, LOG_HEADER, [
        np.tile(genes, n_arrays),
        np.tile(np.arange(1, n_reps + 1), n_arrays * n_genes),
        np.repeat(np.arange(1, n_arrays + 1), genes.size),
        mset.x.ravel(),
        mset.y.ravel()])
