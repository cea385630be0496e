"""CSV ingestion and serialization.

Two accepted layouts, distinguished by the required header:

    gene_id,replicate,array,x,y     log2 intensities and log2 ratios
    gene_id,replicate,array,r,g     positive raw channel intensities

Raw channels are transformed on ingestion: y = log2(g / r) and
x = (1/2) log2(g * r).  replicate runs 1..I and array 1..J; every
(gene, replicate, array) cell must appear exactly once.  Gene order follows
first appearance.  Serialization writes the log layout with full round-trip
precision.  Files are read and written as UTF-8 whatever the locale, and a
byte-order mark before the header is skipped.

A file is read in one of two passes.  The columnar pass splits the body
into line-aligned byte ranges, one per CPU in the process's affinity set,
and maps _parse_range over them through _forking.run: with more than one
range, each is parsed in a forked child while this process waits, and a
range whose result does not arrive is parsed here; with one usable CPU,
where forking is unavailable, or with other threads alive (forking is then
unsafe), the whole body is one range, parsed here.  Before the fork this
process maps one anonymous shared mapping with a region per range, room
for as many rows as the range's bytes could hold, and a range's parse
writes its rows there, so only its row count, gene ids and index maxima
go back through the pipe.  A range is read in text blocks of about
_BLOCK_BYTES, each cut after its last line end, decoded as UTF-8 and
parsed whole by np.loadtxt with universal newlines, and each block's rows
are checked with array operations; of a text block the pass keeps only a
packed int64 (gene, array, replicate) key per row, with the gene indexed
within its range, and the two value columns, written to the region, so at
most one text block's strings are alive per process.  This process maps
each range's gene ids in range order, which keeps first-appearance order,
then scatters the regions one at a time, _BLOCK_BYTES of rows at a time,
into NaN-filled (J, N, I) blocks in anonymous mappings of their own, and
gives back each scattered slice's pages.  The columnar pass gives way to
the row pass, which reads with csv one row at a time and raises at the
first faulty row with its path:line, when a text block fails a check
(bytes that are not UTF-8, a spelling np.loadtxt refuses, quotes, a blank
gene id, a non-finite value, a non-positive channel or index), when an
index does not fit the packed key, when a range's rows overflow its
region, or when the cells do not fill the blocks exactly once.  So every
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

import contextlib
import csv
import io
import mmap
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
_BLOCK_BYTES = 1 << 18  # per np.loadtxt call and scatter step; bounds the heap
_ROW = np.dtype([("key", np.int64), ("a", float), ("b", float)])  # a region's row
_MIN_ROW_BYTES = 9   # bytes of the shortest row, "g,1,1,0,0"
# gives back a scattered slice's pages: MADV_REMOVE also frees the shared
# region's memory, MADV_DONTNEED only unmaps it from this process
_RELEASE = getattr(mmap, "MADV_REMOVE", getattr(mmap, "MADV_DONTNEED", None))
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
    strip, send the file to the row pass.  Every warning of np.loadtxt
    sends the file there too, but "input contained no data" from a text
    block of blank lines, or from a range that holds only the header.
    """
    # each range's gene indices -> first-appearance order over the file
    index, to_file, counts, n_reps, n_arrays = {}, [], [], 0, 0
    try:
        with path.open(encoding="utf-8-sig") as handle:
            header = [h.strip() for h in handle.readline().split(",")]
        if header not in (LOG_HEADER, RAW_HEADER):
            return None
        raw = header == RAW_HEADER
        ranges = _ranges(path, _forking.workers())
        shared, regions = _regions([end - start for start, end in ranges])
        with contextlib.closing(_forking.run(
                _parse_range, [(path, start, end, raw, region) for (start, end),
                               (_, region) in zip(ranges, regions)])) as parsed:
            for result in parsed:  # one range's gene ids alive at a time
                if result is None:
                    return None
                n_rows, ids, top_rep, top_arr = result
                to_file.append(np.fromiter(
                    (index.setdefault(g, len(index)) for g in ids),
                    dtype=np.int64, count=len(ids)))
                counts.append(n_rows)
                n_reps, n_arrays = max(n_reps, top_rep), max(n_arrays, top_arr)
                del result, ids
    except (OSError, ValueError):
        return None
    gene_ids = tuple(index)
    del index  # before the blocks
    n_genes, mask = len(gene_ids), (1 << _INDEX_BITS) - 1
    size = n_arrays * n_genes * n_reps
    if size == 0 or size != sum(counts):
        return None
    a3, b3 = _nan_block(size), _nan_block(size)
    step = -(-_BLOCK_BYTES // _ROW.itemsize)
    for n_rows, (offset, region), genes in zip(counts, regions, to_file):
        for lo in range(0, n_rows, step):
            hi = min(lo + step, n_rows)
            rows = region[lo:hi]
            key = rows["key"]
            cell = ((key >> _INDEX_BITS & mask) * n_genes
                    + genes[key >> 2 * _INDEX_BITS]) * n_reps + (key & mask)
            a3[cell] = rows["a"]
            b3[cell] = rows["b"]
            end = offset + hi * _ROW.itemsize  # the region's last page is its own
            _release(shared, offset + lo * _ROW.itemsize,
                     end if hi < n_rows else _page_up(end))
    if np.isnan(a3).any():
        # as many rows as cells, every value finite: a cell left NaN means
        # another one was written twice
        return None
    shape = (n_arrays, n_genes, n_reps)
    a3.setflags(write=False)
    b3.setflags(write=False)
    return raw, gene_ids, a3.reshape(shape), b3.reshape(shape)


def _regions(sizes):
    """(shared, [(offset, region)]): one anonymous shared mapping that
    forked children write into, and in it a page-aligned _ROW array per
    byte range of sizes[k] bytes, with room for every row those bytes can
    hold, sizes[k] // _MIN_ROW_BYTES + 1.  A page is only allocated once a
    row is written to it."""
    capacities = [nbytes // _MIN_ROW_BYTES + 1 for nbytes in sizes]
    offsets = np.cumsum([0] + [_page_up(n * _ROW.itemsize) for n in capacities])
    shared = mmap.mmap(-1, int(offsets[-1]))
    return shared, [(int(offset), np.frombuffer(shared, _ROW, n, int(offset)))
                    for offset, n in zip(offsets, capacities)]


def _page_up(nbytes):
    return -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE


def _release(shared, lo, hi):
    """Give back the pages of shared from the one that holds byte lo up to
    the one that holds byte hi, that one excluded: every row on them has
    been scattered."""
    lo, hi = lo - lo % mmap.PAGESIZE, hi - hi % mmap.PAGESIZE
    if _RELEASE is not None and hi > lo:
        with contextlib.suppress(OSError):
            shared.madvise(_RELEASE, lo, hi - lo)


def _nan_block(size):
    """A writable float array of size NaNs in an anonymous private mapping
    of its own, so that its memory goes back to the system when it is
    freed."""
    block = np.frombuffer(mmap.mmap(-1, size * 8, flags=mmap.MAP_PRIVATE), float)
    block.fill(np.nan)
    return block


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


def _parse_range(path, start, end, raw, region):
    """The bytes [start, end) of path through np.loadtxt, one text block of
    _blocks at a time, each checked block's rows written to the _ROW array
    region in file order: (rows, ids, replicates, arrays), where rows
    counts them, ids are the range's gene ids in order of first
    appearance, which the keys index, and replicates and arrays are the
    largest indices; or None when a block does not decode or fails a
    check, or the rows overflow region.  Range 0 starts with the header."""
    index, rows, n_reps, n_arrays = {}, 0, 0, 0
    try:
        with open(path, "rb", buffering=0) as handle, warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            handle.seek(start)
            for k, text in enumerate(_blocks(handle, end - start)):
                lines = io.StringIO(text, newline=None)
                del text  # lines holds a copy
                if k == start == 0:
                    lines.readline()  # the header
                rec = np.loadtxt(lines, delimiter=",", comments=None,
                                 dtype=_COLUMNS, ndmin=1)
                del lines
                if rec.size:
                    if rows + rec.size > region.size:
                        return None
                    top = _pack_block(rec, raw, index,
                                      region[rows:rows + rec.size])
                    if top is None:
                        return None
                    rows += rec.size
                    n_reps, n_arrays = max(n_reps, top[0]), max(n_arrays, top[1])
                del rec  # before the next block is read
    except (OSError, ValueError, Warning):
        return None
    return rows, tuple(index), n_reps, n_arrays


def _blocks(handle, size):
    """The next size bytes of the binary file handle as UTF-8 text, in
    blocks of about _BLOCK_BYTES, each cut after its last "\n" or "\r", so
    at a line end under universal newlines; what follows a cut starts the
    next block, and a line longer than a block lengthens its block.  A CRLF
    pair split by a cut leaves a blank line.  Bytes that do not decode
    raise UnicodeDecodeError."""
    pending = []  # bytes read since the last cut
    while size > 0 and (data := handle.read(min(_BLOCK_BYTES, size))):
        size -= len(data)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        if cut:
            yield b"".join([*pending, data[:cut]]).decode("utf-8")
            pending.clear()
        pending.append(data[cut:])
    if any(pending):
        yield b"".join(pending).decode("utf-8")


def _pack_block(rec, raw, index, out):
    """Write one text block's parsed rows rec to the _ROW array out and
    return their largest (replicate, array), or None if they fail a check.
    New gene ids join index in order of first appearance; key packs (gene,
    array - 1, replicate - 1) into one int64 with _INDEX_BITS bits for each
    index.  A gene's id is stripped, checked and looked up once per run of
    equal raw ids on neighbouring rows, and its index repeated over the
    run; in a file with no such runs, such as one in (array, replicate,
    gene) row order, that is one lookup per row."""
    ids = rec["gene"]
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    genes = [g.strip() for g in ids[np.append(0, starts)].tolist()]
    if not all(genes) or '"' in "".join(genes):
        return None
    rep, arr = rec["replicate"], rec["array"]
    a, b = rec["a"], rec["b"]
    top = int(rep.max()), int(arr.max())
    if (min(rep.min(), arr.min()) < 1 or max(top) > 1 << _INDEX_BITS
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
    out["key"], out["a"], out["b"] = key, a, b
    return top


def _read_rows(path):
    """The row pass: _read_columns' result, built one csv row at a time
    with every check made in file order, so the first fault raises with
    its path:line."""
    try:
        handle = path.open(newline="", encoding="utf-8-sig")
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
    """The lines of handle, a UTF-8 text file opened on path.  Bytes that
    do not decode raise IngestionError with the path:line of the first line
    that holds such bytes."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        with path.open("rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise IngestionError(f"{path}:{lineno}: not utf-8 "
                                         f"text: {bad.reason}") from None
        raise IngestionError(f"{path}: not utf-8 text: {exc.reason}") from None


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
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
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
