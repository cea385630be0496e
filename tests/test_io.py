import csv
import os
import threading
import time
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genevar import _forking, io
from genevar.io import read_table, write_table
from genevar.model import IngestionError, MultiArraySet


def small_set(rng, n=4, i=3, j=2):
    xy = [(rng.uniform(6, 16, (n, i)), rng.normal(size=(n, i)))
          for _ in range(j)]
    return MultiArraySet(x=np.stack([x for x, _ in xy]),
                         y=np.stack([y for _, y in xy]),
                         gene_ids=tuple(f"gene-{k}" for k in range(n)))


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path, rng):
        ms = small_set(rng)
        path = tmp_path / "data.csv"
        write_table(ms, path)
        back = read_table(path)
        assert back.n_arrays == ms.n_arrays
        assert back.gene_ids == ms.gene_ids
        for a, b in zip(ms.arrays, back.arrays):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_serialization_is_stable(self, tmp_path, rng):
        ms = small_set(rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(ms, p1)
        write_table(read_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("ids", [("g1", "g2", "g3"),
                                     ("a,b", 'say "hi"', "g1\x00"),
                                     ("g1\x00", "g2", "g3")])
    def test_written_as_csv_writer_writes_it(self, tmp_path, writers, ids):
        # plain ids go through the forked column join; ids that csv quotes,
        # or that a numpy str array changes (a trailing NUL), go through
        # csv.writer
        forked = writers(2)
        x = np.arange(12.0).reshape(2, 3, 2) / 7
        ms = MultiArraySet(x=x + 6, y=-x, gene_ids=ids)
        write_table(ms, tmp_path / "t.csv")
        cells = list(np.ndindex(x.shape))
        assert written(tmp_path / "t.csv") == csv_reference(io.LOG_HEADER, [
            np.array([ids[g] for _, g, _ in cells], dtype=object),
            [r + 1 for *_, r in cells], [a + 1 for a, *_ in cells],
            [ms.x[c] for c in cells], [ms.y[c] for c in cells]])
        assert len(forked) == (2 if ids[0] == "g1" else 0)


def csv_reference(header, columns):
    """write_csv's text as csv.writer writes the whole table at once."""
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    return buffer.getvalue()


def written(path):
    with open(path, newline="") as handle:
        return handle.read()


@pytest.fixture
def writers(monkeypatch, forked):
    """writers(n) gives write_csv n usable CPUs and 3-row blocks; returns
    the list that collects the pid of every child it forks."""
    monkeypatch.setattr(io, "_WRITE_ROWS", 3)

    def set_workers(n):
        monkeypatch.setattr(_forking, "workers", lambda: n)
        return forked

    return set_workers


FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-05, 0.1, 1 / 3,
          -2.5e-300]
JOINED = {
    "floats": [FLOATS, np.array(FLOATS[::-1], dtype=np.float32),
               np.array(FLOATS)],
    "ints": [np.arange(-5, 5), np.arange(250, 260).astype(np.uint8),
             np.arange(10) % 3 == 0, range(10, 20)],
    "non_ascii": [["gène-α", "遺伝子", "ген", "g\u00e9", "😀", "a b", "'q'",
                   "\t", "x;y", "z"], np.linspace(-1, 1, 10)],
}
CSV_ROUTE = {
    "comma": [["a,b"] + ["c"] * 9, np.arange(10.0)],
    "quote": [['say "hi"'] + ["c"] * 9, np.arange(10.0)],
    "cr": [["a\rb"] + ["c"] * 9, np.arange(10.0)],
    "lf": [["a\nb"] + ["c"] * 9, np.arange(10.0)],
    "empty": [[""] + ["c"] * 9, np.arange(10.0)],
    "object_none": [np.array([None, "a"] * 5, dtype=object), np.arange(10)],
    "one_empty_column": [[""]],
    "matrix": [np.arange(20).reshape(10, 2), np.arange(10.0)],
}


class TestWriteCsv:
    def test_row_blocks_join_seamlessly(self, tmp_path):
        columns = [np.arange(10), np.linspace(0, 1, 10).tolist(),
                   list("abcdefghij")]
        with mock.patch.object(io, "_WRITE_ROWS", 3):
            io.write_csv(tmp_path / "blocks.csv", ["i", "v", "s"], columns)
        io.write_csv(tmp_path / "whole.csv", ["i", "v", "s"], columns)
        want = "i,v,s\n" + "".join(
            f"{i},{v!r},{s}\n" for i, v, s in zip(*map(list, columns)))
        assert (tmp_path / "blocks.csv").read_text() == want
        assert (tmp_path / "whole.csv").read_text() == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", JOINED)
    def test_joined_columns_match_csv(self, tmp_path, writers, n, case):
        forked = writers(n)
        columns = JOINED[case]
        header = [f"c{k}" for k in range(len(columns))]
        io.write_csv(tmp_path / "t.csv", header, columns)
        assert written(tmp_path / "t.csv") == csv_reference(header, columns)
        # 4 blocks of 3 rows: a child per usable CPU, none with one
        assert len(forked) == (n if n > 1 else 0)
        assert_reaped(forked)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("case", CSV_ROUTE)
    def test_quoted_fields_go_through_csv(self, tmp_path, writers, n, case):
        forked = writers(n)
        columns = CSV_ROUTE[case]
        header = [f"c{k}" for k in range(len(columns))]
        io.write_csv(tmp_path / "t.csv", header, columns)
        assert written(tmp_path / "t.csv") == csv_reference(header, columns)
        assert forked == []

    @pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                        reason="long double is double here")
    def test_floats_wider_than_double_go_through_csv(self, tmp_path, writers):
        forked = writers(3)
        columns = [np.array(FLOATS, dtype=np.longdouble)]
        io.write_csv(tmp_path / "t.csv", ["v"], columns)
        assert written(tmp_path / "t.csv") == csv_reference(["v"], columns)
        assert forked == []

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("columns", [
        [[], np.array([], dtype=float)], [np.array([], dtype=object)], []],
        ids=["joined", "csv", "no_columns"])
    def test_zero_rows_write_the_header(self, tmp_path, writers, n, columns):
        forked = writers(n)
        io.write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert written(tmp_path / "t.csv") == "a,b\n"
        assert forked == []

    @pytest.mark.parametrize("n_rows", [1, 2, 4])
    def test_more_cpus_than_blocks(self, tmp_path, writers, n_rows):
        forked = writers(8)
        columns = [np.arange(n_rows), np.linspace(0, 1, n_rows)]
        io.write_csv(tmp_path / "t.csv", ["i", "v"], columns)
        assert written(tmp_path / "t.csv") == csv_reference(["i", "v"], columns)
        n_blocks = -(-n_rows // 3)
        assert len(forked) == (n_blocks if n_blocks > 1 else 0)
        assert_reaped(forked)

    def test_a_range_with_no_text_is_formatted_here(self, tmp_path, writers,
                                                     monkeypatch):
        # 4 blocks in shares [0], [1], [2, 3]; the first child sends nothing
        forked = writers(3)
        parent, format_block, here = os.getpid(), io._format_block, []

        def losing(columns, lo, hi):
            if os.getpid() == parent:
                here.append(lo)
            elif lo == 0:
                os._exit(0)
            return format_block(columns, lo, hi)

        monkeypatch.setattr(io, "_format_block", losing)
        columns = JOINED["floats"] + JOINED["ints"]
        header = [f"c{k}" for k in range(len(columns))]
        io.write_csv(tmp_path / "t.csv", header, columns)
        assert written(tmp_path / "t.csv") == csv_reference(header, columns)
        assert here == [0]
        assert len(forked) == 3
        assert_reaped(forked)

    def test_a_directory_path_raises_and_leaves_no_child(self, tmp_path,
                                                         writers):
        forked = writers(3)
        with pytest.raises(OSError):
            io.write_csv(tmp_path, ["v"], [np.arange(10.0)])
        assert forked == []  # the file is opened before any block is formatted
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_killed_and_reaped_when_the_parent_is_interrupted(
            self, tmp_path, writers, monkeypatch):
        # the first child sends nothing, and formatting its block here is
        # interrupted while the other children are still busy
        forked = writers(3)
        parent = os.getpid()

        def interrupted(columns, lo, hi):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            if lo == 0:
                os._exit(0)
            time.sleep(60)

        monkeypatch.setattr(io, "_format_block", interrupted)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            io.write_csv(tmp_path / "t.csv", ["v"], [np.arange(10.0)])
        assert time.monotonic() - began < 30
        assert len(forked) == 3
        assert_reaped(forked)

    def test_other_threads_keep_the_writing_in_process(self, tmp_path, cpus):
        forked = cpus(4)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            columns = [np.linspace(0, 1, 5 * io._WRITE_ROWS)]
            io.write_csv(tmp_path / "t.csv", ["v"], columns)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forked == []
        assert written(tmp_path / "t.csv") == csv_reference(["v"], columns)


class TestRawChannels:
    def test_log_transform(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "gene_id,replicate,array,r,g\n"
            "a,1,1,2.0,8.0\n"
            "a,2,1,4.0,4.0\n")
        ms = read_table(path)
        arr = ms.arrays[0]
        # y = log2(g/r), x = log2(g*r)/2
        assert arr.y[0, 0] == pytest.approx(2.0)
        assert arr.x[0, 0] == pytest.approx(2.0)
        assert arr.y[0, 1] == pytest.approx(0.0)
        assert arr.x[0, 1] == pytest.approx(2.0)

    def test_nonpositive_channel_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "gene_id,replicate,array,r,g\n"
            "a,1,1,0.0,8.0\n")
        with pytest.raises(IngestionError, match="raw.csv:2"):
            read_table(path)


class TestIngestionErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gene,rep,arr,x,y\na,1,1,1,1\n")
        with pytest.raises(IngestionError, match="header"):
            read_table(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,0.1\n"
            "a,1,1,7.5,0.2\n")
        with pytest.raises(IngestionError, match="dup.csv:3"):
            read_table(path)

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,0.1\n"
            "a,2,1,7.5,0.2\n"
            "b,1,1,8.0,0.3\n")
        with pytest.raises(IngestionError, match="missing cell"):
            read_table(path)

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,1,1,7.0,inf\n")
        with pytest.raises(IngestionError, match="inf.csv:2"):
            read_table(path)

    def test_bad_replicate_index(self, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "a,zero,1,7.0,0.1\n")
        with pytest.raises(IngestionError, match="replicate"):
            read_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            read_table(path)

    def test_gene_order_follows_first_appearance(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text(
            "gene_id,replicate,array,x,y\n"
            "zz,1,1,7.0,0.1\n"
            "aa,1,1,8.0,0.2\n")
        ms = read_table(path)
        assert ms.gene_ids == ("zz", "aa")


# ---------------------------------------------------------------------------
# The columnar reader against the row-by-row pass
# ---------------------------------------------------------------------------

# (field index or None for a whole line, replacement tokens)
EDITS = [
    (None, ["", "  ", "\t"]),  # inserted lines
    (0, ["#g", "g#1", '"g1"', '"g,1"', 'a"b', " g1 ", "g2\t", "", "  "]),
    (1, ["1.0", "+1", "1_0", "0", "-1", " 2 ", "01", "", "x", "\u0661"]),
    (2, ["1.0", "+1", "1_0", "0", " 2", "2"]),
    (3, ["nan", "inf", "-inf", "1e400", "1_0", "0", "-1.5", " 7.5 ", "1e-3"]),
    (4, ["nan", "Infinity", "1e400", "0", "-2", "1_0", "0.0", "+3"]),
]


def valid_rows(seed, raw, n_genes, n_reps, n_arrays):
    rng = np.random.default_rng(seed)
    rows = []
    for g in range(n_genes):
        for r in range(n_reps):
            for a in range(n_arrays):
                if raw:
                    u, v = rng.lognormal(6.0, 2.0, 2).tolist()
                else:
                    u, v = rng.uniform(6, 16), rng.normal()
                rows.append(f"g{g + 1},{r + 1},{a + 1},{u!r},{v!r}")
    return [rows[k] for k in rng.permutation(len(rows))]


def mutate(rows, kind, at, token):
    """Apply one edit to the data lines; at and token pick where and what."""
    if not rows:
        return
    k = at % len(rows)
    if kind == "dup":
        rows.insert(at % (len(rows) + 1), rows[k])
    elif kind == "drop":
        del rows[k]
    elif kind == "fields4":
        rows[k] = rows[k].rsplit(",", 1)[0]
    elif kind == "fields6":
        rows[k] += ",1"
    elif kind in ("quote", "pad"):
        # csv strips the quotes and int()/float() the blanks: still valid
        parts = rows[k].split(",")
        f = token % len(parts)
        parts[f] = f'"{parts[f]}"' if kind == "quote" else f" {parts[f]}\t"
        rows[k] = ",".join(parts)
    else:
        field, tokens = EDITS[kind]
        token = tokens[token % len(tokens)]
        if field is None:
            rows.insert(at % (len(rows) + 1), token)
        else:
            parts = rows[k].split(",")
            if field < len(parts):
                parts[field] = token
                rows[k] = ",".join(parts)


def outcome(path):
    try:
        return read_table(path)
    except IngestionError as exc:
        return str(exc)


def outcome_by_rows(path):
    with mock.patch.object(io, "_read_columns", lambda path: None):
        return outcome(path)


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.gene_ids == want.gene_ids
    assert got.n_arrays == want.n_arrays
    for a, b in zip(got.arrays, want.arrays):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


mutations = st.lists(
    st.tuples(st.sampled_from(["dup", "drop", "fields4", "fields6", "quote",
                               "pad", *range(len(EDITS))]),
              st.integers(0, 200), st.integers(0, 20)),
    max_size=3)


def write_rows(path, raw, rows, eol="\n", final_newline=True):
    header = ",".join(io.RAW_HEADER if raw else io.LOG_HEADER)
    text = eol.join([header, *rows]) + (eol if final_newline else "")
    path.write_bytes(text.encode())


def assert_parity(path):
    columns = io._read_columns(path)
    if columns is not None:
        # whatever the columnar pass accepts, the row pass accepts too
        want = io._read_rows(path)
        assert columns[0] == want[0] and columns[1] == want[1]
        assert np.array_equal(columns[2], want[2])
        assert np.array_equal(columns[3], want[3])
    assert_same(outcome(path), outcome_by_rows(path))


def single_edits():
    yield from [("dup", 0, 0), ("drop", 0, 0), ("fields4", 0, 0),
                ("fields6", 0, 0)]
    for kind in ("quote", "pad"):
        yield from ((kind, 0, f) for f in range(5))
    for kind, (_, tokens) in enumerate(EDITS):
        yield from ((kind, 0, t) for t in range(len(tokens)))


class TestColumnarParity:
    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2)])
    def test_every_single_edit(self, tmp_path, raw, shape):
        for n, edit in enumerate(single_edits()):
            rows = valid_rows(n, raw, *shape)
            mutate(rows, *edit)
            path = tmp_path / f"edit{n}.csv"
            write_rows(path, raw, rows)
            assert_parity(path)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), raw=st.booleans(),
           n_genes=st.integers(1, 3), n_reps=st.integers(1, 3),
           n_arrays=st.integers(1, 2), edits=mutations,
           crlf=st.booleans(), final_newline=st.booleans())
    def test_matches_row_pass(self, tmp_path_factory, seed, raw, n_genes,
                              n_reps, n_arrays, edits, crlf, final_newline):
        rows = valid_rows(seed, raw, n_genes, n_reps, n_arrays)
        for edit in edits:
            mutate(rows, *edit)
        path = tmp_path_factory.mktemp("parity") / "t.csv"
        write_rows(path, raw, rows, "\r\n" if crlf else "\n", final_newline)
        assert_parity(path)

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\n\n"),
        lambda t: t.replace("g1,", " g1 ,").replace("g2,", "g#2,"),
        lambda t: t.replace(",1,1,", ",+1,01,"),
    ])
    def test_tolerated_spellings_stay_columnar(self, tmp_path, rng, edit):
        # common variants of a valid file must not cost the slow row pass
        path = tmp_path / "data.csv"
        write_table(small_set(rng), path)
        plain = read_table(path)
        path.write_text(edit(path.read_text().replace("gene-", "g")))
        assert io._read_columns(path) is not None
        got = read_table(path)
        for a, b in zip(got.arrays, plain.arrays):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# The columnar pass across chunk edges
# ---------------------------------------------------------------------------

def chunked(rows):
    """_CHUNK_ROWS patched down to rows, so that small files span chunks."""
    return mock.patch.object(io, "_CHUNK_ROWS", rows)


class TestChunkedParity:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    @pytest.mark.parametrize("raw", [False, True])
    def test_every_single_edit(self, tmp_path, raw, chunk):
        with chunked(chunk):
            for n, edit in enumerate(single_edits()):
                rows = valid_rows(n, raw, 2, 2, 2)
                mutate(rows, *edit)
                path = tmp_path / f"edit{n}.csv"
                write_rows(path, raw, rows)
                assert_parity(path)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), raw=st.booleans(),
           n_genes=st.integers(1, 3), n_reps=st.integers(1, 3),
           n_arrays=st.integers(1, 2), edits=mutations,
           crlf=st.booleans(), final_newline=st.booleans(),
           chunk=st.integers(1, 7))
    def test_matches_row_pass(self, tmp_path_factory, seed, raw, n_genes,
                              n_reps, n_arrays, edits, crlf, final_newline,
                              chunk):
        rows = valid_rows(seed, raw, n_genes, n_reps, n_arrays)
        for edit in edits:
            mutate(rows, *edit)
        path = tmp_path_factory.mktemp("parity") / "t.csv"
        write_rows(path, raw, rows, "\r\n" if crlf else "\n", final_newline)
        with chunked(chunk):
            assert_parity(path)

    @pytest.mark.parametrize("chunk", [1, 2, 4, 8])
    @pytest.mark.parametrize("final_newline", [False, True])
    def test_row_count_a_multiple_of_the_chunk(self, tmp_path, chunk,
                                               final_newline):
        # the call after the last full chunk warns "input contained no data"
        path = tmp_path / "t.csv"
        write_rows(path, False, valid_rows(0, False, 2, 2, 2),
                   final_newline=final_newline)
        with chunked(chunk):
            assert io._read_columns(path) is not None
            assert_parity(path)

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    def test_blank_crlf_lines_at_chunk_edges(self, tmp_path, chunk):
        # under max_rows, np.loadtxt warns on every blank line it skips
        rows = valid_rows(1, False, 2, 2, 2)
        for at in (6, 3):
            rows[at:at] = ["", ""]
        path = tmp_path / "t.csv"
        write_rows(path, False, rows, eol="\r\n")
        with chunked(chunk):
            assert io._read_columns(path) is not None
            assert_parity(path)

    @pytest.mark.parametrize("extra", [False, True])
    def test_duplicate_split_across_chunks(self, tmp_path, extra):
        rows = valid_rows(2, False, 2, 2, 1)
        if extra:
            rows.append(rows[0])      # one row more than there are cells
        else:
            rows[3] = rows[0]         # as many rows as cells, one left empty
        path = tmp_path / "dup.csv"
        write_rows(path, False, rows)
        with chunked(2):
            assert io._read_columns(path) is None
            line = len(rows) + 1
            with pytest.raises(IngestionError, match=f"dup.csv:{line}: duplicate"):
                read_table(path)

    def test_replicate_beyond_the_packed_key(self, tmp_path):
        n_reps = (1 << io._INDEX_BITS) + 1
        rng = np.random.default_rng(3)
        ms = MultiArraySet(x=rng.uniform(6, 16, (1, 1, n_reps)),
                           y=rng.normal(size=(1, 1, n_reps)), gene_ids=("g1",))
        path = tmp_path / "wide.csv"
        write_table(ms, path)
        assert io._read_columns(path) is None
        assert_same(read_table(path), ms)


class TestMemory:
    def test_read_table_peak_is_a_few_blocks(self, tmp_path):
        # the parse keeps one chunk of strings alive, not the file's
        import tracemalloc

        from genevar.simulation import SimDesign, generate_set

        design = SimDesign(n_genes=20000, n_replicates=3, n_arrays=4,
                           rho=0.4, seed=1)
        path = tmp_path / "big.csv"
        write_table(generate_set(design, 0), path)
        tracemalloc.start()
        try:
            ms = read_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = sum(a.x.nbytes + a.y.nbytes for a in ms.arrays)
        assert blocks == 2 * 8 * 20000 * 3 * 4
        assert peak <= 5 * blocks


# ---------------------------------------------------------------------------
# The columnar pass over byte ranges, one per usable CPU
# ---------------------------------------------------------------------------

@pytest.fixture
def cpus(monkeypatch, forked):
    """cpus(n) makes the affinity set n CPUs wide; returns the list that
    collects the pid of every child forked."""
    def set_cpus(n):
        monkeypatch.setattr(_forking.os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
        return forked

    return set_cpus


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def gene_major_rows(n_genes, n_reps, n_arrays):
    """A valid log-layout file's rows in gene order, each gene's replicate
    rows adjacent, so that a later part of the file holds genes that no
    earlier part names."""
    rng = np.random.default_rng(n_genes)
    return [f"g{g + 1},{r + 1},{a + 1},{rng.uniform(6, 16)!r},{rng.normal()!r}"
            for g in range(n_genes) for a in range(n_arrays)
            for r in range(n_reps)]


class TestRanges:
    def test_ranges_cover_the_file_at_line_starts(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(3, 2, 1), eol="\r\n")
        data = path.read_bytes()
        for n in range(1, 12):
            ranges = io._ranges(path, n)
            assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
            assert all(e > s for s, e in ranges)
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert all(data[s - 1:s] == b"\n" for s, _ in ranges[1:])
            assert len(ranges) <= min(n, data.count(b"\n"))

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_cut_inside_a_genes_replicate_rows(self, tmp_path, cpus, n):
        # up to one range per line: cuts fall between every gene's
        # replicate rows, and later ranges name genes first seen there
        forked = cpus(n)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(5, 3, 2))
        data = path.read_bytes()
        ranges = io._ranges(path, n)
        # the genes of the lines on either side of each cut
        around = [(data[:s].splitlines()[-1].split(b",")[0],
                   data[s:].split(b",")[0]) for s, _ in ranges[1:]]
        assert any(before == after for before, after in around)
        got = io._read_columns(path)
        assert got is not None and len(forked) == len(ranges)
        assert got[1] == tuple(f"g{k + 1}" for k in range(5))
        assert_parity(path)
        assert_reaped(forked)

    def test_gene_first_seen_in_a_later_range(self, tmp_path, cpus):
        cpus(2)
        rows = gene_major_rows(4, 2, 2)
        rows.insert(0, rows.pop(12))  # g4's first row leads the file
        path = tmp_path / "t.csv"
        write_rows(path, False, rows)
        assert read_table(path).gene_ids == ("g4", "g1", "g2", "g3")
        assert_parity(path)

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_crlf_and_blank_lines_at_range_edges(self, tmp_path, cpus, n):
        cpus(n)
        rows = gene_major_rows(3, 2, 2)
        for at in (9, 6, 6, 3):
            rows.insert(at, "")
        path = tmp_path / "t.csv"
        write_rows(path, False, rows, eol="\r\n", final_newline=False)
        assert io._read_columns(path) is not None
        assert_parity(path)

    @pytest.mark.parametrize("token,error", [
        ('"7.5"', None),
        ("inf", "must be finite"),
        ("nan", "must be finite"),
    ])
    def test_fault_only_in_a_later_range(self, tmp_path, cpus, token, error):
        forked = cpus(2)
        rows = gene_major_rows(4, 2, 2)
        parts = rows[-2].split(",")
        parts[3] = token
        rows[-2] = ",".join(parts)
        path = tmp_path / "t.csv"
        write_rows(path, False, rows)
        assert io._ranges(path, 2)[1][0] < len(path.read_bytes()) - 100
        assert io._read_columns(path) is None
        assert len(forked) == 2
        if error is None:
            assert_parity(path)
        else:
            with pytest.raises(IngestionError,
                               match=f"t.csv:{len(rows)}: x {error}"):
                read_table(path)
        assert_reaped(forked)

    def test_duplicate_split_across_ranges(self, tmp_path, cpus):
        cpus(2)
        rows = gene_major_rows(4, 2, 2)
        rows[-1] = rows[0]
        path = tmp_path / "dup.csv"
        write_rows(path, False, rows)
        assert io._read_columns(path) is None
        with pytest.raises(IngestionError,
                           match=f"dup.csv:{len(rows) + 1}: duplicate"):
            read_table(path)

    def test_fewer_rows_than_cpus(self, tmp_path, cpus):
        forked = cpus(16)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(1, 2, 1))
        assert len(io._ranges(path, 16)) == 3  # header, row 1, row 2
        assert io._read_columns(path) is not None
        assert len(forked) == 3
        assert_parity(path)

    def test_header_only_range_and_empty_body(self, tmp_path, cpus):
        cpus(4)
        path = tmp_path / "t.csv"
        write_rows(path, False, [])
        assert io._ranges(path, 4) == [(0, len(path.read_bytes()))]
        assert io._read_columns(path) is None
        with pytest.raises(IngestionError, match="no data rows"):
            read_table(path)

    def test_one_cpu_parses_in_process(self, tmp_path, cpus):
        forked = cpus(1)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(5, 3, 2))
        assert io._read_columns(path) is not None
        assert forked == []
        assert_parity(path)

    def test_other_threads_keep_the_parse_in_process(self, tmp_path, cpus,
                                                     monkeypatch):
        forked = cpus(4)
        monkeypatch.setattr(_forking.threading, "active_count", lambda: 2)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(5, 3, 2))
        assert io._read_columns(path) is not None
        assert forked == []

    @pytest.mark.parametrize("fault", ["raise", "exit"])
    def test_a_range_a_child_does_not_send_is_parsed_here(
            self, tmp_path, cpus, monkeypatch, fault):
        forked = cpus(3)
        parent, parse, here = os.getpid(), io._parse_range, []

        def failing(path, start, end, raw):
            if os.getpid() == parent:
                here.append(start)
            elif start > 0:  # every child but the first
                if fault == "raise":
                    raise RuntimeError("child fails")
                os._exit(0)
            return parse(path, start, end, raw)

        monkeypatch.setattr(io, "_parse_range", failing)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(5, 3, 2))
        ranges = io._ranges(path, 3)
        got = io._read_columns(path)
        assert got is not None
        assert here == [start for start, _ in ranges[1:]]
        assert len(forked) == 3
        assert_reaped(forked)
        assert_same(read_table(path), outcome_by_rows(path))
        assert_reaped(forked)

    def test_children_killed_and_reaped_when_the_parent_is_interrupted(
            self, tmp_path, cpus, monkeypatch):
        # the first child sends nothing, and parsing its range here is
        # interrupted while the other children are still busy
        forked = cpus(3)
        parent = os.getpid()

        def interrupted(path, start, end, raw):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            if start == 0:
                os._exit(0)
            time.sleep(60)

        monkeypatch.setattr(io, "_parse_range", interrupted)
        path = tmp_path / "t.csv"
        write_rows(path, False, gene_major_rows(5, 3, 2))
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            io._read_columns(path)
        assert time.monotonic() - began < 30
        assert len(forked) == 3
        assert_reaped(forked)


class TestReadOnlyHandOver:
    """read_table's blocks reach MultiArraySet without another copy."""

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("columnar", [False, True])
    def test_blocks_are_kept(self, tmp_path, raw, columnar):
        path = tmp_path / "t.csv"
        write_rows(path, raw, valid_rows(4, raw, 3, 2, 2))
        parsed = io._read_columns(path) if columnar else io._read_rows(path)
        assert parsed is not None
        blocks = []

        def passes(path):
            return parsed

        def capture(x, y, gene_ids):
            blocks.extend([x, y])
            return MultiArraySet(x=x, y=y, gene_ids=gene_ids)

        with mock.patch.object(io, "_read_columns",
                               passes if columnar else lambda path: None), \
                mock.patch.object(io, "_read_rows", passes), \
                mock.patch.object(io, "MultiArraySet", capture):
            ms = read_table(path)
        assert np.shares_memory(ms.x, blocks[0])
        assert np.shares_memory(ms.y, blocks[1])
        if not raw:
            assert np.shares_memory(ms.x, parsed[2])
        assert not ms.x.flags.writeable and not ms.y.flags.writeable
