from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genevar import io
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
    with mock.patch.object(io, "_read_columns", lambda path: None):
        by_rows = outcome(path)
    assert_same(outcome(path), by_rows)


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
