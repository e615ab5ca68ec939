import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condiid import sample
from condiid.sample import checked_sample, read_csv, write_csv

SPECIAL = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308,
           1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]


def reference_bytes(data: np.ndarray) -> bytes:
    """The CSV format written value by value: ``csv.writer`` fields of ``repr(float)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{k + 1}" for k in range(data.shape[1])])
    for row in data:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def written_bytes(data) -> bytes:
    buf = io.StringIO()
    write_csv(data, buf)
    return buf.getvalue().encode()


def same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


matrices = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL)),
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_bytes_match_reference_and_round_trip(data):
    text = written_bytes(data)
    assert text == reference_bytes(data)
    assert same_floats(read_csv(io.StringIO(text.decode())), data)


def chunk_rows(d: int) -> int:
    """Rows of d values that ``write_csv`` formats by one ``%`` operation."""
    return max(1, sample._WRITE_CHUNK_VALUES // d)


@pytest.mark.parametrize("extra", [-1, 0, 1, chunk_rows(2) + 1])
def test_chunk_boundaries(extra):
    n = chunk_rows(2) + extra
    rng = np.random.default_rng(5)
    data = rng.standard_normal((n, 2))
    data[::11, 1] = np.inf
    text = written_bytes(data)
    assert text == reference_bytes(data)
    assert text.count(b"\n") == n + 1
    assert same_floats(read_csv(io.StringIO(text.decode())), data)


def test_c_and_fortran_copies_write_the_same_bytes():
    data = np.random.default_rng(6).standard_exponential((chunk_rows(4) + 3, 4))
    data[::7, 2] = np.inf
    assert written_bytes(np.asfortranarray(data)) == written_bytes(np.ascontiguousarray(data))


class _Sink:
    """A text stream that keeps no text, only its length."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


@pytest.mark.parametrize("d", [5, 40])
def test_writer_peak_does_not_grow_with_d(d):
    """One block of BLOCK_BYTES is written with the same traced peak bound
    above it at any d: the float objects and text of one chunk of about
    _WRITE_CHUNK_VALUES values, where chunks of a fixed number of rows held
    1.1 MB at d = 5 and 9 MB at d = 40."""
    block = np.random.default_rng(9).standard_normal((sample.BLOCK_BYTES // (8 * d), d))
    sink = _Sink()
    write_csv(block[:2], sink)  # loads what the writer uses
    tracemalloc.start()
    try:
        write_csv(block, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sink.chars > block.size


def test_path_like(tmp_path):
    data = np.array([[1.5, np.inf], [-0.0, 2.0]])
    path = tmp_path / "s.csv"
    write_csv(data, path)
    assert path.read_bytes() == reference_bytes(data)
    assert same_floats(read_csv(path), data)
    assert same_floats(read_csv(str(path)), data)


def test_rejects_non_matrix():
    for shape in [(3,), (0, 2), (2, 0), (1, 1, 1)]:
        buf = io.StringIO()
        with pytest.raises(ValueError, match="must be n x d with n,d >= 1"):
            write_csv(np.zeros(shape), buf)
        assert buf.getvalue() == ""


def test_blocks_write_the_bytes_of_their_concatenation(tmp_path):
    rng = np.random.default_rng(8)
    blocks = [rng.standard_normal((m, 3)) for m in (1, chunk_rows(3) + 1, 5)]
    blocks[1][::5, 0] = np.inf
    whole = np.concatenate(blocks)
    assert written_bytes(iter(blocks)) == reference_bytes(whole)
    path = tmp_path / "s.csv"
    write_csv(iter(blocks), path)
    assert path.read_bytes() == reference_bytes(whole)


@pytest.mark.parametrize("bad, message", [
    (np.full((2, 3), np.nan), "NaN"),
    (np.zeros((2, 4)), "block width 4 does not match the first block's width 3"),
    (np.zeros(3), "must be n x d"),
], ids=["nan", "width", "vector"])
def test_refused_later_block_leaves_the_blocks_before_it(tmp_path, bad, message):
    """A block refused after the first stops the write; the header and the
    blocks before it stay, in a file as in a stream."""
    first = np.zeros((2, 3))
    path = tmp_path / "s.csv"
    path.write_text("an older file\n")
    with pytest.raises(ValueError, match=message):
        write_csv(iter([first, bad]), path)
    assert path.read_bytes() == reference_bytes(first)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(iter([first, bad]), buf)
    assert buf.getvalue().encode() == reference_bytes(first)


def test_refused_first_block_opens_no_file(tmp_path):
    path = tmp_path / "s.csv"
    for blocks in (iter([np.full((2, 3), np.nan)]), iter([])):
        with pytest.raises(ValueError):
            write_csv(blocks, path)
        assert not path.exists()


def test_sample_blocks_split_a_draw_of_more_than_one_block():
    """Up to BLOCK_BYTES of sample is one call; beyond, calls of BLOCK_BYTES // (8 d)
    rows on the one Generator, which the blocks do not re-seed."""
    d = 3
    rows = sample.BLOCK_BYTES // (8 * d)
    calls = []

    def sampler(n, rng):
        calls.append(n)
        return rng.random((n, d))

    for n, sizes in [(1, [1]), (rows, [rows]), (rows + 1, [rows, 1]),
                     (2 * rows + 7, [rows, rows, 7])]:
        calls.clear()
        blocks = list(sample.sample_blocks(sampler, n, d, np.random.default_rng(4)))
        assert calls == sizes and [len(b) for b in blocks] == sizes
        rng = np.random.default_rng(4)
        for block, size in zip(blocks, sizes):
            assert np.array_equal(block, rng.random((size, d)))
    assert not np.array_equal(blocks[0][:7], blocks[1][:7])
    calls.clear()
    list(sample.sample_blocks(lambda n, rng: calls.append(n) or np.zeros((n, 1)), 3, 10**9, None))
    assert calls == [1, 1, 1]  # a row wider than a block is a block of its own


def test_sample_blocks_are_checked():
    nan_sampler = lambda n, rng: np.full((n, 2), np.nan)
    with pytest.raises(ValueError, match="NaN"):
        next(sample.sample_blocks(nan_sampler, 5, 2, np.random.default_rng(0)))


@pytest.mark.parametrize("returned", [4, 6], ids=["fewer", "more"])
def test_sample_blocks_refuse_other_than_the_rows_asked_for(returned):
    sampler = lambda n, rng: np.zeros((returned, 2))
    with pytest.raises(ValueError, match=f"sampler returned {returned} rows where 5 were asked for"):
        next(sample.sample_blocks(sampler, 5, 2, None))


@pytest.mark.parametrize("fill", [1.0, np.inf, -np.inf], ids=["finite", "inf", "-inf"])
def test_nan_anywhere_is_refused(fill):
    """Infinities are allowed, both signs in one matrix too; a NaN is refused
    wherever it stands, also next to them."""
    base = np.full((3, 4), fill)
    base[0, 1] = base[2, 3] = -fill
    assert checked_sample(base) is base
    for i in range(3):
        for j in range(4):
            data = base.copy()
            data[i, j] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                checked_sample(data)


def test_nan_check_allocates_no_mask():
    """The NaN check reduces the data; it builds no n x d boolean array."""
    data = np.ones((200_000, 5))
    tracemalloc.start()
    try:
        checked_sample(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_blank_lines_skipped():
    data = read_csv(io.StringIO("x1,x2\n\n1.0,2.0\n\n\n3.0,inf\n\n"))
    assert same_floats(data, np.array([[1.0, 2.0], [3.0, np.inf]]))


def test_crlf_line_endings():
    data = read_csv(io.StringIO("x1,x2\r\n1.0,-0.0\r\n\r\n3.0,-inf\r\n"))
    assert same_floats(data, np.array([[1.0, -0.0], [3.0, -np.inf]]))


def test_crlf_line_endings_from_path(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"x1,x2\r\n1.0,2.0\r\n3.0,inf\r\n")
    assert same_floats(read_csv(path), np.array([[1.0, 2.0], [3.0, np.inf]]))


def test_cr_line_endings_from_path(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"x1,x2\r1.0,-0.0\r\r3.0,inf\r")
    assert same_floats(read_csv(path), np.array([[1.0, -0.0], [3.0, np.inf]]))


def test_read_from_path_holds_no_text(tmp_path):
    """A path is parsed line by line: the peak is near the array, not the file's text."""
    data = np.random.default_rng(3).standard_normal((200_000, 5))
    path = tmp_path / "big.csv"
    write_csv(data, path)
    tracemalloc.start()
    try:
        out = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_floats(out, data)
    assert peak < 2 * data.nbytes


@pytest.mark.parametrize("field", ["1_000", "\u0661", "\uff11"],
                         ids=["underscore", "arabic_indic_digit", "fullwidth_digit"])
def test_non_ascii_decimal_refused(tmp_path, field):
    """``float`` takes these fields; the C reader refuses them, from a path or a stream."""
    float(field)
    text = f"x1,x2\n1.0,2.0\n{field},3.0\n"
    path = tmp_path / "s.csv"
    path.write_text(text)
    for source in (path, io.StringIO(text)):
        with pytest.raises(ValueError, match=f"could not convert string '{field}' to float64"):
            read_csv(source)


def test_last_row_without_newline():
    data = read_csv(io.StringIO("x1,x2\n1.0,2.0\n3.0,4.0"))
    assert same_floats(data, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_blank_lines_before_header_skipped():
    data = read_csv(io.StringIO("\n\r\nx1,x2\n1.0,2.0\n"))
    assert same_floats(data, np.array([[1.0, 2.0]]))


def test_quoted_field_refused():
    with pytest.raises(ValueError, match="could not convert string to float: '\"2.0\"'"):
        read_csv(io.StringIO('x1,x2\n1.0,"2.0"\n'))
    with pytest.raises(ValueError, match="row width 3 does not match header width 2"):
        read_csv(io.StringIO('x1,x2\n1.0,"2,0"\n'))


def test_whitespace_only_line_is_a_row():
    with pytest.raises(ValueError, match="row width 1 does not match header width 2"):
        read_csv(io.StringIO("x1,x2\n1.0,2.0\n  \n3.0,4.0\n"))
    with pytest.raises(ValueError, match="could not convert string to float: ' '"):
        read_csv(io.StringIO("x1\n1.0\n \n"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("x1,x2\n1.0,2.0\n3.0\n", "row width 1 does not match header width 2"),
        ("x1,x2\n", "header but no data rows"),
        ("x1,x2\n\n\n", "header but no data rows"),
        ("x1,x2", "header but no data rows"),
        ("x1,x2\n1.0,abc\n", "could not convert string to float: 'abc'"),
        ("", "CSV is empty"),
        ("\n\n", "CSV is empty"),
    ],
)
def test_malformed_csv_raises_value_error(tmp_path, text, message):
    """Refused from a stream and from a path, with no warning on the way."""
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (io.StringIO(text), path):
            with pytest.raises(ValueError, match=message):
                read_csv(source)
