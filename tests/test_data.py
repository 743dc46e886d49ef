import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedetect.data import (
    _CHUNK_LINES,
    AnomalyRanges,
    Fragment,
    MultiSeries,
    as_floats,
    load_ranges,
    load_signals,
    make_fragments,
    save_ranges,
    save_signals,
)
from wavedetect.errors import ConfigError, DataError, IngestError
from wavedetect.model import ModelConfig
from wavedetect.streaming import _label


def series_of(values):
    values = np.asarray(values, dtype=np.float64)
    names = [f"ch{i}" for i in range(values.shape[0])]
    return MultiSeries(names, values)


class TestContainers:
    def test_multiseries_validation(self):
        with pytest.raises(DataError):
            MultiSeries(["a"], np.zeros((2, 4)))
        with pytest.raises(DataError):
            MultiSeries(["a", "b"], np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(DataError, match="series values is not an array of numbers"):
            MultiSeries(["a"], [["x"]])

    @pytest.mark.parametrize("names,shape", [
        ([1, 2], (2, 3)), ("ab", (2, 3)), (["a,b", "c"], (2, 3)), (["a", "b\nc"], (2, 3)),
        (["a\rb", "c"], (2, 3)), ([" a", "b"], (2, 3)), (["a", "b\t"], (2, 3)),
        (["a", "b"], (2, 0)), ([], (0, 4)),
    ], ids=["int-names", "str-names", "comma", "newline", "carriage-return", "leading-space",
            "trailing-tab", "no-samples", "no-channels"])
    def test_a_series_that_would_not_load_back_is_refused(self, names, shape):
        """Each of these used to build, and ``save_signals`` then raised a
        bare error or wrote a file that ``load_signals`` refused or read
        back with other names."""
        with pytest.raises(DataError):
            MultiSeries(names, np.zeros(shape))

    def test_ranges_validation(self):
        AnomalyRanges(((0, 5), (5, 9)))  # touching is fine
        with pytest.raises(DataError):
            AnomalyRanges(((5, 5),))
        with pytest.raises(DataError):
            AnomalyRanges(((4, 10), (8, 12)))
        with pytest.raises(DataError):
            AnomalyRanges(((10, 20), (0, 5)))

    def test_ranges_overlap_and_complement(self):
        ranges = AnomalyRanges(((10, 20), (30, 35)))
        assert ranges.overlap(0, 10) == 0
        assert ranges.overlap(15, 32) == 7
        assert ranges.complement(40) == [(0, 10), (20, 30), (35, 40)]

    def test_fragment_validation(self):
        with pytest.raises(DataError):
            Fragment(np.zeros((2, 8)), 2, 0)
        with pytest.raises(DataError, match="fragment values is not an array of numbers"):
            Fragment([["x"]], 0, 0)

    @pytest.mark.parametrize("span", [("a", 3), (1.5, 3), (1, 3.0), (1, 2, 3), 5, (False, True), (0, True)])
    def test_range_bounds_must_be_an_integer_pair(self, span):
        with pytest.raises(DataError, match="pair of integers"):
            AnomalyRanges((span,))

    def test_numpy_integer_bounds_are_integers(self):
        ranges = AnomalyRanges(((np.int64(2), np.int32(7)),))
        assert ranges.spans == ((2, 7),) and type(ranges.spans[0][0]) is int


@pytest.mark.parametrize("build,error,message", [
    (lambda: ModelConfig(channels=8, conv=5), ConfigError, "conv must be a sequence of conv layers"),
    (lambda: AnomalyRanges(5), DataError, r"ranges must be a sequence of \(start, end\) pairs"),
    (lambda: make_fragments(series_of(np.zeros((1, 256))), None, window=64.0), ConfigError,
     "window must be an integer"),
    (lambda: make_fragments(series_of(np.zeros((1, 256))), None, window=64, pos_step=8.0), ConfigError,
     "pos_step must be an integer"),
    (lambda: make_fragments(series_of(np.zeros((1, 600))), [(0, 5)], window=64), DataError,
     "ranges must be an AnomalyRanges or None, got list"),
])
def test_config_of_the_wrong_type_is_a_package_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("value,kind", [("abc", "str"), ([[1.0, 2.0], [3.0]], "list"), (object(), "object")],
                         ids=["string", "ragged", "object"])
def test_as_floats_refuses_what_is_not_numbers_with_a_data_error(value, kind):
    """Every caller of ``as_floats`` is told of a bad value by a
    ``DataError`` that names what it was converting."""
    with pytest.raises(DataError, match=f"^the thing is not an array of numbers: got {kind}$"):
        as_floats(value, "the thing")


class TestCsv:
    def test_signals_roundtrip_bit_exact(self, tmp_path, rng):
        series = series_of(rng.normal(size=(2, 17)) * 1e-7)
        path = tmp_path / "s.csv"
        save_signals(path, series)
        loaded = load_signals(path)
        assert loaded.channel_names == series.channel_names
        assert np.array_equal(loaded.values, series.values)

    def test_names_with_inner_blanks_round_trip(self, tmp_path):
        series = MultiSeries(("wind speed", "a\tb", ""), np.arange(6.0).reshape(3, 2))
        path = tmp_path / "s.csv"
        save_signals(path, series)
        loaded = load_signals(path)
        assert loaded.channel_names == series.channel_names
        assert np.array_equal(loaded.values, series.values)

    def test_a_series_that_cannot_be_saved_leaves_the_file_intact(self, tmp_path):
        path = tmp_path / "s.csv"
        save_signals(path, series_of(np.ones((2, 3))))
        before = path.read_bytes()
        with pytest.raises(DataError, match="channel name"):
            save_signals(path, MultiSeries([1, 2], np.ones((2, 3))))
        assert path.read_bytes() == before

    def test_the_names_are_a_tuple_the_caller_cannot_change(self, tmp_path):
        path = tmp_path / "s.csv"
        save_signals(path, series_of(np.ones((2, 3))))
        names = ["a", "b"]
        series = MultiSeries(names, np.ones((2, 3)))
        names[0] = 5
        with pytest.raises(TypeError):
            series.channel_names[0] = 5
        save_signals(path, series)
        assert load_signals(path).channel_names == ("a", "b")

    def test_a_name_utf8_cannot_hold_leaves_the_file_intact(self, tmp_path):
        path = tmp_path / "s.csv"
        save_signals(path, series_of(np.ones((2, 3))))
        before = path.read_bytes()
        with pytest.raises(DataError, match="not UTF-8 text"):
            save_signals(path, MultiSeries(["a", "\udc80"], np.ones((2, 3))))
        assert path.read_bytes() == before

    def test_small_file_shape(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a,b\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n3,7.0,8.0\n")
        series = load_signals(path)
        assert series.values.shape == (2, 4)
        assert np.array_equal(series.values, [[1, 3, 5, 7], [2, 4, 6, 8]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a,b\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(IngestError, match="line 3"):
            load_signals(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n0,1.0\n1,oops\n")
        with pytest.raises(IngestError, match="line 3"):
            load_signals(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,a\n0,1.0\n1,nan\n")
        with pytest.raises(IngestError, match="line 3"):
            load_signals(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            load_signals(path)

    @pytest.mark.parametrize("blob", [b"t,\xff\n0,1.0\n", b"t,a\n0,1.0\n1,\xff\n"], ids=["header", "data-line"])
    def test_signals_that_are_not_utf8_name_the_file(self, tmp_path, blob):
        path = tmp_path / "s.csv"
        path.write_bytes(blob)
        with pytest.raises(IngestError, match=re.escape(f"{path}: not UTF-8 text")):
            load_signals(path)

    @pytest.mark.parametrize("text, error", [
        ("t,a,b\n\n", "no data rows"),
        ("time,a\n0,1.0\n", "line 1"),
        ("t,a\n0,1.0\n\n2,oops\n", "line 4"),  # a skipped blank line still counts
        ("t,a\n0,inf\n1,oops\n", "line 2: non-finite"),  # the first bad line wins
        ("t,a\n0,oops\n1,1,2\n", "line 2: non-numeric"),  # ... over a later column count
        ("t,a\n" + "".join(f"{i},{i}.5\n" + "\n" * (i in (299, 599, 899, 1199)) for i in range(1400))
         + "1400,oops\n", "line 1406"),  # blank lines counted across chunks
        ("t,a\n0," + "1" * 200_000 + "\n", "line 2"),  # longer than any csv field limit
    ], ids=["header-only", "bad-header", "blank-line-counted", "non-finite-first",
            "non-numeric-before-ragged", "blank-lines-across-chunks", "huge-cell"])
    def test_error_names_cause_and_line(self, tmp_path, text, error):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(IngestError, match=error):
            load_signals(path)

    @pytest.mark.parametrize("cell", ['"1.0"', "1_000"], ids=["quoted", "underscore"])
    def test_only_plain_floats_are_cells(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        path.write_text(f"t,a\n0,{cell}\n")
        with pytest.raises(IngestError, match="line 2: non-numeric cell"):
            load_signals(path)

    def test_roundtrip_across_chunks_with_blank_lines(self, tmp_path, rng):
        series = series_of(rng.normal(size=(3, 2 * _CHUNK_LINES + 100)))
        path = tmp_path / "s.csv"
        save_signals(path, series)
        lines = path.read_text().splitlines(keepends=True)
        # Blank lines just before and just after the last data line of the
        # first chunk (lines[0] is the header).
        lines[_CHUNK_LINES:_CHUNK_LINES] = ["\n"]
        lines[_CHUNK_LINES + 2 : _CHUNK_LINES + 2] = ["\n", "\n"]
        path.write_text("".join(lines))
        loaded = load_signals(path)
        assert np.array_equal(loaded.values, series.values)
        assert loaded.values.strides == (8, 24) and loaded.values.flags.writeable

    def test_save_signals_exact_bytes(self, tmp_path):
        path = tmp_path / "s.csv"
        save_signals(path, MultiSeries(["a", "b"], [[0.1, -2.0], [1e-07, 3.0]]))
        assert path.read_bytes() == b"t,a,b\n0,0.1,1e-07\n1,-2.0,3.0\n"

    def test_save_signals_checks_series_before_it_opens_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"keep\n")
        with pytest.raises(DataError, match="series must be a MultiSeries, got list"):
            save_signals(path, [[0.0]])
        assert path.read_bytes() == b"keep\n"

    def test_load_signals_streams_into_one_buffer(self, tmp_path):
        series = series_of(np.random.default_rng(5).normal(size=(4, 5000)))
        path = tmp_path / "s.csv"
        save_signals(path, series)
        tracemalloc.start()
        try:
            loaded = load_signals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-file list of rows or of parsed floats costs ~20x the array.
        assert peak < 3 * loaded.values.nbytes
        assert np.array_equal(loaded.values, series.values)
        # The same (C, T) view of a (T, C) C-order array as np.array(rows).T.
        assert loaded.values.strides == (8, 32)

    def test_ranges_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"\xff,9\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}: not UTF-8 text")):
            load_ranges(path)

    def test_ranges_file_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("100,200\n")
        ranges = load_ranges(path)
        assert ranges.spans == ((100, 200),)
        save_ranges(path, ranges)
        assert load_ranges(path).spans == ((100, 200),)

    @pytest.mark.parametrize("ranges", [[(50, 10)], [(10, 50)], ((10, 20), (15, 30))])
    def test_save_ranges_takes_only_checked_ranges(self, tmp_path, ranges):
        """A list of spans could be written as a file ``load_ranges`` then
        refuses; only an ``AnomalyRanges`` is written, and nothing is
        written before the check."""
        path = tmp_path / "r.csv"
        with pytest.raises(DataError, match="ranges must be"):
            save_ranges(path, ranges)
        assert not path.exists()

    @pytest.mark.parametrize("text,line,message", [
        ("100,200\n300,250\n", 2, "invalid range [300, 250)"),
        ("100,100\n", 1, "invalid range [100, 100)"),
        ("-5,10\n", 1, "invalid range [-5, 10)"),
        ("100,200\n\n150,300\n", 3, "range [150, 300) overlaps the one before it"),
        ("300,400\n100,200\n", 2, "range [100, 200) overlaps the one before it"),
    ], ids=["reversed", "empty", "negative", "overlapping", "unsorted"])
    def test_a_bad_range_names_its_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(IngestError, match=re.escape(f"{path} line {line}: {message}")):
            load_ranges(path)


class TestLabelBlock:
    """The label ``streaming._label`` gives a block of a stream."""

    def test_half_covered_is_anomalous(self):
        ranges = AnomalyRanges(((8, 100),))
        assert _label(0, 16, ranges) == 1

    def test_strict_minority_is_normal(self):
        ranges = AnomalyRanges(((9, 100),))
        assert _label(0, 16, ranges) == 0  # 7 of 16 covered

    def test_fully_inside_is_anomalous(self):
        ranges = AnomalyRanges(((0, 64),))
        assert _label(16, 32, ranges) == 1

    @given(st.integers(0, 50), st.integers(1, 50), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_range_growth(self, start, width, extra):
        base = AnomalyRanges(((10, 40),))
        grown = AnomalyRanges(((10, 40 + extra),))
        assert _label(start, start + width, base) <= _label(start, start + width, grown)


class TestMakeFragments:
    def worked_example(self):
        # one-hour window, 10-minute positive step, in units of one minute
        window, pos_step = 60, 10
        total = 10 * 60
        ranges = AnomalyRanges(((8 * 60, 10 * 60),))
        series = series_of(np.zeros((1, total)))
        return make_fragments(series, ranges, window=window, pos_step=pos_step)

    def test_worked_example_counts(self):
        fragments = self.worked_example()
        assert sum(1 for f in fragments if f.label == 0) == 8
        assert sum(1 for f in fragments if f.label == 1) == 7

    def test_worked_example_offsets(self):
        fragments = self.worked_example()
        pos = [f.origin_offset for f in fragments if f.label == 1]
        assert pos == [480 + 10 * k for k in range(7)]

    def test_region_shorter_than_window_gives_no_positives(self):
        series = series_of(np.zeros((1, 1024)))
        ranges = AnomalyRanges(((100, 500),))
        fragments = make_fragments(series, ranges, window=512, pos_step=16)
        assert all(f.label == 0 for f in fragments)

    def test_all_normal_1024_gives_two_negatives(self):
        series = series_of(np.zeros((1, 1024)))
        fragments = make_fragments(series, None, window=512)
        assert len(fragments) == 2
        assert [f.origin_offset for f in fragments] == [0, 512]

    def test_no_fragment_crosses_boundary_with_wrong_label(self):
        series = series_of(np.arange(2048.0)[None, :])
        ranges = AnomalyRanges(((600, 1200),))
        for f in make_fragments(series, ranges, window=128, pos_step=32):
            lo, hi = f.origin_offset, f.origin_offset + 128
            if f.label == 1:
                assert lo >= 600 and hi <= 1200
            else:
                assert hi <= 600 or lo >= 1200

    def test_negatives_disjoint_positives_overlap_by_window_minus_step(self):
        series = series_of(np.zeros((1, 4096)))
        ranges = AnomalyRanges(((1024, 2048),))
        fragments = make_fragments(series, ranges, window=512, pos_step=16)
        negs = sorted(f.origin_offset for f in fragments if f.label == 0)
        for a, b in zip(negs, negs[1:]):
            assert b - a >= 512
        pos = sorted(f.origin_offset for f in fragments if f.label == 1)
        for a, b in zip(pos, pos[1:]):
            assert b - a == 16  # consecutive positives overlap by window - step

    def test_window_longer_than_series(self):
        with pytest.raises(DataError):
            make_fragments(series_of(np.zeros((1, 100))), None, window=512)

    def test_bad_steps(self):
        series = series_of(np.zeros((1, 1024)))
        with pytest.raises(ConfigError):
            make_fragments(series, None, window=128, pos_step=0)
        with pytest.raises(ConfigError):
            make_fragments(series, None, window=128, pos_step=256)
