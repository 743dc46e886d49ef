from dataclasses import replace

import numpy as np
import pytest

from wavedetect.data import AnomalyRanges, MultiSeries, make_fragments
from wavedetect.errors import ConfigError, DataError, ShapeError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.streaming import (
    SWEEP_THRESHOLDS,
    VoteConfig,
    VoteState,
    _blocks,
    _decide,
    _report,
    simulate,
    sweep,
)
from wavedetect.training import Detector, score_windows

CFG = VoteConfig(window=64, step=16, vote_threshold=0.5)


def make_detector(seed=0, threshold=None):
    """Untrained reconstruction detector over 64-sample windows; cheap but
    input-sensitive, which is all the voting engine needs."""
    model_cfg = ModelConfig(channels=2, fragment_length=64, levels=1,
                            conv=(ConvLayer(4, 4, 2),), hidden=3, seed=seed)
    model = WaveletAutoencoder(model_cfg)
    det = Detector(model=model, threshold=1.0,
                   train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
    if threshold is None:
        # median score over a probe stream makes the votes land mixed
        probe = np.random.default_rng(99).normal(size=(2, 64 * 8))
        scores = score_windows(det, [probe[:, s:s + 64] for s in range(0, 64 * 7, 16)])
        threshold = float(np.median(scores))
    return replace(det, threshold=threshold)


def make_series(seed, length=640):
    rng = np.random.default_rng(seed)
    return MultiSeries(["a", "b"], rng.normal(size=(2, length)))


class TestVoteConfig:
    def test_defaults(self):
        cfg = VoteConfig()
        assert cfg.votes_per_block == 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            VoteConfig(window=100, step=16)
        with pytest.raises(ConfigError):
            VoteConfig(window=32, step=16)  # only 2 votes per block
        with pytest.raises(ConfigError):
            VoteConfig(vote_threshold=0.0)
        with pytest.raises(ConfigError):
            VoteConfig(vote_threshold=1.5)
        with pytest.raises(ConfigError, match="window must be an integer"):
            VoteConfig(window=64.0, step=16)
        with pytest.raises(ConfigError, match="step must be an integer"):
            VoteConfig(window=64, step=16.0)


class TestVoteDecide:
    def test_majority(self):
        assert _decide(20, 32, 0.5) == 1

    def test_below_threshold(self):
        assert _decide(20, 32, 0.7) == 0

    def test_tie_counts_as_positive(self):
        assert _decide(16, 32, 0.5) == 1
        assert _decide(3, 10, 0.3) == 1


class TestVoteState:
    def test_rejects_mismatched_window(self):
        with pytest.raises(ConfigError):
            VoteState(make_detector(), VoteConfig(window=128, step=16))

    def test_rejects_wrong_block_width(self):
        state = VoteState(make_detector(), CFG)
        with pytest.raises(ShapeError):
            state.push_block(np.zeros((2, 8)))
        with pytest.raises(ShapeError):
            state.push_block(np.zeros((3, 16)))

    def test_no_finals_before_first_full_window(self):
        state = VoteState(make_detector(), CFG)
        series = make_series(1)
        full = CFG.votes_per_block
        for i in range(full):
            finals, prelims = state.push_block(series.values[:, i * 16:(i + 1) * 16])
            assert finals == []
        # the first window exists now, so in-window blocks hold preliminary verdicts
        assert len(prelims) == full

    def test_finalization_order_and_vote_counts(self):
        state = VoteState(make_detector(), CFG)
        series = make_series(2)
        full = CFG.votes_per_block
        seen = []
        n_blocks = series.length // 16
        for i in range(n_blocks):
            finals, _ = state.push_block(series.values[:, i * 16:(i + 1) * 16])
            if i + 1 < 2 * full - 1:
                assert finals == []
            seen.extend(finals)
        # first finalizable block is full-1; the last full-1 blocks stay pending
        assert [v.index for v in seen] == list(range(full - 1, n_blocks - full + 1))
        assert all(v.total == full and v.final and v.label is None for v in seen)

    def test_preliminary_blocks_lie_in_the_newest_window(self):
        state = VoteState(make_detector(), CFG)
        series = make_series(4)
        full = CFG.votes_per_block
        for i in range(series.length // 16):
            finals, prelims = state.push_block(series.values[:, i * 16:(i + 1) * 16])
            newest = range(max(i - full + 1, 0), i + 1)
            assert all(v.index in newest for v in prelims), (i, [v.index for v in prelims])
            if i >= full - 1:
                # each block of the newest window is reported once, final or not
                assert sorted(v.index for v in finals + prelims) == list(newest)

    def test_preliminary_uses_votes_so_far(self):
        state = VoteState(make_detector(), CFG)
        series = make_series(3)
        for i in range(CFG.votes_per_block):
            _, prelims = state.push_block(series.values[:, i * 16:(i + 1) * 16])
        assert all(1 <= v.total <= CFG.votes_per_block and not v.final and v.label is None for v in prelims)
        for v in prelims:
            assert v.verdict == _decide(v.positive, v.total, CFG.vote_threshold)

    def test_a_reused_block_buffer_gives_the_verdicts_of_fresh_arrays(self):
        """A caller that reads every block into one buffer: the state keeps
        a copy of each block, not the caller's array."""
        series, det = make_series(5), make_detector()
        fresh, reused = VoteState(det, CFG), VoteState(det, CFG)
        buffer = np.empty((2, CFG.step))
        for i in range(series.length // CFG.step):
            block = series.values[:, i * CFG.step:(i + 1) * CFG.step]
            buffer[...] = block
            assert reused.push_block(buffer) == fresh.push_block(block.copy())


class TestSimulate:
    def test_stream_and_batch_agree(self):
        detector = make_detector()
        series = make_series(11)
        ranges = AnomalyRanges(((100, 300),))
        rows, _ = simulate(series, ranges, detector, CFG)

        state = VoteState(detector, CFG)
        streamed = []
        for i in range(series.length // CFG.step):
            finals, _ = state.push_block(series.values[:, i * CFG.step:(i + 1) * CFG.step])
            streamed.extend(finals)
        batch_final = {r.index: r for r in rows if r.final}
        assert len(streamed) == len(batch_final)
        for verdict in streamed:
            row = batch_final[verdict.index]
            assert (verdict.verdict, verdict.positive, verdict.total) == (row.verdict, row.positive, row.total)

    def test_row_set_and_finalized_window(self):
        detector = make_detector()
        series = make_series(5)
        rows, report = simulate(series, AnomalyRanges(((0, 160),)), detector, CFG)
        n_blocks = series.length // CFG.step
        full = CFG.votes_per_block
        assert len(rows) == n_blocks
        finals = [r for r in rows if r.final]
        assert [r.index for r in finals] == list(range(full - 1, n_blocks - full + 1))
        assert all(r.total == full for r in finals)
        assert report.total == len(finals)

    def test_always_positive_detector_has_full_recall(self):
        detector = make_detector(threshold=5e-324)  # the least threshold a Detector accepts
        series = make_series(6)
        ranges = AnomalyRanges(((64, 320),))
        for tau in (0.1, 0.5, 0.9):
            cfg = VoteConfig(window=64, step=16, vote_threshold=tau)
            _, report = simulate(series, ranges, detector, cfg)
            assert report.recall == 1.0

    def test_too_short_series(self):
        with pytest.raises(DataError):
            simulate(make_series(1, length=48), AnomalyRanges(), make_detector(), CFG)

    @pytest.mark.parametrize("run", [simulate, sweep])
    def test_a_stream_with_no_final_block_names_the_shortest_one_that_has_one(self, run):
        """One 64-sample window makes 4 blocks and none of them final; a
        final block needs all 4 votes, so 7 blocks are the fewest that
        finalize one. The error used to be the metrics' empty-set error."""
        detector = make_detector()
        with pytest.raises(DataError, match=r"^none of the stream's 4 blocks is final: a final block needs all "
                                            r"votes_per_block = 4 votes, so the shortest stream with one has 7 "
                                            r"blocks$"):
            run(make_series(1, length=64), AnomalyRanges(), detector, CFG)
        run(make_series(1, length=7 * CFG.step), AnomalyRanges(), detector, CFG)

    @pytest.mark.parametrize("run", [simulate, sweep])
    def test_ranges_past_the_stream_end_are_rejected(self, run):
        """The ranges ``make_fragments`` would reject: the last one ends
        past the 640-sample stream."""
        detector, series = make_detector(), make_series(9)
        with pytest.raises(DataError, match=r"range \(600, 5000\) exceeds series length 640"):
            run(series, AnomalyRanges(((100, 200), (600, 5000))), detector, CFG)
        run(series, AnomalyRanges(((100, 200), (600, 640))), detector, CFG)

    def test_monotone_shrinkage_in_vote_threshold(self):
        # Score the stream once; simulate reports each threshold from this tally.
        blocks = _blocks(make_series(7), AnomalyRanges(), make_detector(), CFG)
        previous = None
        for tau in SWEEP_THRESHOLDS:
            rows, _ = _report(blocks, CFG, tau)
            positive = {r.index for r in rows if r.final and r.verdict == 1}
            if previous is not None:
                assert positive <= previous
            previous = positive

    def test_sweep_emits_nine_rows(self):
        detector = make_detector()
        series = make_series(8)
        results = sweep(series, AnomalyRanges(((100, 260),)), detector, CFG)
        assert [tau for tau, _ in results] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        recalls = [report.recall for _, report in results]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        for tau, report in results:
            cfg = VoteConfig(window=64, step=16, vote_threshold=tau)
            assert simulate(series, AnomalyRanges(((100, 260),)), detector, cfg)[1] == report


@pytest.mark.parametrize("call", [
    lambda det, cfg: VoteState(det, cfg),
    lambda det, cfg: simulate(make_series(1), AnomalyRanges(), det, cfg),
    lambda det, cfg: sweep(make_series(1), AnomalyRanges(), det, cfg),
], ids=["VoteState", "simulate", "sweep"])
def test_a_vote_window_other_than_the_fragment_length_is_one_config_error(call):
    with pytest.raises(ConfigError, match="^vote window 128 does not match the detector's fragment length 64$"):
        call(make_detector(threshold=1.0), VoteConfig(window=128, step=16))


# Each call hands a public function one series, ranges, detector or config
# of the wrong type; before the shared type check each raised a bare
# ``AttributeError`` at its first attribute read.
_WRONG_TYPES = {
    "make_fragments-series": (lambda: make_fragments([[0.0] * 600], None, window=64),
                              DataError, "series must be a MultiSeries, got list"),
    "simulate-ranges": (lambda: simulate(make_series(1), [(0, 5)], make_detector(), CFG),
                        DataError, "ranges must be an AnomalyRanges, got list"),
    "sweep-ranges": (lambda: sweep(make_series(1), [(0, 5)], make_detector(), CFG),
                     DataError, "ranges must be an AnomalyRanges, got list"),
    "simulate-series": (lambda: simulate(make_series(1).values, AnomalyRanges(), make_detector(), CFG),
                        DataError, "series must be a MultiSeries, got ndarray"),
    "simulate-detector": (lambda: simulate(make_series(1), AnomalyRanges(), None, CFG),
                          ConfigError, "detector must be a Detector, got NoneType"),
    "VoteState-detector": (lambda: VoteState(None, VoteConfig()),
                           ConfigError, "detector must be a Detector, got NoneType"),
    "VoteState-cfg": (lambda: VoteState(make_detector(), None),
                      ConfigError, "cfg must be a VoteConfig, got NoneType"),
}


@pytest.mark.parametrize("name", list(_WRONG_TYPES))
def test_an_argument_of_the_wrong_type_is_a_package_error(name):
    call, error, message = _WRONG_TYPES[name]
    with pytest.raises(error, match=message):
        call()
