import numpy as np
import pytest

from wavedetect.data import AnomalyRanges, MultiSeries
from wavedetect.errors import ConfigError, ContractError, DataError, ShapeError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.streaming import (
    SWEEP_THRESHOLDS,
    VoteConfig,
    VoteState,
    simulate,
    sweep,
    vote_decide,
    window_predictions,
)
from wavedetect.training import Detector, score_fragment

CFG = VoteConfig(window=64, step=16, vote_threshold=0.5)


def make_detector(seed=0, threshold=None):
    """Untrained reconstruction detector over 64-sample windows; cheap but
    input-sensitive, which is all the voting engine needs."""
    model_cfg = ModelConfig(channels=2, fragment_length=64, levels=1,
                            conv=(ConvLayer(4, 4, 2),), hidden=3, seed=seed)
    model = WaveletAutoencoder(model_cfg)
    det = Detector(model=model, mode="semi", threshold=1.0,
                   train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
    if threshold is None:
        # median score over a probe stream makes the votes land mixed
        probe = np.random.default_rng(99).normal(size=(2, 64 * 8))
        scores = [score_fragment(det, probe[:, s:s + 64]) for s in range(0, 64 * 7, 16)]
        threshold = float(np.median(scores))
    det.threshold = threshold
    return det


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


class TestVoteDecide:
    def test_majority(self):
        assert vote_decide(20, 32, 0.5) == 1

    def test_below_threshold(self):
        assert vote_decide(20, 32, 0.7) == 0

    def test_tie_counts_as_positive(self):
        assert vote_decide(16, 32, 0.5) == 1
        assert vote_decide(3, 10, 0.3) == 1

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            vote_decide(0, 0, 0.5)
        with pytest.raises(ContractError):
            vote_decide(5, 4, 0.5)


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
        assert all(v.total == full for v in seen)

    def test_preliminary_uses_votes_so_far(self):
        state = VoteState(make_detector(), CFG)
        series = make_series(3)
        for i in range(CFG.votes_per_block):
            _, prelims = state.push_block(series.values[:, i * 16:(i + 1) * 16])
        assert all(1 <= v.total <= CFG.votes_per_block for v in prelims)
        for v in prelims:
            assert v.verdict == vote_decide(v.positive, v.total, CFG.vote_threshold)


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
        detector = make_detector(threshold=-1.0)
        series = make_series(6)
        ranges = AnomalyRanges(((64, 320),))
        for tau in (0.1, 0.5, 0.9):
            cfg = VoteConfig(window=64, step=16, vote_threshold=tau)
            _, report = simulate(series, ranges, detector, cfg)
            assert report.recall == 1.0

    def test_too_short_series(self):
        with pytest.raises(DataError):
            simulate(make_series(1, length=48), AnomalyRanges(), make_detector(), CFG)

    def test_monotone_shrinkage_in_vote_threshold(self):
        detector = make_detector()
        series = make_series(7)
        preds, n_blocks = window_predictions(series, detector, CFG)
        previous = None
        for tau in SWEEP_THRESHOLDS:
            cfg = VoteConfig(window=64, step=16, vote_threshold=tau)
            rows, _ = simulate(series, AnomalyRanges(), detector, cfg)
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
