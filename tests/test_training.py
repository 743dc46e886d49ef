import numpy as np
import pytest

from wavedetect.data import AnomalyRanges, Fragment, MultiSeries
from wavedetect.errors import DataError
from wavedetect.model import ConvLayer, ModelConfig
from wavedetect.serialize import load_detector, save_detector
from wavedetect.streaming import VoteConfig, VoteState, simulate, window_predictions
from wavedetect.training import (
    _SCORE_CHUNK,
    TrainConfig,
    evaluate_fragments,
    predict_fragment,
    score_windows,
    train,
)

VOTE = VoteConfig(window=64, step=16)


def _series(seed, length):
    t = np.arange(length)
    rng = np.random.default_rng(seed)
    base = np.stack([np.sin(t / 9.0), np.cos(t / 13.0)])
    return base + 0.1 * rng.normal(size=(2, length))


def _fragments(seed, count, label=0):
    values = _series(seed, 64 * count)
    return [Fragment(values[:, 64 * i : 64 * (i + 1)], label, 64 * i) for i in range(count)]


@pytest.fixture(scope="module", params=["semi", "supervised"])
def detector(request):
    mode = request.param
    model = ModelConfig(channels=2, fragment_length=64, levels=1, conv=(ConvLayer(4, 4, 2),),
                        hidden=3, classifier=mode == "supervised", seed=1)
    fragments = _fragments(2, 6)
    if mode == "supervised":
        spiky = _fragments(3, 3, label=1)
        for f in spiky:
            f.values[:, 20:30] += 3.0
        fragments += spiky
    return train(fragments, TrainConfig(model=model, mode=mode, epochs=1, seed=4))


class TestNonFiniteInputIsRejected:
    def test_predict_fragment(self, detector):
        window = _series(5, 64)
        window[1, 10] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            predict_fragment(detector, window)

    def test_window_predictions(self, detector):
        values = _series(6, 64 * 4)
        values[0, 200] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            window_predictions(MultiSeries(["a", "b"], values), detector, VOTE)

    def test_evaluate_fragments(self, detector):
        fragments = _fragments(7, 3)
        fragments[2].values[0, 0] = np.nan
        with pytest.raises(DataError, match="window 2 holds a non-finite value"):
            evaluate_fragments(detector, fragments)

    def test_push_block_leaves_the_state_unchanged(self, detector):
        values = _series(8, 64 * 3)
        state = VoteState(detector, VOTE)
        for i in range(5):
            state.push_block(values[:, 16 * i : 16 * (i + 1)])
        buffered, pending = list(state._buffer), dict(state._pending)
        bad = values[:, 80:96].copy()
        bad[1, 3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            state.push_block(bad)
        assert [b is a for a, b in zip(buffered, state._buffer)] == [True] * len(buffered)
        assert dict(state._pending) == pending and state._next_index == 5
        finals, _ = state.push_block(values[:, 80:96])
        assert finals == [] and state._next_index == 6


def test_reloaded_detector_scores_bit_identically(detector, tmp_path):
    path = tmp_path / "d.wdc"
    save_detector(detector, path)
    loaded = load_detector(path)
    assert loaded.threshold == detector.threshold
    assert loaded.train_loss_mean == detector.train_loss_mean
    windows = np.stack([_series(seed, 64) for seed in range(10, 16)])
    assert np.array_equal(score_windows(loaded, windows), score_windows(detector, windows))


class TestBatchScoringEquivalence:
    def test_window_predictions_match_per_window_prediction(self, detector):
        assert _SCORE_CHUNK >= 2
        n_windows = 3 * _SCORE_CHUNK - 1  # three chunks, the last one partial
        blocks = n_windows + VOTE.votes_per_block - 1
        values = _series(9, blocks * VOTE.step)
        preds, n_blocks = window_predictions(MultiSeries(["a", "b"], values), detector, VOTE)
        assert len(preds) == n_windows and n_blocks == blocks
        windows = [values[:, VOTE.step * k : VOTE.step * k + VOTE.window] for k in range(n_windows)]
        batch = score_windows(detector, np.stack(windows))
        for k, window in enumerate(windows):
            vote, score = predict_fragment(detector, window)
            assert preds[k + VOTE.votes_per_block - 1] == vote
            assert abs(batch[k] - score) <= 1e-12 * abs(score)

    def test_online_verdicts_equal_simulate(self, detector):
        values = _series(10, 640)
        series = MultiSeries(["a", "b"], values)
        rows, _ = simulate(series, AnomalyRanges(((100, 300),)), detector, VOTE)
        state = VoteState(detector, VOTE)
        for i in range(series.length // VOTE.step):
            state.push_block(values[:, VOTE.step * i : VOTE.step * (i + 1)])
        assert [(v.index, v.verdict, v.positive, v.total) for v in state.finalized] == [
            (r.index, r.verdict, r.positive, r.total) for r in rows if r.final
        ]
