import numpy as np
import pytest

import wavedetect.training as training
from wavedetect.data import AnomalyRanges, Fragment, MultiSeries
from wavedetect.errors import ConfigError, DataError
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


def _model(mode):
    return ModelConfig(channels=2, fragment_length=64, levels=1, conv=(ConvLayer(4, 4, 2),),
                       hidden=3, classifier=mode == "supervised", seed=1)


@pytest.fixture(scope="module", params=["semi", "supervised"])
def detector(request):
    mode = request.param
    model = _model(mode)
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


class TestTrainRejectsBadInput:
    @pytest.mark.parametrize("mode,fragments,message", [
        ("semi", [], "non-empty"),
        ("semi", _fragments(20, 2) + [Fragment(np.zeros((2, 32)), 0, 0)], r"window 2 has shape \(2, 32\)"),
        ("semi", _fragments(21, 2) + _fragments(22, 1, label=1), "fragment 2 is labeled anomalous"),
        ("supervised", _fragments(23, 2) + [_series(24, 64)], "fragment 2 is missing a 0/1 label"),
    ])
    def test_fragments(self, mode, fragments, message):
        with pytest.raises(DataError, match=message):
            train(fragments, TrainConfig(model=_model(mode), mode=mode, epochs=1))

    def test_non_finite_fragment(self):
        fragments = _fragments(25, 3)
        fragments[1].values[0, 5] = np.inf
        with pytest.raises(DataError, match="window 1 holds a non-finite value"):
            train(fragments, TrainConfig(model=_model("semi"), epochs=1))

    def test_supervised_needs_a_classifier_head(self):
        with pytest.raises(ConfigError, match="classifier"):
            train(_fragments(26, 2), TrainConfig(model=_model("semi"), mode="supervised", epochs=1))


def test_diverging_training_stops_and_names_the_epoch(monkeypatch):
    real = training.reconstruction_loss
    epochs = []

    def diverging(targets, reconstructions):
        loss = real(targets, reconstructions)
        return loss * (float("nan") if len(epochs) == 1 else 1.0)

    monkeypatch.setattr(training, "reconstruction_loss", diverging)
    cfg = TrainConfig(model=_model("semi"), epochs=3, seed=4)
    with pytest.raises(DataError, match="epoch 2 has mean loss nan"):
        train(_fragments(27, 2), cfg, progress=lambda epoch, loss: epochs.append(loss))
    assert len(epochs) == 1 and np.isfinite(epochs[0])
