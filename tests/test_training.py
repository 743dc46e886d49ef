import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wavedetect.training as training
from wavedetect.data import AnomalyRanges, Fragment, MultiSeries
from wavedetect.errors import ConfigError, DataError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder
from wavedetect.nn import reconstruction_loss
from wavedetect.optim import Adam
from wavedetect.serialize import load_detector, save_detector
from wavedetect.metrics import compute_metrics
from wavedetect.streaming import VoteConfig, VoteState, simulate, sweep, window_predictions
from wavedetect.synth import GeneratorConfig
from wavedetect.training import (
    _SCORE_CHUNK,
    Detector,
    TrainConfig,
    evaluate_fragments,
    score_windows,
    train,
)

from conftest import mul

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
    def test_score_windows(self, detector):
        window = _series(5, 64)
        window[1, 10] = np.nan
        with pytest.raises(DataError, match="window 0 holds a non-finite value"):
            score_windows(detector, window[None])

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
        buffered, votes = list(state._buffer), list(state._votes)
        bad = values[:, 80:96].copy()
        bad[1, 3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            state.push_block(bad)
        assert [b is a for a, b in zip(buffered, state._buffer)] == [True] * len(buffered)
        assert list(state._votes) == votes and state._pushed == 5
        finals, _ = state.push_block(values[:, 80:96])
        assert finals == [] and state._pushed == 6


class TestWindowsTooLargeForFloat32:
    """A detector scores in float32. A window that z-scores past float32's
    largest value, 3.4e38, would cast to infinity and score NaN, which no
    cut flags: every scoring path refuses it with ``DataError`` naming the
    window, or for ``push_block`` the block, and a refused block leaves the
    stream's state unchanged; so do 1.7e308, whose z-score overflows float64
    itself (the detectors' stds are below 1). A window that fits scores as
    any other: at 1e37 (about 1.4e37 once z-scored) a semi detector flags
    it."""

    @pytest.mark.parametrize("value", [1e40, 1e300, 1.7e308])
    def test_score_windows(self, detector, value):
        windows = np.stack([_series(seed, 64) for seed in (5, 6, 7)])
        windows[2, 1, 10] = value
        with pytest.raises(DataError, match="window 2 is too large to score in float32"):
            score_windows(detector, windows)

    @pytest.mark.parametrize("value", [1e40, 1e300, 1.7e308])
    def test_evaluate_fragments(self, detector, value):
        fragments = _fragments(7, 3)
        fragments[2].values[0, 0] = -value
        with pytest.raises(DataError, match="window 2 is too large to score in float32"):
            evaluate_fragments(detector, fragments)

    @pytest.mark.parametrize("run", [simulate, sweep])
    @pytest.mark.parametrize("value", [1e40, 1e300, 1.7e308])
    def test_simulate_and_sweep(self, detector, run, value):
        """Sample 200 lies in windows 9 to 12, which start at 144 to 192."""
        values = _series(6, 64 * 4)
        values[0, 200] = value
        with pytest.raises(DataError, match="window 9 is too large to score in float32"):
            run(MultiSeries(["a", "b"], values), AnomalyRanges(()), detector, VOTE)

    @pytest.mark.parametrize("blocks", [1, 5], ids=["filling", "full"])
    @pytest.mark.parametrize("value", [1e40, 1e300, 1.7e308])
    def test_push_block_leaves_the_state_unchanged(self, detector, blocks, value):
        """Refused whether or not the block completes a window: a buffered
        block too large to score would make every later window fail."""
        values = _series(8, 64 * 3)
        state = VoteState(detector, VOTE)
        for i in range(blocks):
            state.push_block(values[:, 16 * i : 16 * (i + 1)])
        buffered, votes = list(state._buffer), list(state._votes)
        bad = values[:, 16 * blocks : 16 * (blocks + 1)].copy()
        bad[1, 3] = value
        with pytest.raises(DataError, match=f"block {blocks} is too large to score in float32"):
            state.push_block(bad)
        assert [b is a for a, b in zip(buffered, state._buffer)] == [True] * len(buffered)
        assert len(state._buffer) == len(buffered)
        assert list(state._votes) == votes and state._pushed == blocks
        state.push_block(values[:, 16 * blocks : 16 * (blocks + 1)])
        assert state._pushed == blocks + 1

    def test_a_window_that_overflows_a_layer_is_refused_too(self):
        """Scale inputs that fit float32 can still overflow a layer: all-ones
        conv kernels sum a window of 1e38 to 8e38. The NaN score that
        follows is refused on every path, and a refused block leaves the
        state unchanged."""
        model = WaveletAutoencoder(_model("semi"))
        model.branches[0].conv[0][0].data[...] = 1.0
        det = Detector(model=model, threshold=1.0, train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
        values = _series(9, 64 * 3)
        values[:, 64:128] = 1e38
        with pytest.raises(DataError, match="window 1 is too large to score in float32"):
            score_windows(det, [values[:, :64], values[:, 64:128]])
        with pytest.raises(DataError, match="window 1 is too large to score in float32"):
            simulate(MultiSeries(["a", "b"], values), AnomalyRanges(()), det, VOTE)
        state = VoteState(det, VOTE)
        for i in range(4, 7):
            state.push_block(values[:, 16 * i : 16 * (i + 1)])
        with pytest.raises(DataError, match="block 3 completes a window too large to score in float32"):
            state.push_block(values[:, 112:128])
        assert len(state._buffer) == 3 and state._pushed == 3 and not state._votes

    def test_a_window_past_float32_is_refused_before_the_cast(self):
        """Cast to float32, a value past its largest becomes an infinity.
        Through all-positive weights the head maps that to a finite
        probability, as if the window were merely saturated; only the check
        before the cast refuses it."""
        model = WaveletAutoencoder(_model("supervised"))
        for p in model.parameters():
            np.abs(p.data, out=p.data)
        det = Detector(model=model, threshold=None, train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
        window = _series(12, 64)
        window[0, 5] = 1e40
        with pytest.raises(DataError, match="window 0 is too large to score in float32"):
            score_windows(det, window[None])

    def test_a_window_that_fits_scores_and_a_semi_detector_flags_it(self, detector):
        values = _series(11, 64 * 4)
        values[0, 200] = 1e37
        windows = np.stack([values[:, 16 * k : 16 * k + 64] for k in range(13)])
        scores = score_windows(detector, windows)
        assert np.isfinite(scores).all()
        flagged = [int(score >= detector.cut) for score in scores]
        series = MultiSeries(["a", "b"], values)
        assert window_predictions(series, detector, VOTE)[0] == flagged
        fragments = [Fragment(windows[k], int(k >= 9), 0) for k in range(13)]
        assert evaluate_fragments(detector, fragments) == compute_metrics(flagged, [f.label for f in fragments])
        rows, _ = simulate(series, AnomalyRanges(()), detector, VOTE)
        state = VoteState(detector, VOTE)
        for i in range(series.length // VOTE.step):
            state.push_block(values[:, VOTE.step * i : VOTE.step * (i + 1)])
        assert state.finalized == [replace(r, label=None) for r in rows if r.final]
        if detector.mode == "semi":
            assert flagged[9:] == [1] * 4 and scores[9:].min() > 1e70


class TestScoringRejectsItemsThatAreNotNumbers:
    @pytest.mark.parametrize("items,message", [
        ([_series(5, 64), "x"], "window 1 is not an array of numbers: got str"),
        ([object()], "window 0 is not an array of numbers: got object"),
        ([[[1.0, 2.0], [3.0]]], "window 0 is not an array of numbers: got list"),
        (np.full((1, 2, 64), "x"), "the batch of windows is not an array of numbers"),
        (5, "expected an array or a sequence of windows, got int"),
        (None, "expected an array or a sequence of windows, got NoneType"),
    ])
    def test_score_windows(self, detector, items, message):
        with pytest.raises(DataError, match=message):
            score_windows(detector, items)

    def test_push_block(self, detector):
        state = VoteState(detector, VOTE)
        state.push_block(_series(5, 16))
        with pytest.raises(DataError, match="block 1 is not an array of numbers: got str"):
            state.push_block("abc")
        assert state._pushed == 1

    def test_evaluate_fragments_needs_a_label(self, detector):
        with pytest.raises(DataError, match="fragment 1 is missing a 0/1 label"):
            evaluate_fragments(detector, [_fragments(5, 1)[0], _series(5, 64)])

    @pytest.mark.parametrize("items,message", [
        ([], "non-empty"),
        ([SimpleNamespace(values=_series(5, 64), label=2)], "fragment 0 is missing a 0/1 label"),
        ([_fragments(5, 1)[0], SimpleNamespace(values=_series(6, 64), label=0.5)],
         "fragment 1 is missing a 0/1 label"),
    ], ids=["empty", "label-2", "label-half"])
    def test_evaluate_fragments_hands_compute_metrics_a_non_empty_0_1_set(self, detector, items, message):
        """``compute_metrics`` checks nothing, so its caller refuses an empty
        set and any label but 0 or 1 before it scores."""
        with pytest.raises(DataError, match=message):
            evaluate_fragments(detector, items)


def test_each_public_call_checks_its_windows_once(detector, monkeypatch):
    """``evaluate_fragments`` checks its windows once, and
    ``VoteState.push_block`` checks each block and not the window the
    blocks make; both score what they checked, as ``score_windows`` would."""
    checked = []
    check = training._checked_windows
    monkeypatch.setattr(training, "_checked_windows", lambda *args: checked.append(1) or check(*args))
    labeled = _fragments(32, 2) + _fragments(33, 2, label=1)
    report = evaluate_fragments(detector, labeled)
    assert len(checked) == 1
    values = _series(34, 64 + 16)
    state = VoteState(detector, VOTE)
    pushed = [state.push_block(values[:, i : i + 16]) for i in range(0, 80, 16)]
    assert len(checked) == 1
    want = score_windows(detector, [values[:, :64], values[:, 16:80]])
    # A window's last block has the vote of that window alone.
    assert [rows[-1].positive for _, rows in pushed[3:]] == [int(s >= detector.cut) for s in want]
    assert report == evaluate_fragments(detector, iter(labeled))


def test_scoring_memory_per_window_is_a_few_scale_inputs():
    """One full chunk of default 8-channel windows, scored by a detector,
    whose model records no graph, peaks at fewer than 8 times the bytes of
    a window's scale inputs (the signal and its 3 detail levels, 61 KB). An
    extra copy of every conv activation, or a previous chunk's activations
    kept alive, would cost more than that."""
    cfg = ModelConfig(channels=8)
    model = WaveletAutoencoder(cfg)
    det = Detector(model=model, threshold=1.0, train_loss_mean=1.0,
                   norm_mean=np.zeros(8), norm_std=np.ones(8))
    windows = np.random.default_rng(6).normal(size=(2 * _SCORE_CHUNK, 8, 512))
    score_windows(det, windows[:1])
    tracemalloc.start()
    try:
        score_windows(det, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scale_input_bytes = 8 * sum(cfg.fragment_length >> s for s in range(cfg.levels + 1)) * 8
    assert peak / _SCORE_CHUNK <= 8 * scale_input_bytes


def test_training_step_memory_is_a_few_parameter_sets():
    """One default 8-channel training step on a batch of one (forward,
    backward and Adam), measured once the model and its optimizer exist,
    peaks at no more than 1.7 times the bytes of the model's parameters.
    The peak holds the parameters' grads and whatever of the graph is still
    alive; a graph kept whole through the backward walk, a layer saving a
    second copy of its input, a ReLU node keeping its pre-activation, or a
    padded copy of the conv activations for the decoder, costs more than
    that (1.84 times with the last two)."""
    cfg = ModelConfig(channels=8)
    model = WaveletAutoencoder(cfg)
    optimizer = Adam(model.parameters())
    windows = np.random.default_rng(7).normal(size=(1, 8, 512))
    inputs = training._scale_inputs(windows, cfg, np.zeros(8), np.ones(8))
    tracemalloc.start()
    try:
        training._step(model, optimizer, inputs, None, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * sum(p.data.nbytes for p in model.parameters())


def test_training_steps_record_while_other_threads_score():
    """Two threads score a detector in a loop while this one takes training
    steps for about a second, with the interpreter switching threads every
    10 us: scoring turns no recording off that a step needs, so every step's
    backward succeeds and gives every parameter a gradient, and every score
    repeats."""
    cfg = ModelConfig(channels=2, fragment_length=32, levels=1, conv=((4, 4, 2),), hidden=3)
    windows = np.random.default_rng(8).normal(size=(3, 2, 32))
    det = Detector(model=WaveletAutoencoder(cfg), threshold=1.0, train_loss_mean=1.0,
                   norm_mean=np.zeros(2), norm_std=np.ones(2))
    want = score_windows(det, windows)
    model = WaveletAutoencoder(replace(cfg, seed=1))
    optimizer = Adam(model.parameters())
    inputs = training._scale_inputs(windows[:1], cfg, np.zeros(2), np.ones(2))
    stop = threading.Event()
    scored, failures = [], []

    def score():
        try:
            while not stop.is_set():
                scored.append(np.array_equal(score_windows(det, windows), want))
        except Exception as err:  # reported below, by the main thread
            failures.append(err)

    scorers = [threading.Thread(target=score) for _ in range(2)]
    interval = sys.getswitchinterval()
    steps = 0
    sys.setswitchinterval(1e-5)
    try:
        for thread in scorers:
            thread.start()
        end = time.monotonic() + 1.0
        while time.monotonic() < end:
            code, teacher = model.encode(inputs)
            reconstruction_loss(inputs, model.decode(code, teacher)).backward()
            assert all(p.grad is not None for p in model.parameters()), f"step {steps}"
            optimizer.step()
            optimizer.zero_grad()
            steps += 1
    finally:
        stop.set()
        for thread in scorers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in scorers)
    assert not failures, failures
    assert steps and scored and all(scored)


def test_reloaded_detector_scores_bit_identically(detector, tmp_path):
    path, again = tmp_path / "d.wdc", tmp_path / "e.wdc"
    save_detector(detector, path)
    loaded = load_detector(path)
    assert loaded.threshold == detector.threshold
    assert loaded.train_loss_mean == detector.train_loss_mean
    windows = np.stack([_series(seed, 64) for seed in range(10, 16)])
    assert np.array_equal(score_windows(loaded, windows), score_windows(detector, windows))
    save_detector(loaded, again)
    assert path.read_bytes().startswith(b"wavedetect-container 3\n")
    assert again.read_bytes() == path.read_bytes()


def test_values_that_hold_arrays_compare_and_hash_by_identity(detector):
    """``==``, ``in`` and ``hash`` on a ``MultiSeries``, ``Fragment`` or
    ``Detector`` raised a bare ``ValueError`` or ``TypeError``: the methods
    ``dataclass`` generates compare and hash the tuple of fields, arrays
    included."""
    for make in (lambda: MultiSeries(["a"], np.zeros((1, 4))), lambda: Fragment(np.zeros((1, 4)), 0, 0),
                 lambda: replace(detector)):
        one, twin = make(), make()
        assert one == one and one != twin
        assert one in [twin, one] and one not in [twin]
        assert len({one, twin, one}) == 2


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize("mode", ["semi", "supervised"])
def test_every_parameter_holds_a_gradient_of_its_shape_at_each_adam_step(monkeypatch, mode, wavelet):
    """``Adam.step`` trusts that each of the model's parameters holds a
    gradient of its own shape: every training step's loss reaches them all,
    the head's included."""
    steps = []

    class CheckingAdam(Adam):
        def step(self):
            assert all(isinstance(p.grad, np.ndarray) and p.grad.shape == p.data.shape for p in self.params)
            steps.append(len(self.params))
            super().step()

    monkeypatch.setattr(training, "Adam", CheckingAdam)
    model = replace(_model(mode), levels=2, wavelet=wavelet)
    fragments = _fragments(2, 4) + (_fragments(3, 2, label=1) if mode == "supervised" else [])
    train(fragments, TrainConfig(model=model, mode=mode, epochs=1, seed=4))
    assert steps == [len(WaveletAutoencoder(model).parameters())] * len(fragments)


class TestDetectorRules:
    """A Detector checks its threshold against its model's classifier head,
    which alone decides its kind, and checks its statistics itself."""

    @staticmethod
    def make(threshold, classifier, train_loss_mean=0.0, norm_mean=np.zeros(2), norm_std=np.ones(2)):
        model = WaveletAutoencoder(_model("supervised" if classifier else "semi"))
        return Detector(model=model, threshold=threshold, train_loss_mean=train_loss_mean,
                        norm_mean=norm_mean, norm_std=norm_std)

    def test_the_kind_is_read_off_the_models_head(self):
        """No field stores the kind: ``mode`` is a property of the model's
        head, so a detector file's ``meta mode`` line is derived too."""
        assert [f.name for f in fields(Detector)] == ["model", "threshold", "train_loss_mean",
                                                      "norm_mean", "norm_std"]
        assert isinstance(Detector.__dict__["mode"], property)
        head, plain = self.make(None, True), self.make(0.25, False)
        assert (head.mode, head.cut) == ("supervised", 0.5)
        assert (plain.mode, plain.cut) == ("semi", 0.25)
        with pytest.raises(FrozenInstanceError):
            plain.mode = "supervised"

    def test_supervised_needs_a_classifier_head(self):
        """Without a head a detector needs a threshold: there is no
        threshold-less detector that scores reconstruction."""
        with pytest.raises(ConfigError, match="finite threshold"):
            self.make(None, False)
        assert self.make(None, True).cut == 0.5

    @pytest.mark.parametrize("threshold", [float("nan"), -3.0, 0.7])
    def test_a_head_model_takes_no_threshold(self, threshold):
        """A head model's detector compares probabilities against 0.5, so a
        threshold it would store and ignore is refused."""
        with pytest.raises(ConfigError, match="classifier head takes no threshold"):
            self.make(threshold, True)

    @pytest.mark.parametrize("threshold", [None, float("nan"), float("inf")])
    def test_semi_needs_a_finite_threshold(self, threshold):
        with pytest.raises(ConfigError, match="finite threshold"):
            self.make(threshold, False)
        assert self.make(0.25, False).cut == 0.25

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_semi_needs_a_positive_threshold(self, threshold):
        """A reconstruction loss is never negative, so such a threshold
        would flag every window."""
        with pytest.raises(ConfigError, match="threshold > 0"):
            self.make(threshold, False)

    @pytest.mark.parametrize("mean", [-5.0, -1e-300, float("nan"), float("inf")])
    @pytest.mark.parametrize("mode", ["semi", "supervised"])
    def test_train_loss_mean_is_finite_and_not_negative(self, mode, mean):
        with pytest.raises(ConfigError, match="train_loss_mean"):
            self.make(0.25 if mode == "semi" else None, mode == "supervised", train_loss_mean=mean)

    @pytest.mark.parametrize("field,value,message", [
        ("threshold", "0.5", "threshold must be a real number"),
        ("train_loss_mean", "1", "train_loss_mean must be a real number"),
        ("threshold", 10**400, "threshold is too large for a float"),
        ("train_loss_mean", 10**400, "train_loss_mean is too large for a float"),
    ])
    def test_a_field_that_is_no_float_is_refused(self, field, value, message):
        """Before the range checks, which a string fails with a bare
        ``TypeError`` and a huge integer passes, to fail in ``float()``."""
        with pytest.raises(ConfigError, match=message):
            self.make(**{"threshold": 0.25, "classifier": False, field: value})


    @pytest.mark.parametrize("mean,std,message", [
        (np.zeros(2), np.zeros(2), r"norm_std holds a non-positive value"),
        (np.zeros(2), np.array([1.0, -2.0]), r"norm_std holds a non-positive value"),
        (np.zeros(2), np.array([1.0, np.nan]), r"norm_std holds a non-finite value"),
        (np.array([np.inf, 0.0]), np.ones(2), r"norm_mean holds a non-finite value"),
        (np.zeros(3), np.ones(2), r"norm_mean must be a float array of shape \(2,\), got float64 array of shape"),
        (np.zeros(2), np.ones((1, 2)), r"norm_std must be a float array of shape \(2,\)"),
        (np.zeros(2, dtype=int), np.ones(2), r"norm_mean must be a float array of shape \(2,\), got int64"),
        (np.zeros(2), [1.0, 1.0], r"norm_std must be a float array of shape \(2,\), got \[1.0, 1.0\]"),
    ], ids=["zero-std", "negative-std", "nan-std", "inf-mean", "mean-too-long", "std-2d", "int-mean", "list-std"])
    def test_normalisation_statistics_are_finite_per_channel_floats(self, mean, std, message):
        """Statistics that would score every window NaN, and so never flag
        one, or fail at scoring with a bare numpy error, are refused."""
        with pytest.raises(ConfigError, match=message):
            self.make(0.25, False, norm_mean=mean, norm_std=std)

    @pytest.mark.parametrize("field,value", [
        ("norm_std", np.zeros(2)), ("threshold", float("nan")),
        pytest.param("model", WaveletAutoencoder(_model("supervised")), id="model-with-head"),
    ])
    def test_a_built_detector_cannot_be_changed_past_its_checks(self, field, value):
        """Assigning a field raises; a changed copy from ``replace`` is
        checked again, so a bad value cannot make every verdict a silent 0,
        and a head cannot be given to a detector that keeps a threshold."""
        det = self.make(0.25, False)
        with pytest.raises(FrozenInstanceError):
            setattr(det, field, value)
        with pytest.raises(ConfigError):
            replace(det, **{field: value})
        assert replace(det, threshold=0.5).threshold == 0.5

    @pytest.mark.parametrize("build,field,value,error", [
        (lambda: TrainConfig(model=_model("semi")), "epochs", 0, ConfigError),
        (lambda: _model("semi"), "levels", -1, ConfigError),
        (lambda: GeneratorConfig(), "anomaly_count", 50, ConfigError),
        (lambda: MultiSeries(["a", "b"], np.ones((2, 4))), "values", np.full((2, 4), np.nan), DataError),
        (lambda: _fragments(2, 1)[0], "label", 2, DataError),
    ], ids=["TrainConfig", "ModelConfig", "GeneratorConfig", "MultiSeries", "Fragment"])
    def test_a_built_config_cannot_be_changed_past_its_checks(self, build, field, value, error):
        """Like a detector, every object that checks its fields refuses an
        assignment, and ``replace`` checks the changed copy. An untrained
        detector came from ``cfg.epochs = 0`` on a built config."""
        checked = build()
        with pytest.raises(FrozenInstanceError):
            setattr(checked, field, value)
        with pytest.raises(error):
            replace(checked, **{field: value})

    def test_a_built_detectors_statistics_cannot_be_written(self):
        """The detector keeps read-only copies of the statistics it was
        given: neither a write into its arrays nor into the caller's can
        make it score NaN, and so never flag a window."""
        mean, std = np.zeros(2), np.ones(2)
        det = self.make(0.25, False, norm_mean=mean, norm_std=std)
        windows = np.stack([f.values for f in _fragments(5, 2)])
        scores = score_windows(det, windows)
        for stats in (det.norm_mean, det.norm_std):
            with pytest.raises(ValueError, match="read-only"):
                stats[:] = 0
        mean[:], std[:] = np.nan, 0
        assert np.array_equal(score_windows(det, windows), scores)
        assert np.isfinite(scores).all()


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
            [score] = score_windows(detector, window[None])
            assert preds[k] == int(score >= detector.cut)
            assert batch[k] == score

    def test_online_verdicts_equal_simulate(self, detector):
        values = _series(10, 640)
        series = MultiSeries(["a", "b"], values)
        rows, _ = simulate(series, AnomalyRanges(((100, 300),)), detector, VOTE)
        state = VoteState(detector, VOTE)
        finals = []
        for i in range(series.length // VOTE.step):
            finals += state.push_block(values[:, VOTE.step * i : VOTE.step * (i + 1)])[0]
        # Online verdicts are the same rows, without the label.
        assert finals == state.finalized == [replace(r, label=None) for r in rows if r.final]


class TestTrainRejectsBadInput:
    @pytest.mark.parametrize("mode,fragments,message", [
        ("semi", [], "non-empty"),
        ("semi", _fragments(20, 2) + [Fragment(np.zeros((2, 32)), 0, 0)], r"window 2 has shape \(2, 32\)"),
        ("semi", _fragments(21, 2) + _fragments(22, 1, label=1), "fragment 2 is labeled anomalous"),
        ("supervised", _fragments(23, 2) + [_series(24, 64)], "fragment 2 is missing a 0/1 label"),
        ("semi", None, "expected an array or a sequence of windows, got NoneType"),
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

    def test_semi_training_refuses_a_classifier_head(self):
        """Semi training never touches a head, so it would only store the
        head's random init in the detector."""
        with pytest.raises(ConfigError, match="mode 'semi' disagrees with a model config with classifier=True"):
            TrainConfig(model=_model("supervised"))

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(model=_model("semi"), lr=lr)

    @pytest.mark.parametrize("field,value,message", [
        ("epochs", 0, "epochs must be >= 1"),
        ("epochs", 1.5, "epochs must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be an integer"),
    ])
    def test_counts_must_be_integers_in_range(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(model=_model("semi"), **{field: value})


class TestFragmentGenerators:
    """``train`` and ``evaluate_fragments`` read windows and labels in one
    pass, so a generator gives what the equivalent list gives."""

    @pytest.mark.parametrize("mode", ["semi", "supervised"])
    def test_a_generator_trains_and_evaluates_like_a_list(self, mode):
        fragments = _fragments(30, 3) + (_fragments(31, 2, label=1) if mode == "supervised" else [])
        cfg = TrainConfig(model=_model(mode), mode=mode, epochs=2, seed=3)
        listed, generated = train(fragments, cfg), train((f for f in fragments), cfg)
        assert (listed.threshold, listed.train_loss_mean) == (generated.threshold, generated.train_loss_mean)
        for a, b in zip(listed.model.parameters(), generated.model.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        labeled = _fragments(32, 2) + _fragments(33, 2, label=1)
        assert evaluate_fragments(listed, labeled) == evaluate_fragments(generated, iter(labeled))

    def test_a_semi_generator_with_an_anomalous_fragment_is_rejected(self):
        fragments = _fragments(34, 2) + _fragments(35, 1, label=1)
        with pytest.raises(DataError, match="fragment 2 is labeled anomalous"):
            train((f for f in fragments), TrainConfig(model=_model("semi"), epochs=1))


def test_diverging_training_stops_and_names_the_epoch(monkeypatch):
    real = training.reconstruction_loss
    epochs = []

    def diverging(targets, reconstructions):
        loss = real(targets, reconstructions)
        return mul(loss, float("nan") if len(epochs) == 1 else 1.0)

    monkeypatch.setattr(training, "reconstruction_loss", diverging)
    cfg = TrainConfig(model=_model("semi"), epochs=3, seed=4)
    with pytest.raises(DataError, match="epoch 2 has mean loss nan"):
        train(_fragments(27, 2), cfg, progress=lambda epoch, loss: epochs.append(loss))
    assert len(epochs) == 1 and np.isfinite(epochs[0])


def _trained_weights(seed):
    cfg = TrainConfig(model=_model("semi"), epochs=2, seed=seed)
    return [t.data for t in train(_fragments(5, 6), cfg).model.parameters()]


def test_same_seed_trains_bit_identically():
    for got, want in zip(_trained_weights(4), _trained_weights(4)):
        assert np.array_equal(got, want)


def test_seed_sets_the_visit_order(monkeypatch):
    """Each epoch visits every window once, in an order that the seed sets."""
    step = training._step
    visits = []

    def recording(model, optimizer, inputs, label, alpha):
        visits.append(float(inputs[0][0, 0, 0]))
        return step(model, optimizer, inputs, label, alpha)

    monkeypatch.setattr(training, "_step", recording)
    orders = []
    for seed in (4, 4, 5):
        visits.clear()
        _trained_weights(seed)
        orders.append(list(visits))
        assert len(set(visits[:6])) == len(set(visits[6:])) == 6
    assert orders[0] == orders[1] != orders[2]


def test_training_and_scoring_never_import_numpy_random(tmp_path):
    """numpy.random pulls in secrets, hashlib and OpenSSL: about 5 MB of
    resident memory that training and scoring do not need."""
    script = """
import sys
import numpy as np
from wavedetect import Fragment, ModelConfig, TrainConfig, load_detector, save_detector, score_windows, train
t = np.arange(64.0)
windows = [np.stack([np.sin(t / (9 + i)), np.cos(t / (13 + i))]) for i in range(3)]
cfg = ModelConfig(channels=2, fragment_length=64, levels=1, hidden=3)
save_detector(train([Fragment(w, 0, 0) for w in windows], TrainConfig(model=cfg, epochs=1)), sys.argv[1])
score_windows(load_detector(sys.argv[1]), windows)
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
"""
    src = str(Path(training.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d.wdc")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
