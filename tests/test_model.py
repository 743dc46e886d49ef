import numpy as np
import pytest

from wavedetect.autodiff import Tensor, no_grad, relu, tsum
from wavedetect.errors import CapabilityError, ConfigError, ContractError, ShapeError
from wavedetect.model import (
    ConvLayer,
    ModelConfig,
    WaveletAutoencoder,
    config_from_dict,
    config_to_dict,
    padding_for,
    reconstruction_loss,
)
import wavedetect.nn as nn
from wavedetect.nn import bce_with_logits, conv1d, deconv1d, lstm_sequence, mse_loss
from wavedetect.wavelet import get_family, mdwd

from conftest import lstm_step, max_rel_err, numeric_grad

TINY_CONV = (ConvLayer(4, 4, 2), ConvLayer(5, 3, 1))


def tiny_config(**overrides):
    base = dict(channels=2, fragment_length=32, levels=2, conv=TINY_CONV, hidden=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def scales(x, levels):
    """The per-scale inputs of x: itself, then its haar details 1..levels."""
    return [x, *mdwd(x, get_family("haar"), levels).details] if levels else [x]


def forward_loss(model, inputs, teacher=True):
    code, acts = model.encode(inputs)
    recons = model.decode(code, acts if teacher else None)
    return reconstruction_loss(inputs, recons)


def encode_one_scale(model, scale, values):
    """The final encoder hidden state of one branch, its LSTM run alone."""
    cfg, branch = model.config, model.branches[scale]
    acts = Tensor(values)
    for (kernels, bias), layer in zip(branch.conv, cfg.conv):
        acts = relu(conv1d(acts, kernels, bias, layer.stride, padding_for(layer)))
    zeros = np.zeros(cfg.hidden)
    [(_, h, _)] = lstm_sequence([acts], [zeros], [zeros], [branch.encoder])
    return h.data


class TestModelConfig:
    def test_code_length_example(self):
        cfg = ModelConfig(channels=26, fragment_length=512, levels=3, hidden=32)
        assert cfg.code_length == 128

    def test_rejects_indivisible_fragment_length(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=2, fragment_length=100, levels=3)

    def test_rejects_odd_kernel_stride_gap(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=2, fragment_length=64, levels=1, conv=(ConvLayer(8, 7, 2),))

    def test_rejects_stride_that_does_not_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=2, fragment_length=64, levels=3,
                        conv=(ConvLayer(4, 4, 4), ConvLayer(4, 4, 4)))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tiny_config(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("channels", 2.0), ("fragment_length", 32.0), ("levels", 2.0), ("hidden", 4.0),
        ("conv", ((4, 4.0, 2),)),
    ])
    def test_rejects_a_size_that_is_not_an_integer(self, field, value):
        with pytest.raises(ConfigError, match="must be an integer"):
            tiny_config(**{field: value})

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=2, fragment_length=64, levels=1, wavelet="coif1")

    def test_accepts_plain_tuples(self):
        cfg = ModelConfig(channels=2, fragment_length=64, levels=1, conv=((4, 4, 2),))
        assert cfg.conv == (ConvLayer(4, 4, 2),)

    def test_config_dict_roundtrip(self):
        cfg = tiny_config(classifier=True, wavelet="db4")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_conv_lengths(self):
        cfg = tiny_config()
        assert cfg.conv_lengths(0) == [32, 16, 16]
        assert cfg.conv_lengths(2) == [8, 4, 4]


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = WaveletAutoencoder(tiny_config(seed=9))
        b = WaveletAutoencoder(tiny_config(seed=9))
        for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = WaveletAutoencoder(tiny_config(seed=1))
        b = WaveletAutoencoder(tiny_config(seed=2))
        assert any(
            not np.array_equal(ta.data, tb.data)
            for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters())
        )

    def test_level_zero_boundary(self, rng):
        cfg = ModelConfig(channels=3, fragment_length=16, levels=0, conv=((4, 4, 2),), hidden=5)
        model = WaveletAutoencoder(cfg)
        assert len(model.branches) == 1
        assert cfg.code_length == 5
        x = rng.normal(size=(3, 16))
        code, acts = model.encode([x])
        recons = model.decode(code, acts)
        assert len(recons) == 1
        assert recons[0].data.shape == (3, 16)

    def test_branch_count_and_init_bounds(self):
        cfg = tiny_config()
        model = WaveletAutoencoder(cfg)
        assert len(model.branches) == cfg.levels + 1
        for name, t in model.named_parameters():
            assert np.abs(t.data).max() <= 1.0, name  # fan_in >= 1 keeps bounds <= 1


class TestEncode:
    def test_zero_input_zero_bias_gives_zero_code(self, rng):
        model = WaveletAutoencoder(tiny_config(seed=3))
        for name, t in model.named_parameters():
            if name.endswith(("bias", ".b")):
                t.data[...] = 0.0
        code, _ = model.encode(scales(np.zeros((2, 32)), 2))
        assert np.allclose(code.data, 0.0, atol=1e-15)

    def test_code_is_scale_ordered_concatenation(self, rng):
        model = WaveletAutoencoder(tiny_config(seed=5))
        inputs = scales(rng.normal(size=(2, 32)), 2)
        code, _ = model.encode(inputs)
        pieces = [encode_one_scale(model, s, v) for s, v in enumerate(inputs)]
        assert np.array_equal(code.data, np.concatenate(pieces))
        permuted = np.concatenate([pieces[1], pieces[0], pieces[2]])
        assert not np.array_equal(code.data, permuted)

    def test_matches_op_composition_oracle(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=64, levels=2, conv=TINY_CONV, hidden=4, seed=8)
        model = WaveletAutoencoder(cfg)
        inputs = scales(rng.normal(size=(2, 64)), 2)
        code, acts = model.encode(inputs)

        with no_grad():
            pieces = []
            for scale, values in enumerate(inputs):
                branch = model.branches[scale]
                a = Tensor(values)
                for (kern, bias), layer in zip(branch.conv, cfg.conv):
                    pre = conv1d(a, kern, bias, layer.stride, padding_for(layer))
                    a = Tensor(np.maximum(pre.data, 0.0))
                h = Tensor(np.zeros(cfg.hidden))
                c = Tensor(np.zeros(cfg.hidden))
                for t in range(a.data.shape[1]):
                    h, c = lstm_step(Tensor(a.data[:, t]), h, c, branch.encoder)
                pieces.append(h.data)
        assert np.max(np.abs(code.data - np.concatenate(pieces))) < 1e-12

    def test_wrong_fragment_shape(self, rng):
        model = WaveletAutoencoder(tiny_config())
        with pytest.raises(ShapeError):
            model.encode(scales(rng.normal(size=(2, 16)), 2))

    def test_wrong_decomposition_levels(self, rng):
        model = WaveletAutoencoder(tiny_config())
        x = rng.normal(size=(2, 32))
        for inputs in (scales(x, 1), scales(x, 3), [x]):
            with pytest.raises(ShapeError, match="3 scale inputs"):
                model.encode(inputs)

    def test_wrong_detail_shape(self, rng):
        model = WaveletAutoencoder(tiny_config())
        x = rng.normal(size=(2, 32))
        good = scales(x, 2)
        for bad in (rng.normal(size=(2, 7)), rng.normal(size=(3, 8)), good[1]):
            with pytest.raises(ShapeError, match="scale 2"):
                model.encode([x, good[1], bad])
        batched = scales(rng.normal(size=(3, 2, 32)), 2)
        with pytest.raises(ShapeError, match="scale 1"):
            model.encode([batched[0], good[1], batched[2]])  # detail lacks the batch axis

    def test_bare_array_is_not_a_scale_list(self, rng):
        model = WaveletAutoencoder(tiny_config())
        for bare in (rng.normal(size=(2, 32)), rng.normal(size=(3, 2, 32))):
            with pytest.raises(ShapeError, match="list of 3 scale inputs"):
                model.encode(bare)


class TestDecode:
    def test_reconstruction_shapes_per_scale(self, rng):
        cfg = ModelConfig(channels=3, fragment_length=128, levels=3,
                          conv=(ConvLayer(6, 4, 2), ConvLayer(8, 4, 2)), hidden=6)
        model = WaveletAutoencoder(cfg)
        code, acts = model.encode(scales(rng.normal(size=(3, 128)), 3))
        recons = model.decode(code, acts)
        assert [r.data.shape for r in recons] == [(3, 128), (3, 64), (3, 32), (3, 16)]

    def test_teacher_and_autoregressive_agree_when_predictions_match(self):
        # with every parameter zeroed the step outputs equal the (zero)
        # teacher activations, so both modes produce identical output
        model = WaveletAutoencoder(tiny_config(seed=2))
        for _, t in model.named_parameters():
            t.data[...] = 0.0
        code, acts = model.encode(scales(np.zeros((2, 32)), 2))
        taught = model.decode(code, acts)
        free = model.decode(code)
        for a, b in zip(taught, free):
            assert np.array_equal(a.data, b.data)

    def test_one_step_toy_decode_composes_by_hand(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=4, levels=0, conv=((3, 4, 4),), hidden=4, seed=6)
        model = WaveletAutoencoder(cfg)
        assert cfg.conv_lengths(0)[-1] == 1
        code = Tensor(rng.normal(size=4))
        out = model.decode(code)[0]

        branch = model.branches[0]
        with no_grad():
            h0 = branch.dec_init_w.data @ code.data + branch.dec_init_b.data
            h, _ = lstm_step(Tensor(np.zeros(3)), Tensor(h0), Tensor(np.zeros(4)), branch.decoder)
            step = branch.step_w.data @ h.data + branch.step_b.data
            kern, bias = branch.deconv[0]
            ref = deconv1d(Tensor(step[:, None]), kern, bias, 4, 0)
        assert np.max(np.abs(out.data - ref.data)) < 1e-12

    def test_wrong_code_length(self):
        model = WaveletAutoencoder(tiny_config())
        with pytest.raises(ShapeError):
            model.decode(Tensor(np.zeros(7)))

    def test_teacher_mode_mismatch(self, rng):
        model = WaveletAutoencoder(tiny_config())
        code, acts = model.encode(scales(rng.normal(size=(2, 32)), 2))
        with pytest.raises(ContractError):
            model.decode(code, acts[:-1])
        bad = [Tensor(np.zeros((3, 16)))] + list(acts[1:])
        with pytest.raises(ContractError):
            model.decode(code, bad)


class TestClassify:
    def test_zero_code_zero_head(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = 0.0
        assert model.classify(Tensor(np.zeros(12))).item() == 0.5

    def test_large_logit_saturates(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = 50.0
        assert model.classify(Tensor(np.zeros(12))).item() == 1.0
        model.classifier_b.data[...] = -50.0
        assert 0.0 < model.classify(Tensor(np.zeros(12))).item() < 1e-21

    def test_head_saturated_the_wrong_way_still_learns(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = -50.0
        loss = bce_with_logits(model.logit(Tensor(np.zeros(12))), 1)
        loss.backward()
        assert abs(loss.item() - 50.0) < 1e-12
        assert abs(model.classifier_b.grad[0] + 1.0) < 1e-12

    def test_matches_sigmoid_linear_oracle(self, rng):
        model = WaveletAutoencoder(tiny_config(classifier=True, seed=4))
        code = rng.normal(size=12)
        p = model.classify(Tensor(code)).item()
        logit = (model.classifier_w.data @ code + model.classifier_b.data).item()
        assert abs(p - 1.0 / (1.0 + np.exp(-logit))) < 1e-12

    def test_head_absent(self):
        model = WaveletAutoencoder(tiny_config())
        with pytest.raises(CapabilityError):
            model.classify(Tensor(np.zeros(12)))


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self, rng):
        arrays = [rng.normal(size=(2, 8)), rng.normal(size=(2, 4))]
        loss = reconstruction_loss(arrays, [Tensor(a.copy()) for a in arrays])
        assert loss.item() == 0.0

    def test_single_differing_scale_is_that_term(self, rng):
        targets = [rng.normal(size=(2, 8)), rng.normal(size=(2, 4)), rng.normal(size=(2, 2))]
        recons = [Tensor(t.copy()) for t in targets]
        recons[2] = Tensor(targets[2] + 1.0)
        loss = reconstruction_loss(targets, recons)
        assert abs(loss.item() - mse_loss(recons[2], Tensor(targets[2])).item()) < 1e-15

    def test_equals_sum_of_mse_terms(self, rng):
        targets = [rng.normal(size=(3, 16)), rng.normal(size=(3, 8))]
        recons = [Tensor(rng.normal(size=(3, 16))), Tensor(rng.normal(size=(3, 8)))]
        total = reconstruction_loss(targets, recons).item()
        parts = sum(mse_loss(r, Tensor(t)).item() for r, t in zip(recons, targets))
        assert abs(total - parts) < 1e-12

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss([np.zeros((1, 2))], [])


class TestEndToEnd:
    def test_shape_closure_randomized_configs(self, rng):
        for _ in range(5):
            channels = int(rng.integers(1, 5))
            levels = int(rng.integers(0, 3))
            t = int(rng.choice([32, 64, 128]))
            hidden = int(rng.integers(2, 7))
            layers = tuple(
                ConvLayer(int(rng.integers(2, 7)), 4, 2)
                for _ in range(int(rng.integers(1, 3)))
            )
            cfg = ModelConfig(channels=channels, fragment_length=t, levels=levels,
                              conv=layers, hidden=hidden, seed=int(rng.integers(1000)))
            model = WaveletAutoencoder(cfg)
            code, acts = model.encode(scales(rng.normal(size=(channels, t)), levels))
            recons = model.decode(code, acts)
            expected = [(channels, t >> s) for s in range(levels + 1)]
            assert [r.data.shape for r in recons] == expected

    def test_encode_decode_deterministic(self, rng):
        inputs = scales(rng.normal(size=(2, 32)), 2)
        outs = []
        for _ in range(2):
            model = WaveletAutoencoder(tiny_config(seed=13))
            code, acts = model.encode(inputs)
            recons = model.decode(code, acts)
            outs.append((code.data.copy(), [r.data.copy() for r in recons]))
        assert np.array_equal(outs[0][0], outs[1][0])
        for a, b in zip(outs[0][1], outs[1][1]):
            assert np.array_equal(a, b)

    def test_spot_check_gradients(self, rng):
        # a fast subsample of the exhaustive acceptance gradient check
        cfg = ModelConfig(channels=2, fragment_length=16, levels=1,
                          conv=TINY_CONV, hidden=3, seed=5)
        model = WaveletAutoencoder(cfg)
        inputs = scales(rng.normal(size=(2, 16)), 1)
        loss = forward_loss(model, inputs)
        loss.backward()

        def f():
            with no_grad():
                return forward_loss(model, inputs).item()

        sampler = np.random.default_rng(0)
        named = model.named_parameters()
        h = 1e-4
        for _ in range(25):
            name, tensor = named[sampler.integers(len(named))]
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            i = int(sampler.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + h
            up = f()
            flat[i] = keep - h
            down = f()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            assert rel < 1e-4, f"{name}[{i}]: {rel}"


def test_all_scales_share_one_lstm_time_loop(rng, monkeypatch):
    """The default model's scales run 128, 64, 32 and 16 LSTM steps. Each
    pass runs them in one time loop of 128 iterations, not 240."""
    iterations = []
    scan = nn._scan

    def counted(*args, **kwargs):
        runs, h, c = scan(*args, **kwargs)
        iterations.append(sum(end - start for start, end, *_ in runs))
        return runs, h, c

    monkeypatch.setattr(nn, "_scan", counted)
    model = WaveletAutoencoder(ModelConfig(channels=8))
    code, acts = model.encode(scales(rng.normal(size=(8, 512)), 3))
    model.decode(code, acts)
    model.decode(code)
    # encode, teacher-forced decode, then free decode: its first step, then
    # the rest with the step head folded in
    assert iterations == [128, 128, 1, 127]


class TestBatchAxis:
    def test_batched_passes_equal_per_sample_passes(self, rng):
        model = WaveletAutoencoder(tiny_config(classifier=True, seed=21))
        inputs = scales(rng.normal(size=(3, 2, 32)), 2)
        with no_grad():
            code, acts = model.encode(inputs)
            free = model.decode(code)
            taught = model.decode(code, acts)
            probs = model.classify(code)
        assert code.data.shape == (3, 12)
        assert probs.data.shape == (3, 1)
        for i in range(3):
            with no_grad():
                code_i, acts_i = model.encode(scales(inputs[0][i], 2))
                free_i = model.decode(code_i)
                taught_i = model.decode(code_i, acts_i)
            assert np.array_equal(code.data[i], code_i.data)
            assert np.array_equal(probs.data[i], model.classify(code_i).data)
            for a, b in zip(free + taught, free_i + taught_i):
                assert np.array_equal(a.data[i], b.data)

    def test_batched_teacher_forced_gradients_sum_over_samples(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=16, levels=1, conv=TINY_CONV, hidden=3, seed=5)
        model = WaveletAutoencoder(cfg)
        xs = rng.normal(size=(2, 2, 16))
        loss = forward_loss(model, scales(xs, 1))
        assert loss.data.shape == (2,)  # one loss per sample
        tsum(loss).backward()
        batched = [t.grad.copy() for t in model.parameters()]
        for t in model.parameters():
            t.zero_grad()
        for i in range(2):
            forward_loss(model, scales(xs[i], 1)).backward()
        for got, want in zip(batched, (t.grad for t in model.parameters())):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


class TestAutoregressiveDecodeIsInferenceOnly:
    def test_records_no_graph(self, rng):
        model = WaveletAutoencoder(tiny_config(seed=3))
        inputs = scales(rng.normal(size=(2, 32)), 2)
        code, _ = model.encode(inputs)
        assert code.requires_grad
        loss = forward_loss(model, inputs, teacher=False)
        assert not loss.requires_grad
        with pytest.raises(ContractError):
            loss.backward()
