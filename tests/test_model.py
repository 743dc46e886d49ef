import json
from dataclasses import fields

import numpy as np
import pytest

from wavedetect.autodiff import Tensor
from wavedetect.errors import CapabilityError, ConfigError, ContractError, ShapeError
from wavedetect.model import (
    ConvLayer,
    ModelConfig,
    WaveletAutoencoder,
    config_from_dict,
    config_to_dict,
    padding_for,
)
import wavedetect.nn as nn
from wavedetect.nn import _correlate, _taps, conv1d, deconv1d, lstm_sequence, reconstruction_loss, supervised_loss
from wavedetect.wavelet import mdwd

from conftest import lstm_step, max_rel_err, numeric_grad, tsum

TINY_CONV = (ConvLayer(4, 4, 2), ConvLayer(5, 3, 1))


def tiny_config(**overrides):
    base = dict(channels=2, fragment_length=32, levels=2, conv=TINY_CONV, hidden=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def scales(x, levels):
    """The per-scale inputs of a (B, C, T) batch x: itself, then its haar
    details 1..levels."""
    return [x, *mdwd(x, "haar", levels)[0]] if levels else [x]


def forward_loss(model, inputs):
    code, acts = model.encode(inputs)
    return reconstruction_loss(inputs, model.decode(code, acts))


def encode_one_scale(model, scale, values):
    """The last encoder hidden states of one branch, its LSTM run alone."""
    cfg, branch = model.config, model.branches[scale]
    acts = Tensor(values)
    for (kernels, bias), layer in zip(branch.conv, cfg.conv):
        acts = conv1d(acts, kernels, bias, layer.stride, padding_for(layer))
    return lstm_sequence([acts], [np.zeros((len(values), cfg.hidden))], [branch.encoder]).data


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

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_])
    def test_rejects_a_classifier_flag_that_is_not_a_bool(self, value):
        """Any truthy value used to build a head and be stored as given."""
        with pytest.raises(ConfigError, match="classifier must be True or False"):
            tiny_config(classifier=value)

    @pytest.mark.parametrize("layer", [(1, 2), 5])
    def test_rejects_a_conv_layer_that_is_not_a_triple(self, layer):
        with pytest.raises(ConfigError, match="conv layer 0 must be a"):
            ModelConfig(channels=8, conv=(layer,))

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=2, fragment_length=64, levels=1, wavelet="coif1")
        with pytest.raises(ConfigError, match="unknown wavelet family"):  # a list is no name
            ModelConfig(channels=2, fragment_length=64, levels=1, wavelet=["haar"])

    def test_accepts_plain_tuples(self):
        cfg = ModelConfig(channels=2, fragment_length=64, levels=1, conv=((4, 4, 2),))
        assert cfg.conv == (ConvLayer(4, 4, 2),)

    def test_config_dict_roundtrip(self):
        cfg = tiny_config(classifier=True, wavelet="db4")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("cfg,saved", [
        (ModelConfig(channels=8),
         '{"channels": 8, "classifier": false, "conv": [[32, 8, 2], [64, 4, 2]], "fragment_length": 512, '
         '"hidden": 32, "levels": 3, "seed": 0, "wavelet": "haar"}'),
        (ModelConfig(channels=2, fragment_length=64, levels=1, conv=(ConvLayer(4, 4, 2),), hidden=3,
                     classifier=True, wavelet="db4", seed=1),
         '{"channels": 2, "classifier": true, "conv": [[4, 4, 2]], "fragment_length": 64, "hidden": 3, '
         '"levels": 1, "seed": 1, "wavelet": "db4"}'),
    ], ids=["default", "db4-head-one-layer"])
    def test_config_dict_holds_every_field_as_saved_files_do(self, cfg, saved):
        """``config_to_dict`` reads the config's own fields, and its JSON is
        the ``config`` line a detector file holds, byte for byte."""
        data = config_to_dict(cfg)
        assert list(data) == [f.name for f in fields(ModelConfig)]
        assert json.dumps(data, sort_keys=True) == saved

    def test_conv_lengths(self):
        cfg = tiny_config()
        assert cfg.conv_lengths(0) == [32, 16, 16]
        assert cfg.conv_lengths(2) == [8, 4, 4]


def fan_in(cfg, name):
    """Inputs per output unit of the layer a tensor belongs to, by name."""
    layer = name.split(".")[-2]
    if layer in ("classifier", "dec_init"):
        return cfg.code_length
    if layer.startswith("conv"):
        i = int(layer[4:])
        return ([cfg.channels] + [c.features for c in cfg.conv])[i] * cfg.conv[i].kernel
    if layer.startswith("deconv"):
        i = int(layer[6:])
        return cfg.conv[i].features * cfg.conv[i].kernel
    return cfg.conv_features if name.endswith(".w_x") else cfg.hidden  # LSTMs and step head


class TestBuild:
    def test_init_is_uniform_within_the_fan_in_bound(self):
        """Every tensor lies within ±1/sqrt(fan_in); pooled over the model,
        value / bound has the mean and spread of a uniform draw on [-1, 1]."""
        cfg = ModelConfig(channels=8, classifier=True)
        ratios = []
        for name, t in WaveletAutoencoder(cfg).named_parameters():
            bound = np.sqrt(1.0 / fan_in(cfg, name))
            assert np.abs(t.data).max() <= bound, name
            ratios.append(t.data.reshape(-1) / bound)
        ratios = np.concatenate(ratios)
        assert abs(ratios.mean()) < 0.01
        assert abs(ratios.std() * np.sqrt(3.0) - 1.0) < 0.02

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
        x = rng.normal(size=(1, 3, 16))
        code, acts = model.encode([x])
        recons = model.decode(code, acts)
        assert len(recons) == 1
        assert recons[0].data.shape == (1, 3, 16)

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
        code, _ = model.encode(scales(np.zeros((1, 2, 32)), 2))
        assert np.allclose(code.data, 0.0, atol=1e-15)

    def test_code_is_scale_ordered_concatenation(self, rng):
        model = WaveletAutoencoder(tiny_config(seed=5))
        inputs = scales(rng.normal(size=(1, 2, 32)), 2)
        code, _ = model.encode(inputs)
        pieces = [encode_one_scale(model, s, v) for s, v in enumerate(inputs)]
        assert np.array_equal(code.data, np.concatenate(pieces, axis=1))
        permuted = np.concatenate([pieces[1], pieces[0], pieces[2]], axis=1)
        assert not np.array_equal(code.data, permuted)

    def test_matches_op_composition_oracle(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=64, levels=2, conv=TINY_CONV, hidden=4, seed=8)
        model = WaveletAutoencoder(cfg).frozen()
        inputs = scales(rng.normal(size=(1, 2, 64)), 2)
        code, acts = model.encode(inputs)

        pieces = []
        for scale, values in enumerate(inputs):
            branch = model.branches[scale]
            a = Tensor(values)
            for (kern, bias), layer in zip(branch.conv, cfg.conv):
                a = conv1d(a, kern, bias, layer.stride, padding_for(layer))
            h = c = Tensor(np.zeros(cfg.hidden))
            for t in range(a.data.shape[2]):
                h, c = lstm_step(Tensor(a.data[0, :, t]), h, c, branch.encoder)
            pieces.append(h.data[None])
        assert np.max(np.abs(code.data - np.concatenate(pieces, axis=1))) < 1e-12

    def test_activations_are_the_rectified_conv_stack(self, rng):
        """``encode`` returns each scale's conv activations as they are, no
        zero step appended: every layer's tap gather plus bias, rectified."""
        model = WaveletAutoencoder(tiny_config(seed=7))
        inputs = scales(rng.normal(size=(2, 2, 32)), 2)
        _, acts = model.encode(inputs)
        for scale, (values, got) in enumerate(zip(inputs, acts)):
            want = values
            for (kernels, bias), layer in zip(model.branches[scale].conv, model.config.conv):
                taps = _taps(want, layer.kernel, layer.stride, padding_for(layer))
                want = np.maximum(_correlate(kernels.data, taps) + bias.data[:, None], 0.0)
            assert got.data.shape == (2, 5, model.config.conv_lengths(scale)[-1])
            assert got.data.tobytes() == want.tobytes()

    def test_wrong_fragment_shape(self, rng):
        model = WaveletAutoencoder(tiny_config())
        with pytest.raises(ShapeError):
            model.encode(scales(rng.normal(size=(1, 2, 16)), 2))

    def test_wrong_decomposition_levels(self, rng):
        model = WaveletAutoencoder(tiny_config())
        x = rng.normal(size=(1, 2, 32))
        for inputs in (scales(x, 1), scales(x, 3), [x]):
            with pytest.raises(ShapeError, match="3 scale inputs"):
                model.encode(inputs)

    def test_wrong_detail_shape(self, rng):
        model = WaveletAutoencoder(tiny_config())
        x = rng.normal(size=(1, 2, 32))
        good = scales(x, 2)
        for bad in (rng.normal(size=(1, 2, 7)), rng.normal(size=(1, 3, 8)), good[1]):
            with pytest.raises(ShapeError, match="scale 2"):
                model.encode([x, good[1], bad])
        batched = scales(rng.normal(size=(3, 2, 32)), 2)
        for detail in (good[1], batched[1][0]):  # batch sizes differ; no batch axis
            with pytest.raises(ShapeError, match="scale 1"):
                model.encode([batched[0], detail, batched[2]])

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
        code, acts = model.encode(scales(rng.normal(size=(1, 3, 128)), 3))
        recons = model.decode(code, acts)
        assert [r.data.shape for r in recons] == [(1, 3, 128), (1, 3, 64), (1, 3, 32), (1, 3, 16)]

    def test_one_step_toy_decode_composes_by_hand(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=4, levels=0, conv=((3, 4, 4),), hidden=4, seed=6)
        model = WaveletAutoencoder(cfg).frozen()
        assert cfg.conv_lengths(0)[-1] == 1
        code = Tensor(rng.normal(size=(1, 4)))
        # The only step reads the zero step: no activation follows the one
        # there is.
        out = model.decode(code, [rng.normal(size=(1, 3, 1))])[0]

        branch = model.branches[0]
        h0 = branch.dec_init_w.data @ code.data[0] + branch.dec_init_b.data
        h, _ = lstm_step(Tensor(np.zeros(3)), Tensor(h0), Tensor(np.zeros(4)), branch.decoder)
        step = branch.step_w.data @ h.data + branch.step_b.data
        kern, bias = branch.deconv[0]
        ref = deconv1d(Tensor(step[None, :, None]), kern, bias, 4, 0)
        assert np.max(np.abs(out.data - ref.data)) < 1e-12

    def test_wrong_code_length(self, rng):
        model = WaveletAutoencoder(tiny_config())
        _, acts = model.encode(scales(rng.normal(size=(1, 2, 32)), 2))
        with pytest.raises(ShapeError):
            model.decode(Tensor(np.zeros((1, 7))), acts)

    def test_teacher_mode_mismatch(self, rng):
        model = WaveletAutoencoder(tiny_config())
        code, acts = model.encode(scales(rng.normal(size=(1, 2, 32)), 2))
        for bad in (acts[:-1], acts[0], 3):  # too few, a lone tensor, not a list
            with pytest.raises(ContractError, match="list of 3 teacher activations"):
                model.decode(code, bad)
        for shape in ((1, 3, 16), (1, 5, 17)):  # wrong features; one zero step appended
            bad = [Tensor(np.zeros(shape))] + list(acts[1:])
            with pytest.raises(ContractError, match="teacher activations for scale 0"):
                model.decode(code, bad)


class TestClassify:
    def test_zero_code_zero_head(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = 0.0
        assert model.classify(Tensor(np.zeros((1, 12)))).item() == 0.5

    def test_large_logit_saturates(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = 50.0
        assert model.classify(Tensor(np.zeros((1, 12)))).item() == 1.0
        model.classifier_b.data[...] = -50.0
        assert 0.0 < model.classify(Tensor(np.zeros((1, 12)))).item() < 1e-21

    def test_head_saturated_the_wrong_way_still_learns(self):
        model = WaveletAutoencoder(tiny_config(classifier=True))
        model.classifier_w.data[...] = 0.0
        model.classifier_b.data[...] = -50.0
        loss = supervised_loss(Tensor([0.0]), model.logit(Tensor(np.zeros((1, 12)))), 1, 0.0)
        loss.backward()
        assert abs(loss.item() - 50.0) < 1e-12
        assert abs(model.classifier_b.grad[0] + 1.0) < 1e-12

    def test_matches_sigmoid_linear_oracle(self, rng):
        model = WaveletAutoencoder(tiny_config(classifier=True, seed=4))
        code = rng.normal(size=(1, 12))
        p = model.classify(Tensor(code)).item()
        logit = (model.classifier_w.data @ code[0] + model.classifier_b.data).item()
        assert abs(p - 1.0 / (1.0 + np.exp(-logit))) < 1e-12

    def test_head_absent(self):
        model = WaveletAutoencoder(tiny_config())
        with pytest.raises(CapabilityError):
            model.classify(Tensor(np.zeros((1, 12))))


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self, rng):
        arrays = [rng.normal(size=(1, 2, 8)), rng.normal(size=(1, 2, 4))]
        loss = reconstruction_loss(arrays, [Tensor(a.copy()) for a in arrays])
        assert loss.item() == 0.0

    def test_single_differing_scale_is_that_term(self, rng):
        targets = [rng.normal(size=(1, 2, 8)), rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 2))]
        recons = [Tensor(t.copy()) for t in targets]
        recons[2] = Tensor(targets[2] + 1.0)
        loss = reconstruction_loss(targets, recons)
        assert abs(loss.item() - reconstruction_loss(targets[2:], recons[2:]).item()) < 1e-15

    def test_equals_sum_of_mse_terms(self, rng):
        targets = [rng.normal(size=(1, 3, 16)), rng.normal(size=(1, 3, 8))]
        recons = [Tensor(rng.normal(size=(1, 3, 16))), Tensor(rng.normal(size=(1, 3, 8)))]
        total = reconstruction_loss(targets, recons).item()
        parts = sum(reconstruction_loss([t], [r]).item() for r, t in zip(recons, targets))
        assert abs(total - parts) < 1e-12


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
            code, acts = model.encode(scales(rng.normal(size=(1, channels, t)), levels))
            recons = model.decode(code, acts)
            expected = [(1, channels, t >> s) for s in range(levels + 1)]
            assert [r.data.shape for r in recons] == expected

    def test_encode_decode_deterministic(self, rng):
        inputs = scales(rng.normal(size=(1, 2, 32)), 2)
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
        inputs = scales(rng.normal(size=(1, 2, 16)), 1)
        loss = forward_loss(model, inputs)
        loss.backward()
        frozen = model.frozen()

        def f():
            return forward_loss(frozen, inputs).item()

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
        runs = scan(*args, **kwargs)
        iterations.append(sum(end - start for start, end, *_ in runs))
        return runs

    monkeypatch.setattr(nn, "_scan", counted)
    model = WaveletAutoencoder(ModelConfig(channels=8))
    code, acts = model.encode(scales(rng.normal(size=(1, 8, 512)), 3))
    model.decode(code, acts)
    assert iterations == [128, 128]  # encode, then decode


class TestBatchAxis:
    """A batch of B gives exactly the results of B batches of one."""

    def test_batched_passes_equal_per_sample_passes(self, rng):
        model = WaveletAutoencoder(tiny_config(classifier=True, seed=21)).frozen()
        inputs = scales(rng.normal(size=(3, 2, 32)), 2)
        code, acts = model.encode(inputs)
        taught = model.decode(code, acts)
        probs = model.classify(code)
        assert code.data.shape == (3, 12)
        assert probs.shape == (3,)
        for i in range(3):
            code_i, acts_i = model.encode(scales(inputs[0][i : i + 1], 2))
            taught_i = model.decode(code_i, acts_i)
            assert np.array_equal(code.data[i : i + 1], code_i.data)
            assert np.array_equal(probs[i : i + 1], model.classify(code_i))
            for a, b in zip(taught, taught_i):
                assert np.array_equal(a.data[i : i + 1], b.data)

    def test_batched_teacher_forced_gradients_sum_over_samples(self, rng):
        cfg = ModelConfig(channels=2, fragment_length=16, levels=1, conv=TINY_CONV, hidden=3, seed=5)
        model = WaveletAutoencoder(cfg)
        xs = rng.normal(size=(2, 2, 16))
        loss = forward_loss(model, scales(xs, 1))
        assert loss.data.shape == (2,)  # one loss per sample
        tsum(loss).backward()
        batched = [t.grad.copy() for t in model.parameters()]
        for t in model.parameters():
            t.grad = None
        for i in range(2):
            forward_loss(model, scales(xs[i : i + 1], 1)).backward()
        for got, want in zip(batched, (t.grad for t in model.parameters())):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("classifier", [False, True], ids=["semi", "supervised"])
def test_every_parameter_gradient_matches_finite_differences(classifier):
    """Every gradient of a training step's loss, through both fan-outs (the
    conv activations and the code, which the head also reads), against
    Richardson's extrapolation of central differences. The loss, about 3,
    rounds to ~1e-12 in a difference over h = 5e-4, so entries below 1e-5
    are held to 1e-11 absolute, and larger ones to 1e-6 relative."""
    cfg = ModelConfig(channels=2, fragment_length=16, levels=1, conv=((3, 4, 2),), hidden=2,
                      classifier=classifier, seed=3)
    model = WaveletAutoencoder(cfg)
    inputs = scales(np.random.default_rng(4).normal(size=(1, 2, 16)), 1)

    def loss(model):
        code, acts = model.encode(inputs)
        value = reconstruction_loss(inputs, model.decode(code, acts))
        return supervised_loss(value, model.logit(code), 1, 0.5) if classifier else value

    loss(model).backward()
    frozen = model.frozen()

    def f():
        return loss(frozen).item()

    for name, t in model.named_parameters():
        numeric = (4 * numeric_grad(f, t, h=5e-4) - numeric_grad(f, t, h=1e-3)) / 3
        assert max_rel_err(t.grad, numeric, floor=1e-5) < 1e-6, name
