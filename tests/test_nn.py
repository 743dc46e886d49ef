import numpy as np
import pytest

from wavedetect.autodiff import (
    Tensor,
    add,
    concat,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    tanh,
    tsum,
)
from wavedetect.errors import ContractError, ShapeError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder, padding_for, reconstruction_loss
from wavedetect.nn import (
    LSTMParams,
    bce_with_logits,
    conv1d,
    deconv1d,
    linear,
    _phases,
    lstm_feedback,
    lstm_sequence,
    mse_loss,
)
from wavedetect.wavelet import get_family, mdwd

from conftest import lstm_step, max_rel_err, numeric_grad


def conv1d_naive(x, w, b, stride, padding):
    """Independent triple-loop oracle for the convolution definition."""
    cin, t = x.shape
    cout, _, k = w.shape
    xp = np.zeros((cin, t + 2 * padding))
    xp[:, padding:padding + t] = x
    tout = (t + 2 * padding - k) // stride + 1
    out = np.zeros((cout, tout))
    for co in range(cout):
        for pos in range(tout):
            acc = 0.0
            for ci in range(cin):
                for j in range(k):
                    acc += w[co, ci, j] * xp[ci, pos * stride + j]
            out[co, pos] = acc + b[co]
    return out


def lstm_params(input_size, hidden_size, seed):
    """Random LSTM weights, each uniform in +-1/sqrt(fan in), as the model
    draws them."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = np.sqrt(1.0 / fan_in)
        return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

    return LSTMParams(w_x=uniform(input_size, (4 * hidden_size, input_size)),
                      w_h=uniform(hidden_size, (4 * hidden_size, hidden_size)),
                      b=uniform(hidden_size, (4 * hidden_size,)))


def gate_params(p, gate):
    """(w_i, b_i, w_h, b_h) of one gate, as index slices of the fused
    tensors (gate order ifog); the one fused bias takes the b_i slot and
    zero the b_h slot."""
    k = "ifog".index(gate)
    rows = slice(k * p.hidden_size, (k + 1) * p.hidden_size)
    return p.w_x[rows], p.b[rows], p.w_h[rows], Tensor(np.zeros(p.hidden_size))


def lstm_reference(a, h, c, p):
    """Direct evaluation of the six gate equations."""

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def gate(name, activation):
        w_i, b_i, w_h, b_h = (t.data for t in gate_params(p, name))
        return activation(w_i @ a + b_i + w_h @ h + b_h)

    i, f, g, o = gate("i", sig), gate("f", sig), gate("g", np.tanh), gate("o", sig)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestConv1d:
    def test_moving_sum(self):
        out = conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0, 1.0]]]), Tensor([0.0]))
        assert np.allclose(out.data, [[3.0, 5.0]])

    def test_zero_input_yields_bias(self, rng):
        w = Tensor(rng.normal(size=(3, 2, 4)))
        out = conv1d(Tensor(np.zeros((2, 16))), w, Tensor([1.0, -2.0, 0.5]), stride=2, padding=1)
        assert np.allclose(out.data, np.array([1.0, -2.0, 0.5])[:, None] * np.ones((3, out.data.shape[1])))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 3), (3, 2)])
    def test_matches_naive_oracle(self, rng, stride, padding):
        x = rng.normal(size=(4, 32))
        w = rng.normal(size=(8, 4, 5))
        b = rng.normal(size=8)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert np.max(np.abs(out.data - conv1d_naive(x, w, b, stride, padding))) < 1e-12

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.ones((3, 8))), Tensor(np.ones((2, 4, 3))), Tensor(np.zeros(2)))

    def test_kernel_wider_than_input_raises(self):
        with pytest.raises(ContractError):
            conv1d(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 1, 9))), Tensor(np.zeros(1)))

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        target = rng.normal(size=(3, 6))
        mse_loss(conv1d(x, w, b, stride=2, padding=1), Tensor(target)).backward()

        def f():
            pred = conv1d_naive(x.data, w.data, b.data, 2, 1)
            return float(np.mean((pred - target) ** 2))

        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


class TestDeconv1d:
    def test_single_tap_spread(self):
        out = deconv1d(Tensor([[1.0]]), Tensor([[[1.0, 2.0, 3.0]]]), Tensor([0.0]))
        assert np.allclose(out.data, [[1.0, 2.0, 3.0]])

    def test_restores_conv_input_length(self, rng):
        x = rng.normal(size=(2, 20))
        w = rng.normal(size=(5, 2, 3))
        y = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(5)))
        back = deconv1d(y, Tensor(np.moveaxis(w, 0, 0)), Tensor(np.zeros(2)))
        # stride 1, padding 0, same kernel width: 20 -> 18 -> 20
        assert y.data.shape == (5, 18)
        assert back.data.shape == (2, 20)

    @pytest.mark.parametrize("cin,cout,t,k,stride,padding", [
        (3, 5, 16, 4, 2, 1),
        (2, 4, 21, 3, 1, 0),
        (4, 2, 10, 6, 2, 2),
        (1, 7, 10, 4, 3, 0),
    ])
    def test_adjoint_identity_with_conv(self, rng, cin, cout, t, k, stride, padding):
        # remainder-free shapes: conv consumes the whole padded input
        assert (t + 2 * padding - k) % stride == 0
        x = rng.normal(size=(cin, t))
        w = rng.normal(size=(cout, cin, k))
        cx = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(cout)), stride, padding).data
        assert cx.shape == (cout, (t + 2 * padding - k) // stride + 1)
        y = rng.normal(size=cx.shape)
        dy = deconv1d(Tensor(y), Tensor(w), Tensor(np.zeros(cin)), stride, padding).data
        assert dy.shape == (cin, t)
        assert abs(float(np.vdot(cx, y)) - float(np.vdot(x, dy))) < 1e-10

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            deconv1d(Tensor(np.ones((3, 8))), Tensor(np.ones((2, 4, 3))), Tensor(np.zeros(4)))

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        target = rng.normal(size=(2, 12))  # (6 - 1) * 2 - 2 * 1 + 4
        mse_loss(deconv1d(x, w, b, stride=2, padding=1), Tensor(target)).backward()

        def f():
            from wavedetect.autodiff import no_grad
            with no_grad():
                pred = deconv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), 2, 1).data
            return float(np.mean((pred - target) ** 2))

        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


class TestLstmCell:
    """One step of the LSTM: a one-step ``lstm_sequence``."""

    def make_params(self, input_size, hidden_size, seed=3):
        return lstm_params(input_size, hidden_size, seed)

    def zero_params(self, input_size, hidden_size):
        p = self.make_params(input_size, hidden_size)
        for _, t in p.named():
            t.data[...] = 0.0
        return p

    def test_all_zero_weights_and_state(self):
        p = self.zero_params(2, 3)
        h, c = lstm_step(Tensor(np.zeros(2)), Tensor(np.zeros(3)), Tensor(np.zeros(3)), p)
        # i = f = o = 0.5 and g = 0, so both outputs stay zero
        assert np.allclose(c.data, 0.0)
        assert np.allclose(h.data, 0.0)

    def test_forget_gate_arithmetic(self):
        p = self.zero_params(1, 1)
        h, c = lstm_step(Tensor([0.0]), Tensor([0.0]), Tensor([1.0]), p)
        assert np.allclose(c.data, [0.5])
        assert np.allclose(h.data, [0.5 * np.tanh(0.5)])
        assert abs(h.data[0] - 0.23105857863) < 1e-9

    def test_matches_six_equation_oracle(self, rng):
        p = self.make_params(3, 2, seed=11)
        a, h0, c0 = rng.normal(size=3), rng.normal(size=2), rng.normal(size=2)
        h, c = lstm_step(Tensor(a), Tensor(h0), Tensor(c0), p)
        h_ref, c_ref = lstm_reference(a, h0, c0, p)
        assert np.max(np.abs(h.data - h_ref)) < 1e-12
        assert np.max(np.abs(c.data - c_ref)) < 1e-12

    def test_cell_state_conservation(self):
        # saturate the forget gate open and the input gate closed
        p = self.zero_params(2, 3)
        p.b.data[3:6] = 40.0  # forget rows
        p.b.data[0:3] = -40.0  # input rows
        c_prev = np.array([0.3, -1.2, 2.0])
        _, c = lstm_step(Tensor(np.zeros(2)), Tensor(np.zeros(3)), Tensor(c_prev), p)
        assert np.allclose(c.data, c_prev, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        p = self.make_params(3, 2)
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), p)
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros(3)), Tensor(np.zeros(5)), Tensor(np.zeros(2)), p)


class TestLinear:
    def test_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        out = linear(Tensor(np.ones(4)), Tensor(np.zeros((2, 4))), Tensor([5.0, -1.0]))
        assert np.allclose(out.data, [5.0, -1.0])

    def test_matches_dot_product_oracle(self, rng):
        x, w, b = rng.normal(size=5), rng.normal(size=(3, 5)), rng.normal(size=3)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        ref = np.array([sum(w[o, i] * x[i] for i in range(5)) + b[o] for o in range(3)])
        assert np.max(np.abs(out.data - ref)) < 1e-12


class TestLosses:
    def test_mse_zero_when_equal(self, rng):
        x = rng.normal(size=(3, 4))
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_mse_value(self):
        assert mse_loss(Tensor([2.0]), Tensor([0.0])).item() == 4.0

    def test_mse_gradient_formula(self, rng):
        pred = Tensor(rng.normal(size=6), requires_grad=True)
        target = rng.normal(size=6)
        mse_loss(pred, Tensor(target)).backward()
        assert max_rel_err(pred.grad, 2.0 * (pred.data - target) / 6.0) < 1e-12

        def f():
            return float(np.mean((pred.data - target) ** 2))

        assert max_rel_err(pred.grad, numeric_grad(f, pred)) < 1e-5

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_bce_values(self):
        assert abs(bce_with_logits(Tensor([0.0]), 0).item() - np.log(2.0)) < 1e-12
        assert abs(bce_with_logits(Tensor([0.0]), 1).item() - np.log(2.0)) < 1e-12
        assert abs(bce_with_logits(Tensor([np.log(9.0)]), 0).item() - (-np.log(0.1))) < 1e-12
        assert bce_with_logits(Tensor([25.0]), 1).item() < 1e-10
        # far in the wrong tail the loss grows linearly instead of sticking
        assert bce_with_logits(Tensor([-800.0]), 1).item() == 800.0

    def test_bce_domain_error(self):
        with pytest.raises(ShapeError):
            bce_with_logits(Tensor([0.5, 0.5]), 1)
        with pytest.raises(ContractError):
            bce_with_logits(Tensor([0.5]), 2)

    def test_bce_gradient(self):
        z = Tensor([np.log(0.3 / 0.7)], requires_grad=True)  # sigmoid(z) = 0.3
        bce_with_logits(z, 1).backward()
        assert abs(z.grad[0] - (0.3 - 1.0)) < 1e-12

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("z", [-50.0, -3.0, 0.0, 3.0, 50.0])
    def test_bce_with_logits_gradcheck(self, z, label):
        logit = Tensor([z], requires_grad=True)
        bce_with_logits(logit, label).backward()

        def f():
            with no_grad():
                return bce_with_logits(Tensor(logit.data), label).item()

        assert max_rel_err(logit.grad, numeric_grad(f, logit)) < 1e-6

    @pytest.mark.parametrize("label", [0, 1])
    def test_bce_with_logits_matches_clamped_probability_loss(self, label):
        """Where the clamps of the probability form (1e-7 on the sigmoid,
        1e-12 before the log) are inactive, the logit form gives the same
        loss and gradient to within 1e-12. The points stop at |z| = 6: past
        that, 1 - p in the probability form loses more than 1e-12 to
        cancellation by itself."""
        for z in (-6.0, -3.0, -0.5, 0.0, 0.7, 3.0, 6.0):
            loss, grad = _clamped_probability_bce(z, label)
            logit = Tensor([z], requires_grad=True)
            new = bce_with_logits(logit, label)
            new.backward()
            assert abs(new.item() - loss) < 1e-12, z
            assert abs(logit.grad[0] - grad) < 1e-12, z

    @pytest.mark.parametrize("label,z", [(1, -30.0), (0, 30.0)])
    def test_head_saturated_the_wrong_way_keeps_its_gradient(self, label, z):
        # The probability form clamps sigmoid(z) at 1e-7 from either end, so
        # past |z| ~ 16.1 its loss sticks at 16.1 and its gradient is 0.
        logit = Tensor([z], requires_grad=True)
        loss = bce_with_logits(logit, label)
        loss.backward()
        assert abs(loss.item() - 30.0) < 1e-12
        assert abs(logit.grad[0] - (1.0 - 2.0 * label)) < 1e-12


def _clamped_probability_bce(z, label):
    """Loss and d(loss)/dz of the probability form the logit form replaced:
    p = clamp(sigmoid(z), 1e-7, 1 - 1e-7), then -log(clamp(p, 1e-12, 1 - 1e-12))
    or -log(1 - clamp(...)), with the gradient chained op by op as the graph
    did."""
    s = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    p = min(max(s, 1e-7), 1.0 - 1e-7)
    q = p if label == 1 else 1.0 - p
    loss = -np.log(q)
    dq = -1.0 / q
    dp = dq if label == 1 else -dq
    return loss, dp * s * (1.0 - s)


def test_composite_chain_gradients_match_finite_differences(rng):
    """conv -> lstm -> linear -> mse, checked end to end against FD."""
    x = rng.normal(size=(2, 10))
    conv_w = Tensor(rng.normal(size=(3, 2, 4)) * 0.5, requires_grad=True)
    conv_b = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    p = lstm_params(3, 2, 5)
    out_w = Tensor(rng.normal(size=(2, 2)) * 0.5, requires_grad=True)
    out_b = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    target = rng.normal(size=2)

    def forward():
        acts = conv1d(Tensor(x), conv_w, conv_b, stride=2, padding=1)
        h = Tensor(np.zeros(2))
        c = Tensor(np.zeros(2))
        for t in range(acts.data.shape[1]):
            h, c = lstm_step(acts[:, t], h, c, p)
        return mse_loss(linear(h, out_w, out_b), Tensor(target))

    forward().backward()
    params = [conv_w, conv_b, out_w, out_b] + [t for _, t in p.named()]

    def f():
        from wavedetect.autodiff import no_grad
        with no_grad():
            return forward().item()

    for t in params:
        assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


class TestBatchAxis:
    """A leading batch axis gives exactly the per-sample results."""

    def test_conv1d_and_deconv1d(self, rng):
        x = rng.normal(size=(3, 4, 16))
        w = rng.normal(size=(5, 4, 4))
        b = rng.normal(size=5)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        back = deconv1d(Tensor(out), Tensor(w), Tensor(b[:4]), stride=2, padding=1).data
        for i in range(3):
            one = conv1d(Tensor(x[i]), Tensor(w), Tensor(b), stride=2, padding=1).data
            assert np.array_equal(out[i], one)
            assert np.array_equal(back[i], deconv1d(Tensor(one), Tensor(w), Tensor(b[:4]), 2, 1).data)

    def test_batched_conv_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        dw = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        db = Tensor(rng.normal(size=2), requires_grad=True)
        target = rng.normal(size=(2, 2, 12))

        def forward():
            mid = relu(conv1d(x, w, b, stride=2, padding=1))
            return tsum(mul(deconv1d(mid, dw, db, stride=2, padding=1), Tensor(target)))

        forward().backward()

        def f():
            with no_grad():
                return forward().item()

        for t in (x, w, dw, b, db):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6

    def test_linear(self, rng):
        x, w, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        for i in range(4):
            assert np.max(np.abs(out[i] - linear(Tensor(x[i]), Tensor(w), Tensor(b)).data)) < 1e-15

    def test_mse_loss_per_sample(self, rng):
        pred, target = rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 8))
        per = mse_loss(Tensor(pred), Tensor(target)).data
        assert per.shape == (3,)
        for i in range(3):
            assert per[i] == mse_loss(Tensor(pred[i]), Tensor(target[i])).item()


def _lstm_inputs(rng, batch, nin=3, hid=2, steps=4, seed=17):
    lead = () if batch is None else (batch,)
    x = Tensor(rng.normal(size=lead + (nin, steps)), requires_grad=True)
    h0 = Tensor(rng.normal(size=lead + (hid,)) * 0.5, requires_grad=True)
    c0 = Tensor(rng.normal(size=lead + (hid,)) * 0.5, requires_grad=True)
    return x, h0, c0, lstm_params(nin, hid, seed)


class TestLstmSequence:
    """One sequence: a list of one."""

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_step_by_step_oracle(self, rng, batch, reverse):
        x, h0, c0, p = _lstm_inputs(rng, batch)
        [(hs, h, c)] = lstm_sequence([x], [h0], [c0], [p], reverse=reverse)
        xs = x.data.reshape(-1, 3, 4)
        for i in range(xs.shape[0]):
            hi, ci = h0.data.reshape(-1, 2)[i], c0.data.reshape(-1, 2)[i]
            order = range(3, -1, -1) if reverse else range(4)
            for t in order:
                hi, ci = lstm_reference(xs[i, :, t], hi, ci, p)
                assert np.max(np.abs(hs.data.reshape(-1, 2, 4)[i, :, t] - hi)) < 1e-14
            assert np.max(np.abs(h.data.reshape(-1, 2)[i] - hi)) < 1e-14
            assert np.max(np.abs(c.data.reshape(-1, 2)[i] - ci)) < 1e-14

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, rng, batch, reverse):
        """Every input and all three parameter tensors, through all three outputs."""
        x, h0, c0, p = _lstm_inputs(rng, batch)
        w_seq = Tensor(rng.normal(size=(batch, 2, 4)))
        w_h = Tensor(rng.normal(size=(batch, 2)))
        w_c = Tensor(rng.normal(size=(batch, 2)))

        def forward():
            [(hs, h, c)] = lstm_sequence([x], [h0], [c0], [p], reverse=reverse)
            return add(add(tsum(mul(hs, w_seq)), tsum(mul(h, w_h))), tsum(mul(c, w_c)))

        forward().backward()

        def f():
            with no_grad():
                return forward().item()

        named = [("x", x), ("h0", h0), ("c0", c0)] + list(p.named())
        assert len(named) == 6
        for name, t in named:
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6, name

    def test_cell_is_one_step_sequence(self, rng):
        x, h0, c0, p = _lstm_inputs(rng, 3, steps=1)
        [(_, h_seq, c_seq)] = lstm_sequence([x], [h0], [c0], [p])
        h, c = lstm_step(Tensor(x.data[:, :, 0]), h0, c0, p)
        assert np.array_equal(h.data, h_seq.data)
        assert np.array_equal(c.data, c_seq.data)

    def test_shape_errors(self, rng):
        x, h0, c0, p = _lstm_inputs(rng, 2)
        with pytest.raises(ShapeError):
            lstm_sequence([Tensor(np.zeros((2, 4, 5)))], [h0], [c0], [p])
        with pytest.raises(ShapeError):
            lstm_sequence([x], [Tensor(np.zeros(2))], [c0], [p])
        with pytest.raises(ShapeError):
            lstm_sequence([Tensor(np.zeros((2, 3, 0)))], [h0], [c0], [p])

    def test_feedback_matches_explicit_feedback_loop(self, rng):
        p = lstm_params(3, 4, 2)
        head_w, head_b = rng.normal(size=(3, 4)), rng.normal(size=3)
        h0, c0 = rng.normal(size=(2, 4)), np.zeros((2, 4))
        [hs] = lstm_feedback([h0], [c0], [p], [head_w], [head_b], [5], reverse=True)
        for i in range(2):
            h, c, step_in = h0[i], c0[i], np.zeros(3)
            for t in range(4, -1, -1):
                h, c = lstm_reference(step_in, h, c, p)
                assert np.max(np.abs(hs[i, :, t] - h)) < 1e-12
                step_in = head_w @ h + head_b


# The single-sequence scan and BPTT that ran one call per sequence before
# all sequences shared one time loop, kept as the reference the shared loop
# must reproduce bit for bit.


def _single_scan(zx, h0, c0, wh_t):
    steps, nb, g4 = zx.shape
    hid = g4 // 4
    hs = np.empty((steps + 1, nb, hid))
    hs[0] = h0
    h_rows = hs[:, :, None, :]
    z_rows = np.empty((nb, 1, g4))
    a = z_rows.reshape(nb, g4)
    sig, i, f, o, g = a[:, : 3 * hid], *(a[:, k * hid : (k + 1) * hid] for k in range(4))
    c = np.array(c0, dtype=np.float64)
    ig, tc = np.empty((nb, hid)), np.empty((nb, hid))
    acts, cs, tcs = np.empty((steps, nb, g4)), np.empty((steps + 1, nb, hid)), np.empty((steps, nb, hid))
    cs[0] = c
    for t in range(steps):
        np.matmul(h_rows[t], wh_t, out=z_rows)
        a += zx[t]
        np.tanh(a, out=a)
        sig *= 0.5
        sig += 0.5
        c *= f
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hs[t + 1])
        acts[t], cs[t + 1], tcs[t] = a, c, tc
    return hs, c, (acts, cs, tcs)


def _single_scan_grad(acts, cs, tcs, wh, dhs, dc):
    steps, nb, g4 = acts.shape
    hid = g4 // 4
    i, f, o, g = (acts[..., k * hid : (k + 1) * hid] for k in range(4))
    coef = np.empty((steps, nb, 4, hid))
    coef[:, :, 0] = g * i * (1.0 - i)
    coef[:, :, 1] = cs[:-1] * f * (1.0 - f)
    coef[:, :, 2] = tcs * o * (1.0 - o)
    coef[:, :, 3] = i * (1.0 - g * g)
    dc_dh = o * (1.0 - tcs * tcs)
    dz = np.empty((steps, nb, 4, hid))
    dz_o, coef_o = dz[:, :, 2], coef[:, :, 2]
    dz_flat = dz.reshape(steps, nb, g4)
    dh = np.zeros((nb, hid))
    for t in range(steps - 1, -1, -1):
        dh = dh + dhs[t]
        dc = dc + dh * dc_dh[t]
        np.multiply(coef[t], dc[:, None, :], out=dz[t])
        np.multiply(dh, coef_o[t], out=dz_o[t])
        dh = dz_flat[t] @ wh
        dc = dc * f[t]
    return dz_flat, dh, dc


def single_sequence_reference(x, h0, c0, p, reverse, d_hs, d_h, d_c):
    """(hs, h, c) of one sequence, and the gradients of x, h0, c0, w_x, w_h
    and b given upstream gradients of the three outputs, all (B,...)."""
    nb, nin, steps = x.shape
    hid = p.hidden_size
    wx, wh, b = p.w_x.data, p.w_h.data, p.b.data
    half = np.repeat([0.5, 1.0], [3 * hid, hid])
    zx = ((wx * half[:, None]) @ x + (b * half)[:, None]).transpose(2, 0, 1)
    hs, c, saved = _single_scan(zx[::-1] if reverse else zx, h0, c0, (wh * half[:, None]).T)
    hs_time = (hs[:0:-1] if reverse else hs[1:]).transpose(1, 2, 0)
    dhs = d_hs.copy()
    dhs[..., 0 if reverse else steps - 1] += d_h
    dhs = dhs.transpose(2, 0, 1)
    dz, dh0, dc0 = _single_scan_grad(*saved, wh, dhs[::-1] if reverse else dhs, d_c)
    h_in = hs[:-1]
    if reverse:
        dz, h_in = dz[::-1], h_in[::-1]
    dz = dz.transpose(1, 2, 0)
    grads = (np.matmul(wx.T, dz), dh0, dc0, np.tensordot(dz, x, axes=([0, 2], [0, 2])),
             np.tensordot(dz, h_in, axes=([0, 2], [1, 0])), dz.sum(axis=(0, 2)))
    return (hs_time, hs_time[..., 0 if reverse else steps - 1], c), grads


# Three sequences of unequal lengths and input sizes, as the model's scales:
# (input size, steps).
_SPECS = ((3, 6), (2, 3), (4, 2))
_ALIGNED = ((3, 24), (2, 16), (4, 8))


def _multi_inputs(rng, batch, specs=_SPECS, hid=2):
    return [_lstm_inputs(rng, batch, nin, hid, steps, seed=17 + s) for s, (nin, steps) in enumerate(specs)]


def _run_multi(seqs, reverse):
    return lstm_sequence(*([s[q] for s in seqs] for q in range(4)), reverse=reverse)


class TestMultiSequence:
    """All sequences share one time loop, and a sequence drops out of it once
    its own steps are done."""

    def test_phases(self):
        assert list(_phases([128, 64, 32, 16])) == [(0, 16, 4), (16, 32, 3), (32, 64, 2), (64, 128, 1)]
        assert list(_phases([5, 5, 0])) == [(0, 5, 2)]
        # The default model's LSTMs: 128 loop steps per pass, not 128+64+32+16.
        assert sum(end - start for start, end, _ in _phases([128, 64, 32, 16])) == 128

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("specs", [_ALIGNED, _SPECS], ids=["aligned", "odd"])
    def test_matches_single_sequence_reference(self, rng, specs, batch, reverse):
        """Outputs and every gradient equal the per-sequence loop's.

        Each phase hoists its own input projection, a product over the
        phase's steps only. With phase widths that are multiples of 8, like
        the model's, BLAS gives each column what the whole-sequence product
        gives, and everything is bit-identical. A narrower phase can take
        another kernel (one column is a matrix-vector product), which moves
        results in the last bits: within 1e-12 relative.
        """
        seqs = _multi_inputs(rng, batch, specs)
        outputs = _run_multi(seqs, reverse)
        lead = () if batch is None else (batch,)
        ups = [[rng.normal(size=out.shape) for out in triple] for triple in outputs]
        loss = Tensor(0.0)
        for triple, up in zip(outputs, ups):
            for out, w in zip(triple, up):
                loss = add(loss, tsum(mul(out, Tensor(w))))
        loss.backward()

        def check(got, want):
            if specs is _ALIGNED:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

        nb = 1 if batch is None else batch
        for (x, h0, c0, p), triple, up in zip(seqs, outputs, ups):
            lifted = [a.reshape((nb,) + a.shape[len(lead):]) for a in (x.data, h0.data, c0.data, *up)]
            ref_out, ref_grads = single_sequence_reference(*lifted[:3], p, reverse, *lifted[3:])
            for got, want in zip(triple, ref_out):
                check(got.data, want.reshape(got.shape))
            for t, want in zip([x, h0, c0, p.w_x, p.w_h, p.b], ref_grads):
                check(t.grad, want.reshape(t.shape))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, rng, batch, reverse):
        """Every input and parameter of every sequence, through all outputs."""
        seqs = _multi_inputs(rng, batch)
        weights = [[Tensor(rng.normal(size=(batch, 2) + extra)) for extra in ((steps,), (), ())]
                   for _, steps in _SPECS]

        def forward():
            loss = Tensor(0.0)
            for triple, ws in zip(_run_multi(seqs, reverse), weights):
                for out, w in zip(triple, ws):
                    loss = add(loss, tsum(mul(out, w)))
            return loss

        forward().backward()

        def f():
            with no_grad():
                return forward().item()

        for s, (x, h0, c0, p) in enumerate(seqs):
            named = [("x", x), ("h0", h0), ("c0", c0)] + list(p.named())
            for name, t in named:
                assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6, (s, name)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_equals_per_sample(self, rng, reverse):
        seqs = _multi_inputs(rng, 3)
        with no_grad():
            batched = _run_multi(seqs, reverse)
            for i in range(3):
                one = _run_multi([[Tensor(t.data[i]) for t in s[:3]] + [s[3]] for s in seqs], reverse)
                for triple, single in zip(batched, one):
                    for got, want in zip(triple, single):
                        assert np.array_equal(got.data[i], want.data)

    def test_feedback_matches_per_sequence_reference(self, rng):
        """Three sequences in one loop give what each gives alone, which is
        the explicit feedback loop."""
        steps = [5, 3, 1]
        params = [lstm_params(3, 4, 2 + s) for s in range(3)]
        heads = [(rng.normal(size=(3, 4)), rng.normal(size=3)) for _ in range(3)]
        h0s = [rng.normal(size=(2, 4)) for _ in range(3)]
        c0s = [rng.normal(size=(2, 4)) * 0.5 for _ in range(3)]
        for reverse in (False, True):
            together = lstm_feedback(h0s, c0s, params, [w for w, _ in heads], [b for _, b in heads],
                                     steps, reverse=reverse)
            for s, hs in enumerate(together):
                [alone] = lstm_feedback([h0s[s]], [c0s[s]], [params[s]], [heads[s][0]], [heads[s][1]],
                                        [steps[s]], reverse=reverse)
                assert np.array_equal(hs, alone)
                order = range(steps[s] - 1, -1, -1) if reverse else range(steps[s])
                for i in range(2):
                    h, c, step_in = h0s[s][i], c0s[s][i], np.zeros(3)
                    for t in order:
                        h, c = lstm_reference(step_in, h, c, params[s])
                        assert np.max(np.abs(hs[i, :, t] - h)) < 1e-12
                        step_in = heads[s][0] @ h + heads[s][1]

    def test_shape_errors(self, rng):
        seqs = _multi_inputs(rng, 2)
        x, h0, c0, p = (list(group) for group in zip(*seqs))
        with pytest.raises(ShapeError, match="must not increase"):
            lstm_sequence(x[::-1], h0[::-1], c0[::-1], p[::-1])
        with pytest.raises(ShapeError):  # one sequence without the batch axis
            lstm_sequence([x[0], Tensor(x[1].data[0]), x[2]], h0, c0, p)
        with pytest.raises(ShapeError):  # batch sizes differ
            lstm_sequence([x[0], Tensor(x[1].data[:1]), x[2]], h0, c0, p)
        with pytest.raises(ShapeError):  # wrong input size for its weights
            lstm_sequence([x[0], x[2], x[2]], h0, c0, p)
        with pytest.raises(ShapeError):  # one weight set too few
            lstm_sequence(x, h0, c0, p[:2])
        with pytest.raises(ShapeError):  # hidden sizes differ
            lstm_sequence(x[:2], h0[:2], c0[:2], [p[0], lstm_params(2, 3, 0)])
        with pytest.raises(ShapeError, match="must not increase"):
            lstm_feedback([h.data for h in h0[:2]], [c.data for c in c0[:2]], p[:1] * 2,
                          [np.zeros((3, 2))] * 2, [np.zeros(3)] * 2, [2, 3])


# The LSTM composition the model used before the fused sequence op: four
# per-gate graphs per step, built from the autodiff primitives.


def _per_gate(w_i, b_i, w_h, b_h, a, h, activation):
    return activation(add(add(matmul(w_i, a), b_i), add(matmul(w_h, h), b_h)))


def _per_gate_lstm_cell(a, h, c, p):
    i = _per_gate(*gate_params(p, "i"), a, h, sigmoid)
    f = _per_gate(*gate_params(p, "f"), a, h, sigmoid)
    g = _per_gate(*gate_params(p, "g"), a, h, tanh)
    o = _per_gate(*gate_params(p, "o"), a, h, sigmoid)
    c = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c)), c


def _per_gate_reconstructions(model, inputs, teacher=True):
    cfg = model.config
    finals, taught = [], []
    for branch, values in zip(model.branches, inputs):
        acts = Tensor(values)
        for (kernels, bias), layer in zip(branch.conv, cfg.conv):
            acts = relu(conv1d(acts, kernels, bias, layer.stride, padding_for(layer)))
        h, c = Tensor(np.zeros(cfg.hidden)), Tensor(np.zeros(cfg.hidden))
        for t in range(acts.data.shape[1]):
            h, c = _per_gate_lstm_cell(acts[:, t], h, c, branch.encoder)
        finals.append(h)
        taught.append(acts)
    code = concat(finals)
    recons = []
    for branch, acts in zip(model.branches, taught):
        steps = acts.data.shape[1]
        h = add(matmul(branch.dec_init_w, code), branch.dec_init_b)
        c = Tensor(np.zeros(cfg.hidden))
        step_in = Tensor(np.zeros(cfg.conv_features))
        slots = [None] * steps
        for t in range(steps - 1, -1, -1):
            h, c = _per_gate_lstm_cell(step_in, h, c, branch.decoder)
            slots[t] = add(matmul(branch.step_w, h), branch.step_b)
            step_in = acts[:, t] if teacher else slots[t]
        out = concat([reshape(slot, (cfg.conv_features, 1)) for slot in slots])
        for i, (kernels, bias) in enumerate(branch.deconv):
            layer = cfg.conv[len(cfg.conv) - 1 - i]
            out = deconv1d(out, kernels, bias, layer.stride, padding_for(layer))
            if i < len(branch.deconv) - 1:
                out = relu(out)
        recons.append(out)
    return recons


class TestAgainstPerGateComposition:
    """The fused op reproduces the per-gate, per-step graph it replaced."""

    def setup_method(self):
        cfg = ModelConfig(channels=2, fragment_length=32, levels=2,
                          conv=(ConvLayer(4, 4, 2), ConvLayer(5, 2, 2)), hidden=3, seed=11)
        self.model = WaveletAutoencoder(cfg)
        x = np.random.default_rng(5).normal(size=(2, 32))
        self.inputs = [x, *mdwd(x, get_family("haar"), 2).details]

    def test_teacher_forced_loss_and_every_gradient_agree(self):
        model = self.model
        ref_loss = reconstruction_loss(self.inputs, _per_gate_reconstructions(model, self.inputs))
        ref_loss.backward()
        ref_grads = {name: t.grad.copy() for name, t in model.named_parameters()}
        for t in model.parameters():
            t.zero_grad()

        code, acts = model.encode(self.inputs)
        loss = reconstruction_loss(self.inputs, model.decode(code, acts))
        loss.backward()
        assert abs(loss.item() - ref_loss.item()) <= 1e-10 * ref_loss.item()
        for name, t in model.named_parameters():
            old = ref_grads[name]
            assert np.max(np.abs(t.grad - old)) <= 1e-10 * max(np.max(np.abs(old)), 1e-300), name

    def test_autoregressive_decode_agrees(self):
        with no_grad():
            ref = _per_gate_reconstructions(self.model, self.inputs, teacher=False)
            code, _ = self.model.encode(self.inputs)
            new = self.model.decode(code)
        for a, b in zip(ref, new):
            assert np.max(np.abs(a.data - b.data)) <= 1e-10 * np.max(np.abs(a.data))
