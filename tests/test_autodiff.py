import sys

import numpy as np
import pytest

import wavedetect.autodiff as autodiff
import wavedetect.nn as nn
from wavedetect.autodiff import Tensor, _node
from wavedetect.errors import ContractError, ShapeError
from wavedetect.model import ModelConfig, WaveletAutoencoder
from wavedetect.serialize import load_detector, save_detector
from wavedetect.training import Detector, TrainConfig, score_windows, train

from conftest import add, concat, matmul, max_rel_err, mul, numeric_grad, sigmoid, take, tanh, tsum


def test_scalar_chain_gradients():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    loss = tsum(add(mul(x, y), mul(x, x)))
    loss.backward()
    assert np.allclose(x.grad, [2.0 + 6.0])
    assert np.allclose(y.grad, [3.0])


def test_a_tensor_has_no_arithmetic_operators():
    """Every sum, product, sigmoid and slice of the model happens inside an
    op of ``nn``; a tensor itself offers neither arithmetic nor indexing."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    for apply in (lambda: x + x, lambda: x * 2.0, lambda: 2.0 * x, lambda: x - x,
                  lambda: x / x, lambda: x @ x, lambda: -x, lambda: x[0]):
        with pytest.raises(TypeError):
            apply()


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        mul(x, x).backward()


def test_backward_rejects_unrecorded():
    with pytest.raises(ContractError):
        Tensor([1.0]).backward()


def test_backward_walks_a_chain_deeper_than_the_recursion_limit():
    """y = x + x + ... + x, one ``add`` node per term, three times deeper
    than a recursive walk could go."""
    depth = 3 * sys.getrecursionlimit()
    x = Tensor([2.0], requires_grad=True)
    y = x
    for _ in range(depth):
        y = add(y, x)
    tsum(y).backward()
    assert np.array_equal(x.grad, [depth + 1.0])


def test_repeated_backward_accumulates():
    """Leaf grads add up across graphs; each graph is walked once."""
    x = Tensor([3.0], requires_grad=True)
    tsum(mul(x, x)).backward()
    first = x.grad.copy()
    tsum(mul(x, x)).backward()
    assert np.allclose(x.grad, 2.0 * first)


def test_second_backward_on_one_loss_raises():
    x = Tensor([3.0], requires_grad=True)
    loss = tsum(mul(x, x))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(ContractError, match="already consumed"):
        loss.backward()
    assert np.array_equal(x.grad, first)
    assert loss.grad is None


def test_backward_through_a_consumed_intermediate_raises():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    shared = mul(x, x)
    tsum(shared).backward()
    first = x.grad.copy()
    # Walked in reverse, this graph reaches leaf y before the consumed node;
    # backward checks the whole graph first, so no grad moves.
    with pytest.raises(ContractError, match="already consumed"):
        tsum(mul(shared, y)).backward()
    assert np.array_equal(x.grad, first)
    assert y.grad is None


@pytest.mark.parametrize("count", [1, 3])
def test_a_backward_returning_the_wrong_gradient_count_raises(count):
    """A vjp must return exactly one gradient, or None, per parent; a
    miscount raises rather than dropping or misplacing a gradient."""
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([2.0], requires_grad=True)
    ones = np.ones(1)
    loss = _node(1.0, (a, b), lambda g: (ones,) * count)
    with pytest.raises(ContractError, match=f"{count} gradients for 2 parents"):
        loss.backward()
    assert a.grad is None and b.grad is None


def test_only_leaf_tensors_keep_a_grad():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    prod = mul(x, y)
    loss = tsum(mul(prod, prod))
    loss.backward()
    assert prod.grad is None and loss.grad is None
    assert np.allclose(x.grad, [2.0 * 3.0 * 2.0**2])
    assert np.allclose(y.grad, [2.0 * 3.0**2 * 2.0])


def test_a_node_records_exactly_when_a_parent_requires_grad(tmp_path, monkeypatch):
    """An op on tensors that need no grad records nothing. Nor does any pass
    of a detector's model, however the detector was built: by ``train``, by
    ``load_detector``, or by hand from a model whose tensors need grad,
    which keeps them; the detector's model holds float32 casts of its arrays."""
    x = Tensor([1.0, 2.0])
    out = tsum(mul(x, x))
    assert (out.requires_grad, out._parents, out._vjp) == (False, (), None)
    with pytest.raises(ContractError):
        out.backward()
    assert tsum(mul(x, Tensor([3.0], requires_grad=True))).requires_grad

    cfg = ModelConfig(channels=2, fragment_length=32, levels=1, conv=((4, 4, 2),), hidden=3)
    windows = np.random.default_rng(5).normal(size=(3, 2, 32))
    trained = train(windows, TrainConfig(model=cfg, epochs=1))
    save_detector(trained, tmp_path / "d.wdc")
    model = WaveletAutoencoder(cfg)
    by_hand = Detector(model=model, threshold=1.0, train_loss_mean=1.0, norm_mean=np.zeros(2), norm_std=np.ones(2))
    assert all(p.requires_grad for p in model.parameters())
    for p, q in zip(model.parameters(), by_hand.model.parameters()):
        assert q.data.dtype == np.float32 and np.array_equal(q.data, p.data.astype(np.float32))

    traced = []
    trace = autodiff._trace

    def spy(parents):
        traced.append(trace(parents))
        return traced[-1]

    for module in (autodiff, nn):
        monkeypatch.setattr(module, "_trace", spy)
    for det in (trained, load_detector(tmp_path / "d.wdc"), by_hand):
        score_windows(det, windows)
    assert traced and not any(traced)


@pytest.mark.parametrize("op,ref", [
    (sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
    (tanh, np.tanh),
])
def test_unary_op_gradients(op, ref, rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    loss = tsum(op(x))
    loss.backward()
    assert np.allclose(op(x).data, ref(x.data))

    def f():
        return float(ref(x.data).sum())

    assert max_rel_err(x.grad, numeric_grad(f, x)) < 1e-5


def test_concat_splits_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    out = concat([a, b])
    assert np.allclose(out.data, [1.0, 2.0, 3.0])
    tsum(mul(out, Tensor([1.0, 2.0, 3.0]))).backward()
    assert np.allclose(a.grad, [1.0, 2.0])
    assert np.allclose(b.grad, [3.0])


def test_take_and_concat_roundtrip(rng):
    mat = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    rebuilt = concat([take(mat, (slice(None), slice(t, t + 1))) for t in range(4)])
    assert np.array_equal(rebuilt.data, mat.data)
    tsum(mul(rebuilt, rebuilt)).backward()
    assert max_rel_err(mat.grad, 2.0 * mat.data) < 1e-12


def test_diamond_graph_accumulates_through_shared_node():
    x = Tensor([2.0], requires_grad=True)
    y = mul(x, x)      # reused twice below
    loss = tsum(add(y, y))
    loss.backward()
    assert np.allclose(x.grad, [8.0])


def test_determinism_bitwise(rng):
    data = rng.normal(size=(4, 4))
    runs = []
    for _ in range(2):
        x = Tensor(data.copy(), requires_grad=True)
        loss = tsum(mul(tanh(matmul(x, take(x, 0))), sigmoid(take(x, (slice(None), 1)))))
        loss.backward()
        runs.append((loss.data.copy(), x.grad.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_concat_along_last_axis(rng):
    a = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 1)), requires_grad=True)
    out = concat([a, b])
    assert np.array_equal(out.data[..., 2], b.data[..., 0])
    weights = rng.normal(size=(2, 3, 3))
    tsum(mul(out, Tensor(weights))).backward()
    assert np.array_equal(a.grad, weights[..., :2])
    assert np.array_equal(b.grad, weights[..., 2:])
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((3, 3, 1)))])

