import numpy as np
import pytest

from wavedetect.autodiff import (
    Tensor,
    concat,
    index,
    matmul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    tanh,
    tmean,
    tsum,
)
from wavedetect.errors import ContractError, ShapeError

from conftest import max_rel_err, numeric_grad


def test_scalar_chain_gradients():
    x = Tensor([3.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    loss = tsum(x * y + x * x)
    loss.backward()
    assert np.allclose(x.grad, [2.0 + 6.0])
    assert np.allclose(y.grad, [3.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_rejects_unrecorded():
    with pytest.raises(ContractError):
        Tensor([1.0]).backward()


def test_repeated_backward_accumulates():
    x = Tensor([3.0], requires_grad=True)
    loss = tsum(x * x)
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.allclose(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_no_grad_blocks_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        out = tsum(x * x)
    assert not out.requires_grad
    with pytest.raises(ContractError):
        out.backward()


def test_broadcast_add_and_mul_gradients():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = tsum((a + b) * b)
    loss.backward()

    def f():
        return float(((a.data + b.data) * b.data).sum())

    assert max_rel_err(a.grad, numeric_grad(f, a)) < 1e-6
    assert max_rel_err(b.grad, numeric_grad(f, b)) < 1e-6


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


def test_relu_gradient_masks_negative_side():
    x = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
    tsum(relu(x)).backward()
    assert np.allclose(x.grad, [0.0, 0.0, 1.0, 1.0])


def test_matmul_gradients(rng):
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=4), requires_grad=True)
    loss = tsum(matmul(w, x))
    loss.backward()

    def f():
        return float((w.data @ x.data).sum())

    assert max_rel_err(w.grad, numeric_grad(f, w)) < 1e-6
    assert max_rel_err(x.grad, numeric_grad(f, x)) < 1e-6


def test_matmul_2d_2d_gradients(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    tsum(matmul(a, b)).backward()

    def f():
        return float((a.data @ b.data).sum())

    assert max_rel_err(a.grad, numeric_grad(f, a)) < 1e-6
    assert max_rel_err(b.grad, numeric_grad(f, b)) < 1e-6


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))


def test_mean_gradient_is_uniform():
    x = Tensor(np.arange(8.0), requires_grad=True)
    tmean(x).backward()
    assert np.allclose(x.grad, np.full(8, 1.0 / 8.0))


def test_concat_splits_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    out = concat([a, b])
    assert np.allclose(out.data, [1.0, 2.0, 3.0])
    tsum(out * Tensor([1.0, 2.0, 3.0])).backward()
    assert np.allclose(a.grad, [1.0, 2.0])
    assert np.allclose(b.grad, [3.0])


def test_index_and_concat_roundtrip(rng):
    mat = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    rebuilt = concat([mat[:, t : t + 1] for t in range(4)])
    assert np.array_equal(rebuilt.data, mat.data)
    tsum(rebuilt * rebuilt).backward()
    assert max_rel_err(mat.grad, 2.0 * mat.data) < 1e-12


def test_diamond_graph_accumulates_through_shared_node():
    x = Tensor([2.0], requires_grad=True)
    y = x * x          # reused twice below
    loss = tsum(y + y)
    loss.backward()
    assert np.allclose(x.grad, [8.0])


def test_determinism_bitwise(rng):
    data = rng.normal(size=(4, 4))
    runs = []
    for _ in range(2):
        x = Tensor(data.copy(), requires_grad=True)
        loss = tsum(tanh(matmul(x, x)) * sigmoid(x))
        loss.backward()
        runs.append((loss.data.copy(), x.grad.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_batched_matmul_gradients(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
    out = matmul(a, b)
    assert out.shape == (4, 2, 5)
    assert np.allclose(out.data[1], a.data @ b.data[1])
    weights = rng.normal(size=(4, 2, 5))
    tsum(out * Tensor(weights)).backward()

    def f():
        return float(np.sum((a.data @ b.data) * weights))

    assert max_rel_err(a.grad, numeric_grad(f, a)) < 1e-6
    assert max_rel_err(b.grad, numeric_grad(f, b)) < 1e-6


def test_mean_over_axes():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    per = tmean(x, axis=(1, 2))
    assert np.allclose(per.data, [5.5, 17.5])
    tsum(per * Tensor([1.0, 3.0])).backward()
    assert np.allclose(x.grad[0], 1.0 / 12.0)
    assert np.allclose(x.grad[1], 3.0 / 12.0)


def test_concat_along_last_axis(rng):
    a = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 1)), requires_grad=True)
    out = concat([a, b])
    assert np.array_equal(out.data[..., 2], b.data[..., 0])
    weights = rng.normal(size=(2, 3, 3))
    tsum(out * Tensor(weights)).backward()
    assert np.array_equal(a.grad, weights[..., :2])
    assert np.array_equal(b.grad, weights[..., 2:])
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((3, 3, 1)))])


def test_index_and_reshape_route_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    picked = index(x, (Ellipsis, 1))
    assert np.array_equal(picked.data, x.data[..., 1])
    assert np.array_equal(x[0, :, 1:].data, x.data[0, :, 1:])
    flat = reshape(picked, (6,))
    tsum(flat * Tensor(np.arange(6.0))).backward()
    expected = np.zeros((2, 3, 4))
    expected[..., 1] = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(x.grad, expected)
