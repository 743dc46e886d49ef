import numpy as np

from wavedetect.autodiff import Tensor
from wavedetect.optim import Adam


def adam_reference(values, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook recurrence, evaluated step by step."""
    theta = values.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_first_step_closed_form():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam([p])
    opt.step()
    assert opt.step_count == 1
    assert abs(p.data[0] + 0.001 / (1.0 + 1e-8)) < 1e-15


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor([1.5, -2.0], requires_grad=True)
    opt = Adam([p])
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step()
    assert np.array_equal(p.data, [1.5, -2.0])



def test_two_steps_match_recurrence_oracle():
    start = np.array([0.2, -0.7, 1.1])
    g = np.array([0.5, -1.5, 2.0])
    p = Tensor(start.copy(), requires_grad=True)
    opt = Adam([p], lr=0.01)
    for _ in range(2):
        p.grad = g.copy()
        opt.step()
    expected = adam_reference(start, [g, g], lr=0.01)
    assert np.max(np.abs(p.data - expected)) < 1e-12


def test_many_steps_match_recurrence_oracle(rng):
    start = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(7)]
    p = Tensor(start.copy(), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    assert np.max(np.abs(p.data - adam_reference(start, grads, lr=0.05))) < 1e-12


def test_moment_buffers_zero_initialized_and_aligned():
    p = Tensor(np.ones((2, 3)), requires_grad=True)
    opt = Adam([p])
    assert opt.step_count == 0
    assert opt.first_moment[0].shape == (2, 3)
    assert not opt.first_moment[0].any()
    assert not opt.second_moment[0].any()




def test_zero_grad_clears_buffers():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    opt = Adam([p])
    opt.zero_grad()
    assert p.grad is None
