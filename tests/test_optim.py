import tracemalloc

import numpy as np
import pytest

from convrnnt.config import OptimizerConfig
from convrnnt.errors import ConfigError, TrainingError
from convrnnt.optim import SLICE, Adam, lr_at
from convrnnt.tensor import Tensor, linear


def test_schedule_pins():
    sched = OptimizerConfig()  # peak 0.002, warmup 10000
    assert lr_at(10_000, sched) == 0.002
    assert lr_at(5_000, sched) == 0.001
    assert lr_at(40_000, sched) == 0.001


def test_schedule_shape():
    sched = OptimizerConfig()
    assert lr_at(1, sched) == 0.002 / 10_000
    assert lr_at(2_500, sched) == pytest.approx(0.0005)
    assert lr_at(9_999, sched) < 0.002 < lr_at(10_000, sched) + 1e-18
    # decay is monotone after the peak
    values = [lr_at(s, sched) for s in range(10_000, 50_000, 1_000)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_rejects_step_zero():
    with pytest.raises(ConfigError):
        lr_at(0, OptimizerConfig())


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([("p", p)], OptimizerConfig(l2=0.0))
    for _ in range(400):
        opt.zero_grad()
        p.grad[...] = 2.0 * p.data
        opt.step(0.05)
    assert np.max(np.abs(p.data)) < 1e-3


def test_l2_injection_is_exactly_2_lambda_w():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(16)
    p = Tensor(w.copy(), requires_grad=True)
    opt = Adam([("p", p)], OptimizerConfig(l2=1e-6))
    p.grad[...] = np.zeros_like(w)
    opt.step(0.0)  # lr 0: parameters untouched, moments expose the gradient
    assert np.array_equal(opt.m["p"], (1.0 - 0.9) * (2.0 * 1e-6 * w))


def test_l2_zero_vs_nonzero_gradient_difference():
    rng = np.random.default_rng(1)
    w = rng.standard_normal(8)
    g = rng.standard_normal(8)
    moments = {}
    for l2 in (0.0, 1e-6):
        p = Tensor(w.copy(), requires_grad=True)
        opt = Adam([("p", p)], OptimizerConfig(l2=l2))
        p.grad[...] = g
        opt.step(0.0)
        moments[l2] = opt.m["p"] / (1.0 - 0.9)
    effect = 2.0 * 1e-6 * w
    # Each moment is an O(|g|) float64 value, so its rounding error scales with eps*|g|.
    bound = 4 * np.finfo(float).eps * (np.abs(g) + np.abs(g + effect))
    assert bound.max() < 1e-6 * np.min(np.abs(effect))
    assert np.all(np.abs(moments[1e-6] - moments[0.0] - effect) <= bound)


def test_adam_views_share_the_flat_buffers():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([7.0]), requires_grad=True)
    cfg = OptimizerConfig(l2=1e-6)
    opt = Adam([("a", a), ("b", b)], cfg)
    assert np.array_equal(opt.data, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
    assert np.shares_memory(a.data, opt.data) and np.shares_memory(b.data, opt.data)
    assert opt.m["a"].base is opt.m["b"].base is not None
    a.grad[...] = np.ones((2, 3))  # b's gradient stays zero: its span steps on zeros
    opt.step(0.1)
    assert np.array_equal(opt.grad, [1.0] * 6 + [0.0])
    assert opt.m["b"][0] == (1.0 - 0.9) * (2.0 * 1e-6 * 7.0)
    assert np.array_equal(opt.data, np.concatenate([a.data.ravel(), b.data]))


def test_backward_accumulates_into_the_optimizer_gradient_buffer():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    opt = Adam([("w", w), ("b", b)], OptimizerConfig())
    grads = w.grad, b.grad
    assert np.shares_memory(w.grad, opt.grad) and np.shares_memory(b.grad, opt.grad)
    assert not opt.grad.any()
    x = Tensor(rng.standard_normal((4, 3)))
    seed = rng.standard_normal((4, 2))
    plain_w = Tensor(w.data.copy(), requires_grad=True)
    plain_b = Tensor(b.data.copy(), requires_grad=True)
    linear(x, plain_w, plain_b).backward(seed)
    for _ in range(2):  # a second backward without zero_grad adds to the first
        linear(x, w, b).backward(seed)
    assert w.grad is grads[0] and b.grad is grads[1]
    assert np.array_equal(opt.grad, np.concatenate([2 * plain_w.grad.ravel(), 2 * plain_b.grad]))
    opt.zero_grad()
    assert w.grad is grads[0] and b.grad is grads[1] and not opt.grad.any()


@pytest.mark.parametrize("n_params", [4, 64])
def test_adam_step_allocates_a_few_slices_whatever_the_parameter_count(n_params):
    # About 1M elements in all.  A per-parameter step makes temporaries the
    # size of its largest parameter (2 MB at 4 parameters); the sliced step
    # makes a few slices' worth, however the elements are split.
    rng = np.random.default_rng(n_params)
    size = (1 << 20) // n_params
    params = [(f"p{i}", Tensor(rng.standard_normal(size), requires_grad=True))
              for i in range(n_params)]
    opt = Adam(params, OptimizerConfig(l2=1e-6))
    for _, p in params:
        p.grad[...] = rng.standard_normal(size)
    tracemalloc.start()
    try:
        opt.step(1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * SLICE * 8


@pytest.mark.parametrize("rebind", ["zero_grad", "grad", "data"])
def test_step_refuses_a_parameter_rebound_away_from_its_buffer_views(rebind):
    rng = np.random.default_rng(71)
    x = Tensor(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([("w", w), ("b", b)], OptimizerConfig())
    linear(x, w, b).backward(np.ones((3, 2)))
    opt.step(0.01)  # one good step, so the moments and t are not trivial
    before = [opt.data.copy(), opt._m.copy(), opt._v.copy()]
    opt.zero_grad()
    if rebind == "zero_grad":
        b.zero_grad()
    elif rebind == "grad":
        b.grad = np.zeros(2)
    else:
        b.data = b.data.copy()
    linear(x, w, b).backward(np.ones((3, 2)))
    with pytest.raises(TrainingError, match="parameter b"):
        opt.step(0.01)
    assert opt.t == 1
    for got, want in zip((opt.data, opt._m, opt._v), before):
        assert got.tobytes() == want.tobytes()
