"""Differentiation engine tests.

Numeric gradients come from the engine's own central-difference checker;
the checker itself is validated against hand-derived derivatives first.
Frozen literals were computed independently (hand algebra or a one-off
reference script).
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necurve.autodiff import (
    Adam,
    AdamState,
    DomainError,
    GradCheckError,
    Node,
    TapeReuseError,
    _batch_norm,
    _conv_norm_relu,
    adam_step,
    avg_pool_time,
    batch_norm,
    concat,
    conv1d_causal,
    dropout,
    gather_rows,
    grad_check,
    indicator_matrix,
    lstm_sequence,
    narrow,
    no_grad,
)
from necurve.harness import Checkpoint, build_model, load_checkpoint_file, save_checkpoint_file
from necurve.layers import BatchNorm, LstmCell
from necurve.rankers import RankerConfig, build_ranker

TRIALS = 100
EPS = 1e-6
TOL = 1e-4


class TestForwardValues:
    def test_identity_matmul(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = Node(np.eye(3)) @ Node(a)
        np.testing.assert_array_equal(out.value, a)

    def test_softmax_constant_column_is_uniform(self):
        out = Node(np.full((5, 2), 3.7)).softmax(axis=0)
        np.testing.assert_allclose(out.value, np.full((5, 2), 0.2), rtol=1e-12)

    def test_softmax_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = Node(rng.normal(scale=50, size=(7, 4))).softmax(axis=0)
        np.testing.assert_allclose(out.value.sum(axis=0), np.ones(4), rtol=1e-12)
        assert np.all(out.value >= 0)

    def test_broadcast_arithmetic(self):
        a = Node(np.ones((3, 4)))
        b = Node(np.arange(4, dtype=np.float64))
        np.testing.assert_array_equal((a + b).value, 1.0 + np.arange(4) * np.ones((3, 4)))
        np.testing.assert_array_equal((a * 2.0 - 1.0).value, np.ones((3, 4)))

    def test_division_domain(self):
        with pytest.raises(DomainError):
            Node(np.ones(3)) / Node(np.array([1.0, 0.0, 2.0]))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            Node(np.array([0.5, -1.0])).log()

    def test_matmul_shape_errors(self):
        with pytest.raises(ValueError):
            Node(np.ones((2, 3, 4))) @ Node(np.ones((4, 2)))

    def test_gather_rows(self):
        table = Node(np.arange(12, dtype=np.float64).reshape(4, 3))
        out = gather_rows(table, [2, 0, 2])
        np.testing.assert_array_equal(out.value, table.value[[2, 0, 2]])
        with pytest.raises(ValueError):
            indicator_matrix([4], 4)

    def test_batch_norm_statistics_match_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(loc=rng.normal(scale=10.0), size=tuple(rng.integers(2, 40, size=3)))
            for axes in ((0,), (0, 2)):
                features = np.ones(x.shape[1:] if axes == (0,) else x.shape[1])
                _, mu, var = _batch_norm(Node(x), Node(features), Node(features), axes, 1e-5)
                np.testing.assert_array_equal(mu, x.mean(axis=axes, keepdims=True))
                np.testing.assert_array_equal(var, x.var(axis=axes, keepdims=True))

    def test_narrow(self):
        x = Node(np.arange(10, dtype=np.float64).reshape(2, 5))
        out = narrow(x, 1, 1, 3)
        np.testing.assert_array_equal(out.value, x.value[:, 1:4])
        with pytest.raises(ValueError):
            narrow(x, 1, 3, 4)


class TestBackwardHandValues:
    def test_grad_of_sum_of_squares(self):
        x = Node(np.array([1.0, 2.0, 3.0]))
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_square_at_three(self):
        err = grad_check(lambda x: x * x, np.array(3.0))
        assert err <= 1e-9

    def test_softmax_linear_functional(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(6, 3))
        err = grad_check(
            lambda x: (x.softmax(axis=0) * weights).sum(),
            rng.normal(size=(6, 3)),
        )
        assert err <= 1e-7

    def test_gather_rows_routes_gradient(self):
        table = Node(np.zeros((4, 2)))
        out = gather_rows(table, [1, 1, 3]).sum()
        out.backward()
        np.testing.assert_array_equal(
            table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]]
        )

    def test_fanout_accumulates(self):
        x = Node(np.array(2.0))
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        assert float(x.grad) == pytest.approx(7.0, rel=1e-12)


def _check_unary(op, sampler, trials=TRIALS, tol=TOL):
    rng = np.random.default_rng(42)
    for _ in range(trials):
        shape = tuple(rng.integers(1, 4, size=int(rng.integers(1, 3))))
        point = sampler(rng, shape)
        assert grad_check(op, point, eps=EPS) <= tol


class TestGradCheckPerOp:
    """Randomized shapes, >= 100 trials per op, eps 1e-6, tolerance 1e-4."""

    def test_add(self):
        rng = np.random.default_rng(2)
        for _ in range(TRIALS):
            other = rng.normal(size=(3,))
            assert grad_check(lambda x: (x + other).sum(), rng.normal(size=(2, 3)), EPS) <= TOL

    def test_sub(self):
        rng = np.random.default_rng(3)
        for _ in range(TRIALS):
            other = rng.normal(size=(2, 3))
            assert grad_check(lambda x: (other - x).sum(), rng.normal(size=(2, 3)), EPS) <= TOL

    def test_mul(self):
        rng = np.random.default_rng(4)
        for _ in range(TRIALS):
            other = rng.normal(size=(2, 1))
            assert grad_check(
                lambda x: ((x * other) * x).sum(), rng.normal(size=(2, 3)), EPS
            ) <= TOL

    def test_div(self):
        rng = np.random.default_rng(5)
        for _ in range(TRIALS):
            denom = rng.uniform(0.5, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0])
            assert grad_check(lambda x: (x / denom).sum(), rng.normal(size=(2, 3)), EPS) <= TOL
            numer = rng.normal(size=(2, 3))
            point = rng.uniform(0.5, 2.0, size=(2, 3))
            assert grad_check(lambda x: (numer / x).sum(), point, EPS) <= TOL

    def test_pow(self):
        rng = np.random.default_rng(6)
        for _ in range(TRIALS):
            e = float(rng.choice([2.0, 3.0, 0.5]))
            point = rng.uniform(0.5, 2.0, size=(3,))
            assert grad_check(lambda x: (x**e).sum(), point, EPS) <= TOL

    def test_matmul(self):
        rng = np.random.default_rng(7)
        for _ in range(TRIALS):
            m, k, n = rng.integers(1, 4, size=3)
            b = rng.normal(size=(k, n))
            a = rng.normal(size=(m, k))
            assert grad_check(lambda x: (x @ b).sum(), a, EPS) <= TOL
            assert grad_check(lambda x: (Node(a) @ x).sum(), b, EPS) <= TOL

    def test_transpose_reshape(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 2))
        for _ in range(TRIALS):
            assert grad_check(
                lambda x: (x.T * w).sum(), rng.normal(size=(2, 3)), EPS
            ) <= TOL
            assert grad_check(
                lambda x: (x.reshape(6) * np.arange(6.0)).sum(),
                rng.normal(size=(2, 3)),
                EPS,
            ) <= TOL

    def test_concat_and_narrow(self):
        rng = np.random.default_rng(9)
        for _ in range(TRIALS):
            other = rng.normal(size=(2, 2))
            w = rng.normal(size=(2, 5))

            def fn(x):
                joined = concat([x, Node(other)], axis=1)
                return (joined * w).sum() + (narrow(joined, 1, 1, 2) ** 2.0).sum()

            assert grad_check(fn, rng.normal(size=(2, 3)), EPS) <= TOL

    def test_gather(self):
        rng = np.random.default_rng(10)
        for _ in range(TRIALS):
            idx = rng.integers(0, 4, size=3)
            w = rng.normal(size=(3, 2))
            assert grad_check(
                lambda x: (gather_rows(x, idx) * w).sum(), rng.normal(size=(4, 2)), EPS
            ) <= TOL

    def test_softmax_both_axes(self):
        rng = np.random.default_rng(11)
        for _ in range(TRIALS):
            w = rng.normal(size=(3, 2))
            assert grad_check(
                lambda x: (x.softmax(axis=0) * w).sum(), rng.normal(size=(3, 2)), EPS
            ) <= TOL
            assert grad_check(
                lambda x: (x.softmax(axis=1) * w).sum(), rng.normal(size=(3, 2)), EPS
            ) <= TOL

    def test_sigmoid(self):
        _check_unary(lambda x: x.sigmoid().sum(), lambda rng, s: rng.normal(size=s))

    def test_tanh(self):
        _check_unary(lambda x: x.tanh().sum(), lambda rng, s: rng.normal(size=s))

    def test_exp(self):
        _check_unary(lambda x: x.exp().sum(), lambda rng, s: rng.normal(size=s))

    def test_log(self):
        _check_unary(lambda x: x.log().sum(), lambda rng, s: rng.uniform(0.2, 3.0, size=s))

    def test_relu(self):
        # sample away from the kink where central differences are one-sided
        _check_unary(
            lambda x: x.relu().sum(),
            lambda rng, s: rng.uniform(0.05, 1.0, size=s) * rng.choice([-1.0, 1.0], size=s),
        )

    def test_softplus(self):
        _check_unary(lambda x: x.softplus().sum(), lambda rng, s: rng.normal(size=s))

    def test_reductions(self):
        rng = np.random.default_rng(12)
        for _ in range(TRIALS):
            w = rng.normal(size=(3,))
            assert grad_check(
                lambda x: (x.mean(axis=0) * w).sum(), rng.normal(size=(2, 3)), EPS
            ) <= TOL
            assert grad_check(
                lambda x: (x.sum(axis=1) ** 2.0).sum(), rng.normal(size=(2, 3)), EPS
            ) <= TOL
            assert grad_check(lambda x: x.mean(), rng.normal(size=(2, 3)), EPS) <= TOL

    def test_avg_pool_time(self):
        rng = np.random.default_rng(13)
        for _ in range(TRIALS):
            w = rng.normal(size=(2, 3))
            assert grad_check(
                lambda x: (avg_pool_time(x) * w).sum(),
                rng.normal(size=(2, 3, 4)),
                EPS,
            ) <= TOL

    def test_transpose_axes(self):
        rng = np.random.default_rng(27)
        for _ in range(TRIALS):
            axes = tuple(int(a) for a in rng.permutation(3))
            w = rng.normal(size=np.array((2, 3, 4))[list(axes)])
            assert grad_check(
                lambda x: (x.transpose(axes) * w).sum(), rng.normal(size=(2, 3, 4)), EPS
            ) <= TOL

    def test_conv1d_causal(self):
        rng = np.random.default_rng(14)
        for _ in range(TRIALS):
            dilation = int(rng.integers(1, 4))
            x = rng.normal(size=(2, 2, 5))
            w = rng.normal(size=(2, 2, 2))
            s = rng.normal(size=(2, 2, 5))
            assert grad_check(
                lambda v: (conv1d_causal(v, Node(w), dilation) * s).sum(), x, EPS
            ) <= TOL
            assert grad_check(
                lambda v: (conv1d_causal(Node(x), v, dilation) * s).sum(), w, EPS
            ) <= TOL

    def test_conv1d_causal_bias(self):
        rng = np.random.default_rng(24)
        for _ in range(TRIALS):
            dilation = int(rng.integers(1, 4))
            x = rng.normal(size=(2, 2, 5))
            w = rng.normal(size=(3, 2, 2))
            s = rng.normal(size=(2, 3, 5))
            assert grad_check(
                lambda v: (conv1d_causal(Node(x), Node(w), dilation, bias=v) * s).sum(),
                rng.normal(size=3),
                EPS,
            ) <= TOL

    def test_lstm_sequence(self):
        rng = np.random.default_rng(25)
        for _ in range(TRIALS):
            steps, batch, features, hidden = (int(n) for n in rng.integers(1, 4, size=4))
            inputs = [
                rng.normal(size=(steps, batch, features)),
                rng.normal(size=(batch, hidden)),
                rng.normal(size=(batch, hidden)),
                rng.normal(size=(features, 4 * hidden)),
                rng.normal(size=(hidden, 4 * hidden)),
                rng.normal(size=4 * hidden),
            ]
            s = rng.normal(size=(steps, batch, hidden))
            for k, point in enumerate(inputs):

                def fn(v, k=k):
                    args = [Node(a) for a in inputs]
                    args[k] = v
                    return (lstm_sequence(*args) * s).sum()

                assert grad_check(fn, point, EPS) <= TOL

    def test_dropout(self):
        rng = np.random.default_rng(15)
        for trial in range(TRIALS):
            w = rng.normal(size=(3, 3))

            def fn(x):
                # fresh generator per call so both central-difference
                # evaluations see the same mask
                return (dropout(x, 0.3, np.random.default_rng(trial)) * w).sum()

            assert grad_check(fn, rng.normal(size=(3, 3)), EPS) <= TOL

    def test_batch_norm(self):
        rng = np.random.default_rng(16)
        for _ in range(TRIALS):
            x = rng.normal(size=(4, 3))
            gain = rng.uniform(0.5, 1.5, size=3)
            shift = rng.normal(size=3)
            w = rng.normal(size=(4, 3))
            assert grad_check(
                lambda v: (batch_norm(v, Node(gain), Node(shift)) * w).sum(), x, EPS
            ) <= TOL
            assert grad_check(
                lambda v: (batch_norm(Node(x), v, Node(shift)) * w).sum(), gain, EPS
            ) <= TOL
            assert grad_check(
                lambda v: (batch_norm(Node(x), Node(gain), v) * w).sum(), shift, EPS
            ) <= TOL

    def test_batch_norm_channel_axes(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.normal(size=(2, 3, 4))
            w = rng.normal(size=(2, 3, 4))
            assert grad_check(
                lambda v: (
                    batch_norm(v, Node(np.ones(3)), Node(np.zeros(3)), axes=(0, 2)) * w
                ).sum(),
                x,
                EPS,
            ) <= TOL


class TestTapeContract:
    def test_backward_twice_raises(self):
        x = Node(np.array(2.0))
        y = x * x
        y.backward()
        with pytest.raises(TapeReuseError):
            y.backward()

    def test_shared_subgraph_raises(self):
        x = Node(np.array(2.0))
        shared = x * x
        a = shared * 1.0
        b = shared * 2.0
        a.backward()
        with pytest.raises(TapeReuseError):
            b.backward()

    def test_fresh_graph_after_zero_grad(self):
        x = Node(np.array(2.0))
        opt = Adam({"x": x})
        (x * x).backward()
        opt.zero_grad()
        (x * x).backward()  # rebuilt graph over the same leaf is fine
        np.testing.assert_allclose(x.grad, 4.0)

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            Node(np.ones(3)).backward()

    def test_gradients_are_lazy(self):
        x = Node(np.ones(3))
        y = x * 2.0
        unused = x.exp()
        assert x._grad is None and y._grad is None
        y.sum().backward()
        assert unused._grad is None  # no gradient reached it, so no buffer
        np.testing.assert_array_equal(unused.grad, np.zeros(3))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_dropped_graph_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            x = Node(np.arange(3.0))
            (x * 2).sum().backward()
            del x
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNoGrad:
    def test_output_keeps_no_tape_and_no_cycle(self):
        gc.collect()
        gc.disable()
        try:
            x = Node(np.arange(3.0))
            with no_grad():
                y = (x * 2.0).exp().sum()
            assert not y._parents and y._backward is None
            value = y.value
            del y
            assert gc.collect() == 0
        finally:
            gc.enable()
        np.testing.assert_array_equal(value, np.exp(np.arange(3.0) * 2.0).sum())

    def test_backward_from_an_untaped_root_raises(self):
        x = Node(np.array([1.0, 2.0]))
        with no_grad():
            y = (x * x).sum()
        with pytest.raises(TapeReuseError, match="no_grad"):
            y.backward()
        assert x._grad is None  # no silent zero gradient

    def test_untaped_output_is_a_constant_in_a_later_tape(self):
        x = Node(np.array([1.0, 2.0]))
        with no_grad():
            c = x * 3.0
        (c * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0, 6.0])  # no gradient through c

    def test_scope_restores_recording_after_an_error(self):
        x = Node(np.array(2.0))
        with pytest.raises(DomainError):
            with no_grad():
                (x * 0.0).log()
        assert (x * x)._backward is not None

    def test_scope_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def score():
            with no_grad():
                entered.set()
                release.wait(timeout=30)
                seen["worker"] = (Node(np.array(1.0)) * 2.0)._backward

        worker = threading.Thread(target=score)
        worker.start()
        try:
            assert entered.wait(timeout=30)
            x = Node(np.array(3.0))
            y = x * x  # built while the worker's scope is open
            assert y._backward is not None
            y.backward()
            np.testing.assert_allclose(x.grad, 6.0)
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen["worker"] is None


class TestConvCausality:
    def test_future_perturbation_cannot_reach_past(self):
        rng = np.random.default_rng(18)
        for dilation in (1, 2, 4, 8):
            x = rng.normal(size=(2, 3, 20))
            w = Node(rng.normal(size=(4, 3, 3)))
            base = conv1d_causal(Node(x), w, dilation).value
            for t in (0, 5, 13):
                bumped = x.copy()
                bumped[:, :, t + 1 :] += rng.normal(size=bumped[:, :, t + 1 :].shape)
                out = conv1d_causal(Node(bumped), w, dilation).value
                np.testing.assert_array_equal(out[:, :, : t + 1], base[:, :, : t + 1])

    def test_receptive_field_span(self):
        # tap i reads t - dilation*i, so only the last 1 + d*(K-1) inputs matter
        x = np.zeros((1, 1, 16))
        x[0, 0, 0] = 1.0
        w = Node(np.ones((1, 1, 3)))
        out = conv1d_causal(Node(x), w, dilation=4).value[0, 0]
        np.testing.assert_array_equal(np.nonzero(out)[0], [0, 4, 8])


def reference_conv1d_causal(x, w, dilation, gy):
    """Per-tap einsum convolution: the value, and the input and weight
    gradients under the output gradient ``gy``."""
    length = x.shape[2]
    value = np.zeros((x.shape[0], w.shape[0], length))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for i in range(w.shape[2]):
        offset = dilation * i
        if offset >= length:
            break
        xs = x[:, :, : length - offset]
        value[:, :, offset:] += np.einsum("oc,bct->bot", w[:, :, i], xs)
        gw[:, :, i] += np.einsum("bot,bct->oc", gy[:, :, offset:], xs)
        gx[:, :, : length - offset] += np.einsum("oc,bot->bct", w[:, :, i], gy[:, :, offset:])
    return value, gx, gw


class TestConvReference:
    @settings(max_examples=200, deadline=None)
    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 4),
        out_channels=st.integers(1, 4),
        length=st.integers(1, 12),
        taps=st.integers(1, 5),
        dilation=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=2, channels=3, out_channels=2, length=1, taps=3, dilation=1, seed=0)
    @example(batch=2, channels=3, out_channels=2, length=5, taps=3, dilation=4, seed=1)
    @example(batch=1, channels=2, out_channels=3, length=4, taps=4, dilation=8, seed=2)
    def test_matches_per_tap_einsum(
        self, batch, channels, out_channels, length, taps, dilation, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, length))
        w = rng.normal(size=(out_channels, channels, taps))
        gy = rng.normal(size=(batch, out_channels, length))
        xn, wn = Node(x), Node(w)
        out = conv1d_causal(xn, wn, dilation)
        (out * gy).sum().backward()
        value, gx, gw = reference_conv1d_causal(x, w, dilation, gy)
        np.testing.assert_allclose(out.value, value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(xn.grad, gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wn.grad, gw, rtol=1e-12, atol=1e-12)


def tcn_layer_norm(gain, shift, running_mean, running_var) -> BatchNorm:
    """A (B, O, T) batch norm over axes (0, 2) holding the given arrays."""
    norm = BatchNorm({}, "norm", len(gain), axes=(0, 2))
    norm.gain.value, norm.shift.value = gain.copy(), shift.copy()
    norm.running_mean[...], norm.running_var[...] = running_mean, running_var
    return norm


def unfused_tcn_layer(x, w, b, stats, train, dilation, gy):
    """``relu(BatchNorm(conv1d_causal(x, w, d, bias=b)))`` from the separate
    ops on (B, C, T) arrays: the value, the running statistics after the
    call, and the x, w, b, gain and shift gradients under ``gy``."""
    norm = tcn_layer_norm(*stats)
    xn, wn, bn = Node(x), Node(w), Node(b)
    out = norm(conv1d_causal(xn, wn, dilation, bias=bn), train).relu()
    (out * gy).sum().backward()
    grads = [xn.grad, wn.grad, bn.grad, norm.gain.grad, norm.shift.grad]
    return out.value, (norm.running_mean, norm.running_var), grads


def fused_tcn_layer(x, w, b, stats, train, dilation, gy):
    """``_conv_norm_relu`` on the channel-major input, mapped back to the
    (B, C, T) layout of ``unfused_tcn_layer``."""
    norm = tcn_layer_norm(*stats)
    xn, wn, bn = Node(np.ascontiguousarray(x.transpose(1, 0, 2))), Node(w), Node(b)
    out = _conv_norm_relu(xn, wn, bn, norm, dilation, train)
    (out * gy.transpose(1, 0, 2)).sum().backward()
    grads = [xn.grad.transpose(1, 0, 2), wn.grad, bn.grad, norm.gain.grad, norm.shift.grad]
    return out.value.transpose(1, 0, 2), (norm.running_mean, norm.running_var), grads


def tcn_layer_case(rng, batch, channels, out_channels, length, taps):
    x = rng.normal(size=(batch, channels, length))
    w = rng.normal(size=(out_channels, channels, taps))
    b = rng.normal(size=out_channels)
    stats = (rng.uniform(0.5, 1.5, size=out_channels), rng.normal(size=out_channels),
             rng.normal(size=out_channels), rng.uniform(0.5, 2.0, size=out_channels))
    return x, w, b, stats


class TestConvNormReluReference:
    """The fused TCN layer against the composition of the separate ops."""

    @settings(max_examples=200, deadline=None)
    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 4),
        out_channels=st.integers(1, 4),
        length=st.integers(1, 12),
        taps=st.integers(1, 5),
        dilation=st.integers(1, 8),
        train=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=2, channels=3, out_channels=2, length=1, taps=3, dilation=1,
             train=True, seed=0)
    @example(batch=3, channels=1, out_channels=2, length=1, taps=2, dilation=2,
             train=False, seed=1)
    @example(batch=2, channels=2, out_channels=3, length=5, taps=3, dilation=4,
             train=True, seed=2)
    @example(batch=1, channels=2, out_channels=3, length=4, taps=4, dilation=8,
             train=True, seed=3)
    def test_matches_unfused_ops(
        self, batch, channels, out_channels, length, taps, dilation, train, seed
    ):
        if train and batch * length < 2:
            return  # batch statistics need two elements per channel
        rng = np.random.default_rng(seed)
        x, w, b, stats = tcn_layer_case(rng, batch, channels, out_channels, length, taps)
        gy = rng.normal(size=(batch, out_channels, length))
        value, running, grads = fused_tcn_layer(x, w, b, stats, train, dilation, gy)
        ref_value, ref_running, ref_grads = unfused_tcn_layer(
            x, w, b, stats, train, dilation, gy
        )
        np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=1e-12)
        for got, want in zip(running, ref_running):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        if not train:
            np.testing.assert_array_equal(running[0], stats[2])
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_single_batch_element_rejected_in_train_mode(self):
        x, w, b, stats = tcn_layer_case(np.random.default_rng(0), 1, 2, 3, 1, 2)
        with pytest.raises(ValueError, match="2 elements"):
            _conv_norm_relu(Node(x.transpose(1, 0, 2)), Node(w), Node(b),
                            tcn_layer_norm(*stats), 1, True)

    def test_grad_check_each_input(self):
        rng = np.random.default_rng(26)
        for trial in range(TRIALS):
            train = trial % 2 == 0
            dilation = int(rng.integers(1, 4))
            x, w, b, stats = tcn_layer_case(rng, 2, 2, 3, 5, 2)
            inputs = [np.ascontiguousarray(x.transpose(1, 0, 2)), w, b, stats[0], stats[1]]
            s = rng.normal(size=(3, 2, 5))
            for k, point in enumerate(inputs):

                def fn(v, k=k):
                    args = [Node(a) for a in inputs]
                    args[k] = v
                    norm = tcn_layer_norm(*stats)
                    norm.gain, norm.shift = args[3], args[4]
                    return (_conv_norm_relu(*args[:3], norm, dilation, train) * s).sum()

                assert grad_check(fn, point, EPS) <= TOL


def unrolled_lstm(x, h0, c0, wx, wh, b, gy):
    """``LstmCell.step`` unrolled over (T, B, F) inputs: the hidden states,
    and the gradients of the six inputs under the output gradient ``gy``."""
    cell = LstmCell({}, "ref", wx.shape[0], wh.shape[0], np.random.default_rng(0))
    cell.wx.value, cell.wh.value, cell.b.value = wx.copy(), wh.copy(), b.copy()
    xs = [Node(step) for step in x]
    h = h_init = Node(h0)
    c = c_init = Node(c0)
    loss = Node(0.0)
    states = []
    for t, step in enumerate(xs):
        h, c = cell.step(step, h, c)
        states.append(h.value)
        loss = loss + (h * gy[t]).sum()
    loss.backward()
    grads = [np.stack([step.grad for step in xs]), h_init.grad, c_init.grad,
             cell.wx.grad, cell.wh.grad, cell.b.grad]
    return np.stack(states), grads


class TestLstmReference:
    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.integers(1, 8),
        batch=st.integers(1, 4),
        features=st.integers(1, 4),
        hidden=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(steps=1, batch=3, features=2, hidden=4, seed=0)
    @example(steps=1, batch=1, features=1, hidden=1, seed=1)
    def test_matches_step_unroll(self, steps, batch, features, hidden, seed):
        rng = np.random.default_rng(seed)
        arrays = [
            rng.normal(size=(steps, batch, features)),
            rng.normal(size=(batch, hidden)),  # nonzero h0, as the decoder starts
            rng.normal(size=(batch, hidden)),
            rng.normal(size=(features, 4 * hidden)),
            rng.normal(size=(hidden, 4 * hidden)),
            rng.normal(size=4 * hidden),
        ]
        gy = rng.normal(size=(steps, batch, hidden))
        nodes = [Node(a) for a in arrays]
        out = lstm_sequence(*nodes)
        (out * gy).sum().backward()
        states, grads = unrolled_lstm(*arrays, gy)
        np.testing.assert_allclose(out.value, states, rtol=1e-12, atol=1e-12)
        for node, expected in zip(nodes, grads):
            np.testing.assert_allclose(node.grad, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_shapes(self):
        x, h = Node(np.zeros((2, 3, 1))), Node(np.zeros((3, 2)))
        wx, wh, b = Node(np.zeros((1, 8))), Node(np.zeros((2, 8))), Node(np.zeros(8))
        lstm_sequence(x, h, h, wx, wh, b)
        with pytest.raises(ValueError):
            lstm_sequence(Node(np.zeros((3, 1))), h, h, wx, wh, b)
        with pytest.raises(ValueError):
            lstm_sequence(Node(np.zeros((0, 3, 1))), h, h, wx, wh, b)
        with pytest.raises(ValueError):
            lstm_sequence(x, h, h, Node(np.zeros((2, 8))), wh, b)
        with pytest.raises(ValueError):
            lstm_sequence(x, Node(np.zeros((2, 2))), h, wx, wh, b)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState()
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_one_step_hand_value(self):
        # m=0.05, v=0.00025; bias correction recovers mhat=0.5, vhat=0.25;
        # delta = 0.001*0.5/(0.5 + 1e-8)
        params = {"w": np.array(1.0)}
        adam_step(params, {"w": np.array(0.5)}, AdamState())
        assert float(params["w"]) == pytest.approx(0.99900000002, abs=1e-15)

    def test_steady_state_step_approaches_lr(self):
        params = {"w": np.array(0.0)}
        state = AdamState()
        previous = 0.0
        for _ in range(2000):
            previous = float(params["w"])
            adam_step(params, {"w": np.array(0.5)}, state)
        final_step = abs(float(params["w"]) - previous)
        assert final_step == pytest.approx(state.lr, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())

    def test_optimizer_descends_quadratic(self):
        x = Node(np.array([3.0, -2.0]))
        opt = Adam({"x": x}, lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        np.testing.assert_allclose(x.value, [0.0, 0.0], atol=1e-3)


class TestCheckpoint:
    def test_restore_replaces_values(self, tmp_path):
        config = RankerConfig()
        fresh = build_ranker(config, [0, 2], np.zeros(2), np.ones(2))
        saved = {name: node.value + 1.0 for name, node in fresh.params.items()}
        checkpoint = Checkpoint(
            ranker_config=config, params=saved, state=fresh.state_arrays(),
            domains=[0, 2], arch_mean=np.zeros(2), arch_sd=np.ones(2),
            fraction=0.4, best_epoch=1, validation_auc=None,
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint_file(checkpoint, path)
        restored = build_model(load_checkpoint_file(path))
        assert set(restored.params) == set(saved)
        for name, node in restored.params.items():
            np.testing.assert_array_equal(node.value, saved[name])


class TestGradCheckGuards:
    def test_non_finite_reported(self):
        with np.errstate(invalid="ignore"), pytest.raises(GradCheckError):
            grad_check(lambda x: (x * np.inf).sum() * 0.0 + x.sum(), np.ones(2))

    def test_non_scalar_target(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: x * 2.0, np.ones(3))
