"""Reverse-mode differentiation on numpy arrays.

A ``Node`` wraps a float64 array plus a backward rule; ``backward`` on a
scalar root walks the tape once in reverse topological order.

Tape lifecycle.  Every op attaches its parents and rule through ``_op``, the
one place that decides whether to record.  Inside a ``no_grad()`` scope ops
record nothing: an output keeps no parents and no rule, so the arrays a rule
would have saved die when the op returns, and ``backward`` from it raises.
The scope is thread-local, so a thread scoring under it does not stop
another from training.  Tapes are single-shot: as ``backward`` walks, it
releases each node whose rule has run (rule, parents and gradient), so saved
arrays are freed during the walk and only leaves keep their gradients.
Running backward again over a consumed graph raises ``TapeReuseError``;
build a fresh graph per step.

A rule is called as ``node._backward(node.grad)``: it receives the output
gradient and adds into its parents' gradients.  Rules capture their parents
and the arrays they need, never their own output node, and leaves carry no
rule (``None``), so the tape holds no reference cycle and a dropped graph is
freed by reference counting alone.  Gradients are lazy: a node allocates no
buffer until the first gradient reaches it, rules run only on nodes that
received one, and reading ``.grad`` on an untouched node gives zeros.

The operator set is the minimum needed by the window-transform layer and
the rankers: broadcast arithmetic, matmul, activations, softmax, reductions,
dilated causal convolution, batch norm, dropout, and table lookup (expressed
as indicator-matrix multiplication so no op needs a scatter backward).
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np


class TapeReuseError(RuntimeError):
    """Backward over a graph with no tape: already consumed, or built under ``no_grad``."""


class DomainError(ValueError):
    """Op input outside its mathematical domain (log of nonpositive, zero divisor)."""


class GradCheckError(RuntimeError):
    """Gradient check hit a non-finite evaluation."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Node:
    """One tape entry: a float64 array, its gradient, and a backward rule."""

    __slots__ = ("value", "_grad", "_backward", "_parents", "_spent")

    # make numpy defer ndarray-on-the-left arithmetic to our reflected ops
    __array_ufunc__ = None

    def __init__(self, value):
        self.value = _as_array(value)
        self._grad = None
        self._backward = None
        self._parents = ()  # None marks an op output built under no_grad
        self._spent = False

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros until a gradient reaches the node."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    def _add_grad(self, grad: np.ndarray) -> None:
        # the first contribution is copied: it may alias another node's buffer
        if self._grad is None:
            if grad.shape != self.value.shape:
                grad = np.broadcast_to(grad, self.value.shape)
            self._grad = np.array(grad, dtype=np.float64)
        else:
            self._grad += grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(shape={self.shape}, spent={self._spent})"

    # -- graph walk ----------------------------------------------------

    def backward(self) -> None:
        if self.value.size != 1:
            raise ValueError(f"backward needs a scalar root, got shape {self.shape}")
        if self._parents is None:
            raise TapeReuseError("graph was built under no_grad; rebuild it outside the scope")
        topo: list[Node] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents or ():
                stack.append((parent, False))
        for node in topo:
            if node._spent:
                raise TapeReuseError(
                    "graph already consumed by a backward pass; rebuild it"
                )
        for node in topo:
            node._spent = True
        self._grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None:
                if node._grad is not None:
                    node._backward(node._grad)
                node._backward, node._parents, node._grad = None, (), None

    # -- broadcast arithmetic -------------------------------------------

    def __add__(self, other) -> "Node":
        other = other if isinstance(other, Node) else Node(other)

        def _backward(g):
            self._add_grad(_unbroadcast(g, self.shape))
            other._add_grad(_unbroadcast(g, other.shape))

        return _op(self.value + other.value, (self, other), _backward)

    def __mul__(self, other) -> "Node":
        other = other if isinstance(other, Node) else Node(other)

        def _backward(g):
            self._add_grad(_unbroadcast(other.value * g, self.shape))
            other._add_grad(_unbroadcast(self.value * g, other.shape))

        return _op(self.value * other.value, (self, other), _backward)

    def __truediv__(self, other) -> "Node":
        other = other if isinstance(other, Node) else Node(other)
        if np.any(other.value == 0.0):
            raise DomainError("division by zero")

        def _backward(g):
            self._add_grad(_unbroadcast(g / other.value, self.shape))
            other._add_grad(
                _unbroadcast(-self.value / (other.value**2) * g, other.shape)
            )

        return _op(self.value / other.value, (self, other), _backward)

    def __pow__(self, exponent) -> "Node":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def _backward(g):
            self._add_grad(exponent * self.value ** (exponent - 1) * g)

        return _op(self.value**exponent, (self,), _backward)

    def __neg__(self) -> "Node":
        return self * -1.0

    def __sub__(self, other) -> "Node":
        return self + (-other if isinstance(other, Node) else Node(-_as_array(other)))

    def __radd__(self, other) -> "Node":
        return self + other

    def __rsub__(self, other) -> "Node":
        return Node(other) + (-self)

    def __rmul__(self, other) -> "Node":
        return self * other

    def __rtruediv__(self, other) -> "Node":
        return Node(other) / self

    # -- linear algebra --------------------------------------------------

    def matmul(self, other: "Node") -> "Node":
        other = other if isinstance(other, Node) else Node(other)
        if self.value.ndim != 2 or other.value.ndim != 2:
            raise ValueError("matmul expects 2-D operands")

        def _backward(g):
            self._add_grad(g @ other.value.T)
            other._add_grad(self.value.T @ g)

        return _op(self.value @ other.value, (self, other), _backward)

    def __matmul__(self, other) -> "Node":
        return self.matmul(other)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Node":
        """Matrix transpose, or the axis permutation ``axes`` (as ``np.transpose``)."""
        if axes is None and self.value.ndim != 2:
            raise ValueError("transpose expects a 2-D operand")

        def _backward(g):
            self._add_grad(g.transpose(None if axes is None else np.argsort(axes)))

        return _op(self.value.transpose(axes), (self,), _backward)

    @property
    def T(self) -> "Node":
        return self.transpose()

    def reshape(self, *shape) -> "Node":

        def _backward(g):
            self._add_grad(g.reshape(self.shape))

        return _op(self.value.reshape(*shape), (self,), _backward)

    # -- activations -------------------------------------------------------

    def exp(self) -> "Node":
        e = np.exp(self.value)

        def _backward(g):
            self._add_grad(e * g)

        return _op(e, (self,), _backward)

    def log(self) -> "Node":
        if np.any(self.value <= 0.0):
            raise DomainError("log of a nonpositive value")

        def _backward(g):
            self._add_grad(g / self.value)

        return _op(np.log(self.value), (self,), _backward)

    def sigmoid(self) -> "Node":
        s = _sigmoid_value(self.value)

        def _backward(g):
            self._add_grad(s * (1.0 - s) * g)

        return _op(s, (self,), _backward)

    def tanh(self) -> "Node":
        t = np.tanh(self.value)

        def _backward(g):
            self._add_grad((1.0 - t * t) * g)

        return _op(t, (self,), _backward)

    def relu(self) -> "Node":

        def _backward(g):
            self._add_grad((self.value > 0.0) * g)

        return _op(np.maximum(self.value, 0.0), (self,), _backward)

    def softplus(self) -> "Node":
        # log(1 + e^x) without overflow for large |x|

        def _backward(g):
            self._add_grad(_sigmoid_value(self.value) * g)

        return _op(np.logaddexp(0.0, self.value), (self,), _backward)

    def softmax(self, axis: int = 0) -> "Node":
        shifted = self.value - self.value.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=axis, keepdims=True)

        def _backward(g):
            inner = (g * p).sum(axis=axis, keepdims=True)
            self._add_grad(p * (g - inner))

        return _op(p, (self,), _backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None) -> "Node":

        def _backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._add_grad(np.broadcast_to(g, self.shape))

        return _op(self.value.sum(axis=axis), (self,), _backward)

    def mean(self, axis: int | tuple[int, ...] | None = None) -> "Node":
        count = self.value.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis) * (1.0 / float(count))


class _TapeState(threading.local):
    recording = True


_tape = _TapeState()


@contextlib.contextmanager
def no_grad():
    """Scope in which ops in this thread record no tape (for eval forwards)."""
    previous, _tape.recording = _tape.recording, False
    try:
        yield
    finally:
        _tape.recording = previous


def _op(value, parents: tuple[Node, ...], rule) -> Node:
    """An op's output: taped with ``parents`` and ``rule`` unless recording is off."""
    out = Node(value)
    if _tape.recording:
        out._parents, out._backward = parents, rule
    else:
        out._parents = None
    return out


def _sigmoid_value(v: np.ndarray) -> np.ndarray:
    # stable for both signs of the argument
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# -- structural ops ------------------------------------------------------


def concat(nodes: list[Node], axis: int = 0) -> Node:
    if not nodes:
        raise ValueError("concat needs at least one node")
    value = np.concatenate([n.value for n in nodes], axis=axis)
    ndim = value.ndim
    sizes = [n.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def _backward(g):
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            index = [slice(None)] * ndim
            index[axis] = slice(start, stop)
            node._add_grad(g[tuple(index)])

    return _op(value, tuple(nodes), _backward)


def narrow(node: Node, axis: int, start: int, length: int) -> Node:
    """Contiguous slice along one axis."""
    if not 0 <= start <= start + length <= node.shape[axis]:
        raise ValueError(
            f"slice [{start}, {start + length}) outside axis of size {node.shape[axis]}"
        )
    index = [slice(None)] * node.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def _backward(g):
        node.grad[index] += g

    return _op(node.value[index].copy(), (node,), _backward)


def indicator_matrix(indices, width: int) -> np.ndarray:
    """Rows of the identity: result[r, indices[r]] = 1."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    if np.any(indices < 0) or np.any(indices >= width):
        raise ValueError(f"index outside [0, {width})")
    out = np.zeros((len(indices), width), dtype=np.float64)
    out[np.arange(len(indices)), indices] = 1.0
    return out


def gather_rows(node: Node, indices) -> Node:
    """Row lookup as indicator-matrix multiplication.

    Keeps the backward rule inside matmul, so weighted soft lookups and hard
    lookups share one code path.  Also serves as embedding-table lookup.
    """
    return Node(indicator_matrix(indices, node.shape[0])) @ node


def dropout(node: Node, rate: float, rng: np.random.Generator) -> Node:
    """Train-mode inverted dropout; scaling keeps the expectation unchanged."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return node
    mask = (rng.uniform(size=node.shape) >= rate) / (1.0 - rate)

    def _backward(g):
        node._add_grad(mask * g)

    return _op(node.value * mask, (node,), _backward)


def batch_norm(
    x: Node, gain: Node, shift: Node, axes: tuple[int, ...] = (0,), eps: float = 1e-5
) -> Node:
    """Per-feature standardization over ``axes`` with learnable gain/shift.

    Backward differentiates through the batch statistics (train mode).  The
    caller owns running statistics for eval mode.
    """
    return _batch_norm(x, gain, shift, axes, eps)[0]


def _batch_norm(x: Node, gain: Node, shift: Node, axes: tuple[int, ...],
                eps: float) -> tuple[Node, np.ndarray, np.ndarray]:
    """``batch_norm`` plus the batch mean and variance (keepdims shape)."""
    xhat, inv, mu, var = _standardize(x.value, axes, eps)
    g = gain.value.reshape(mu.shape)

    def _backward(gy):
        gx, g_gain, g_shift = _standardize_backward(gy, xhat, inv, g, axes)
        gain._add_grad(g_gain.reshape(gain.shape))
        shift._add_grad(g_shift.reshape(shift.shape))
        x._add_grad(gx)

    return _op(xhat * g + shift.value.reshape(mu.shape), (x, gain, shift), _backward), mu, var


def _standardize(x: np.ndarray, axes: tuple[int, ...], eps: float):
    """(xhat, inv, mean, var) of ``xhat = (x - mean) / sqrt(var + eps)`` over
    ``axes``, statistics in keepdims shape.  The variance is the arithmetic
    ``np.var`` does, so the statistics are bit-identical to it."""
    count = float(np.prod([x.shape[a] for a in axes]))
    if count < 2:
        raise ValueError("batch norm needs at least 2 elements per feature")
    mu = x.mean(axis=axes, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).sum(axis=axes, keepdims=True) / count
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return xhat, inv, mu, var


def _standardize_backward(gy, xhat, inv, gain, axes):
    """Gradients (input, gain, shift) of ``xhat * gain + shift``, the last two
    in keepdims shape; through the batch statistics unless ``inv`` is None."""
    count = float(np.prod([xhat.shape[a] for a in axes]))
    g_shift = gy.sum(axis=axes, keepdims=True)
    g_gain = (gy * xhat).sum(axis=axes, keepdims=True)
    if inv is None:
        return gy * gain, g_gain, g_shift
    gx = xhat * (g_gain / count)
    np.subtract(gy, gx, out=gx)
    gx -= g_shift / count
    gx *= gain * inv
    return gx, g_gain, g_shift


def _causal_conv(x_cbt: np.ndarray, weights: Node, dilation: int, bias: Node | None):
    """Im2col causal convolution of a channel-major (C, B, T) array.

    Row ``i*C + c`` of the (used*C, B*T) column matrix is channel c shifted
    right by ``dilation*i`` and zero-padded, for the ``used`` taps with
    ``dilation*i < T``.  Returns the (O, B*T) GEMM output and its backward,
    which adds the weight and bias gradients and returns the input's.
    """
    if x_cbt.ndim != 3 or weights.value.ndim != 3 or dilation < 1:
        raise ValueError("causal convolution needs 3-D input, (O, C, K) weights, dilation >= 1")
    channels, batch, length = x_cbt.shape
    out_channels, in_channels, taps = weights.shape
    if channels != in_channels:
        raise ValueError(f"channel mismatch: input has {channels}, weights expect {in_channels}")
    used = min(taps, (length - 1) // dilation + 1)
    columns = np.zeros((used, channels, batch, length))
    for i in range(used):
        columns[i, :, :, dilation * i:] = x_cbt[:, :, : length - dilation * i]
    columns = columns.reshape(used * channels, batch * length)
    w_mat = weights.value[:, :, :used].transpose(0, 2, 1).reshape(out_channels, -1)
    z = w_mat @ columns
    if bias is not None:
        z += bias.value.reshape(out_channels, 1)

    def backward(gz: np.ndarray) -> np.ndarray:
        if bias is not None:
            bias._add_grad(gz.sum(axis=1).reshape(bias.shape))
        gw = np.zeros(weights.shape)
        gw[:, :, :used] = (gz @ columns.T).reshape(out_channels, used, -1).transpose(0, 2, 1)
        weights._add_grad(gw)
        g_columns = (w_mat.T @ gz).reshape(used, channels, batch, length)
        for i in range(1, used):
            g_columns[0, :, :, : length - dilation * i] += g_columns[i, :, :, dilation * i:]
        return g_columns[0]

    return z, backward


def conv1d_causal(x: Node, weights: Node, dilation: int = 1, bias: Node | None = None) -> Node:
    """Dilated causal 1-D convolution as one GEMM over shifted inputs (im2col).

    ``x`` is (batch, in_channels, time), ``weights`` is (out_channels,
    in_channels, taps).  Output at time t sums tap i against the input at
    time ``t - dilation*i``; positions before the start read as zero, so the
    output never looks ahead.  An optional (O,) ``bias`` is added to the GEMM
    output in place.  This public op transposes to and from the channel-major
    layout of ``_causal_conv``; ``layers.TcnEncoder`` stays channel-major and
    runs each layer as one ``_conv_norm_relu`` node instead.
    """
    if x.value.ndim != 3:
        raise ValueError("conv1d_causal expects (B, C, T) input and (O, C, K) weights")
    batch, _, length = x.shape
    z, conv_backward = _causal_conv(x.value.transpose(1, 0, 2), weights, dilation, bias)
    parents = (x, weights) if bias is None else (x, weights, bias)

    def _backward(g):
        gx = conv_backward(g.transpose(1, 0, 2).reshape(-1, batch * length))
        x._add_grad(np.ascontiguousarray(gx.transpose(1, 0, 2)))

    y = np.ascontiguousarray(z.reshape(-1, batch, length).transpose(1, 0, 2))
    return _op(y, parents, _backward)


def _conv_norm_relu(x: Node, weights: Node, bias: Node, norm, dilation: int,
                    train: bool) -> Node:
    """One TCN layer, ``relu(norm(conv(x) + bias))``, as one tape node.

    ``x`` is (C, B, T) and the output (O, B, T), so the (O, B*T) GEMM output
    needs no transpose and batch statistics are contiguous row reductions.
    ``norm`` is a ``layers.BatchNorm``: train mode standardizes by the batch
    statistics and passes them to ``norm.update``, eval mode applies
    ``norm.affine()``."""
    z, conv_backward = _causal_conv(x.value, weights, dilation, bias)
    _, batch, length = x.shape
    if train:
        xhat, inv, mu, var = _standardize(z, (1,), norm.eps)
        norm.update(mu, var)
        scale, offset = norm.gain, norm.shift
    else:
        (xhat, inv), (scale, offset) = (z, None), norm.affine()
    s = scale.value.reshape(-1, 1)
    y = np.maximum(xhat * s + offset.value.reshape(-1, 1), 0.0)

    def _backward(g):
        gy = np.where(y > 0.0, g.reshape(y.shape), 0.0)
        gz, g_scale, g_shift = _standardize_backward(gy, xhat, inv, s, (1,))
        scale._add_grad(g_scale.reshape(scale.shape))
        offset._add_grad(g_shift.reshape(offset.shape))
        x._add_grad(conv_backward(gz))

    return _op(y.reshape(-1, batch, length), (x, weights, bias, scale, offset), _backward)


def lstm_sequence(x: Node, h0: Node, c0: Node, wx: Node, wh: Node, b: Node) -> Node:
    """One LSTM layer over a whole sequence as a single tape node.

    ``x`` is (T, B, F), ``h0`` and ``c0`` are (B, H), ``wx`` is (F, 4H), ``wh``
    is (H, 4H) and ``b`` is (4H,); gate order is i, f, g, o.  Returns the
    (T, B, H) hidden states.  The forward is one input-projection GEMM for all
    steps, then one ``h @ wh`` per step (fused gate GEMMs, Appleyard et al.,
    2016, arXiv:1604.01946).  The backward is hand-written BPTT: one
    ``dz @ wh.T`` per step, then the input, ``wx`` and ``wh`` gradients as
    three GEMMs over all steps.
    """
    if x.value.ndim != 3:
        raise ValueError("lstm_sequence expects a (T, B, F) input")
    steps, batch, features = x.shape
    hidden = wh.shape[0]
    if steps < 1:
        raise ValueError("recurrence needs at least one step")
    if (wx.shape != (features, 4 * hidden) or wh.shape != (hidden, 4 * hidden)
            or b.shape != (4 * hidden,)):
        raise ValueError(
            f"weights {wx.shape}, {wh.shape}, {b.shape} do not fit {features} "
            f"inputs and {hidden} hidden units"
        )
    if h0.shape != (batch, hidden) or c0.shape != (batch, hidden):
        raise ValueError(f"initial state must be ({batch}, {hidden})")
    n = hidden
    x_flat = x.value.reshape(steps * batch, features)
    projected = (x_flat @ wx.value + b.value).reshape(steps, batch, 4 * n)
    # hs[t + 1], cs[t + 1] are the state after step t; index 0 is the initial state
    hs = np.empty((steps + 1, batch, n))
    cs = np.empty((steps + 1, batch, n))
    hs[0], cs[0] = h0.value, c0.value
    gates = np.empty((steps, batch, 4 * n))  # activated i, f, g, o
    tanh_c = np.empty((steps, batch, n))
    for t in range(steps):
        z = projected[t] + hs[t] @ wh.value
        act = gates[t]
        act[...] = _sigmoid_value(z)
        act[:, 2 * n : 3 * n] = np.tanh(z[:, 2 * n : 3 * n])
        cs[t + 1] = act[:, n : 2 * n] * cs[t] + act[:, :n] * act[:, 2 * n : 3 * n]
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = act[:, 3 * n :] * tanh_c[t]

    def _backward(g):
        i, f = gates[..., :n], gates[..., n : 2 * n]
        gg, o = gates[..., 2 * n : 3 * n], gates[..., 3 * n :]
        # gate pre-activation gradient = factor * (dc for i, f, g; dh for o)
        factor = np.empty((steps, batch, 4, n))
        factor[:, :, 0] = gg * i * (1.0 - i)
        factor[:, :, 1] = cs[:-1] * f * (1.0 - f)
        factor[:, :, 2] = i * (1.0 - gg * gg)
        factor[:, :, 3] = tanh_c * o * (1.0 - o)
        dc_from_h = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((steps, batch, 4, n))
        # gradients that step t passes back to the state it started from
        dh_back = dc_back = 0.0
        for t in range(steps - 1, -1, -1):
            dh = g[t] + dh_back
            dc = dh * dc_from_h[t] + dc_back
            dz[t, :, :3] = factor[t, :, :3] * dc[:, None, :]
            dz[t, :, 3] = factor[t, :, 3] * dh
            dh_back = dz[t].reshape(batch, 4 * n) @ wh.value.T
            dc_back = dc * f[t]
        dz_flat = dz.reshape(steps * batch, 4 * n)
        h0._add_grad(dh_back)
        c0._add_grad(dc_back)
        x._add_grad((dz_flat @ wx.value.T).reshape(x.shape))
        wx._add_grad(x_flat.T @ dz_flat)
        wh._add_grad(hs[:-1].reshape(steps * batch, n).T @ dz_flat)
        b._add_grad(dz_flat.sum(axis=0))

    return _op(hs[1:], (x, h0, c0, wx, wh, b), _backward)


def avg_pool_time(x: Node) -> Node:
    """Average over the trailing time axis: (B, C, T) -> (B, C)."""
    if x.value.ndim != 3:
        raise ValueError("avg_pool_time expects a (B, C, T) input")
    return x.mean(axis=2)


# -- optimizer -------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> None:
    """One bias-corrected Adam update, in place on ``params``."""
    state.step += 1
    b1c = 1.0 - state.beta1**state.step
    b2c = 1.0 - state.beta2**state.step
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(param))
        v = state.v.setdefault(name, np.zeros_like(param))
        m += (1.0 - state.beta1) * (grad - m)
        v += (1.0 - state.beta2) * (grad * grad - v)
        param -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)


class Adam:
    """Adam over a named set of leaf nodes."""

    def __init__(self, params: dict[str, Node], lr: float = 0.001):
        self.params = params
        self.state = AdamState(lr=lr)

    def step(self) -> None:
        adam_step(
            {k: p.value for k, p in self.params.items()},
            {k: p.grad for k, p in self.params.items()},
            self.state,
        )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
            p._spent = False


# -- verification -----------------------------------------------------------


def grad_check(fn, point: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative disagreement between tape and central-difference gradients.

    ``fn`` maps a Node to a scalar Node and must be deterministic (seed any
    randomness inside).  Relative error per coordinate is
    ``|analytic - numeric| / max(1, |numeric|)``; see ``grad_check_params``.
    """
    leaf = Node(_as_array(point).copy())
    return grad_check_params(lambda: fn(leaf), {"point": leaf}, eps)


def grad_check_params(
    build_loss,
    params: dict[str, Node],
    eps: float = 1e-5,
    coords_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Central-difference check of a loss built over persistent parameters.

    ``build_loss`` must rebuild the graph from the current parameter values
    on every call and be otherwise deterministic.  Large tensors can be spot
    checked by capping ``coords_per_param`` (coordinates sampled by seed).
    Returns the max relative error |analytic - numeric| / max(1, |numeric|).
    """
    for p in params.values():
        p.grad = None
        p._spent = False
    loss = build_loss()
    if loss.value.size != 1:
        raise ValueError("loss must be scalar-valued")
    if not np.isfinite(loss.value).all():
        raise GradCheckError("non-finite value at the evaluation point")
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        coords = np.arange(flat.size)
        if coords_per_param is not None and flat.size > coords_per_param:
            coords = rng.choice(flat.size, size=coords_per_param, replace=False)
        for i in coords:
            original = flat[i]
            flat[i] = original + eps
            hi = float(build_loss().value)
            flat[i] = original - eps
            lo = float(build_loss().value)
            flat[i] = original
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise GradCheckError(f"non-finite evaluation at {name}[{i}]")
            numeric = (hi - lo) / (2.0 * eps)
            error = abs(analytic[name].reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, error)
    return worst
