"""Trainable building blocks: dense, LSTM, batch norm, and the causal
convolution encoder.  Each block owns named parameter Nodes and registers
them into a shared dict so optimizers and checkpoints see a flat map.

An LSTM runs a whole (T, B, F) sequence per layer through one
``lstm_sequence`` tape node; ``LstmCell.step`` is the per-step reference.
"""

from __future__ import annotations

import numpy as np

from necurve.autodiff import Node, _batch_norm, _conv_norm_relu, lstm_sequence, narrow


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense:
    """Affine map (B, in) -> (B, out), optional elementwise activation."""

    def __init__(self, params: dict[str, Node], name: str, n_in: int, n_out: int,
                 rng: np.random.Generator):
        self.w = params.setdefault(f"{name}.w", Node(glorot(rng, (n_in, n_out))))
        self.b = params.setdefault(f"{name}.b", Node(np.zeros(n_out)))

    def __call__(self, x: Node) -> Node:
        return x @ self.w + self.b


class LstmCell:
    """One layer's parameters; gate order i, f, g, o; forget bias starts at 1.

    ``lstm_sequence`` runs the layer over a whole sequence; ``step`` builds
    one step of the same recurrence from primitive ops and is kept as the
    reference that op is tested against.
    """

    def __init__(self, params: dict[str, Node], name: str, n_in: int, hidden: int,
                 rng: np.random.Generator):
        self.hidden = hidden
        self.wx = params.setdefault(f"{name}.wx", Node(glorot(rng, (n_in, 4 * hidden))))
        self.wh = params.setdefault(f"{name}.wh", Node(glorot(rng, (hidden, 4 * hidden))))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.b = params.setdefault(f"{name}.b", Node(bias))

    def step(self, x: Node, h: Node, c: Node) -> tuple[Node, Node]:
        gates = x @ self.wx + h @ self.wh + self.b
        n = self.hidden
        i = narrow(gates, 1, 0, n).sigmoid()
        f = narrow(gates, 1, n, n).sigmoid()
        g = narrow(gates, 1, 2 * n, n).tanh()
        o = narrow(gates, 1, 3 * n, n).sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class Lstm:
    """Stacked unidirectional recurrence over a (T, B, F) sequence."""

    def __init__(self, params: dict[str, Node], name: str, n_in: int, hidden: int,
                 layers: int, rng: np.random.Generator):
        self.cells = [
            LstmCell(params, f"{name}.l{k}", n_in if k == 0 else hidden, hidden, rng)
            for k in range(layers)
        ]
        self.hidden = hidden

    def __call__(self, x: Node, init: list[tuple[Node, Node]] | None = None) -> Node:
        """(T, B, F) inputs -> (T, B, hidden) top-layer hidden states.

        ``init`` holds the initial (h, c) per layer; zeros by default.
        """
        batch = x.shape[1]
        if init is None:
            zeros = Node(np.zeros((batch, self.hidden)))
            init = [(zeros, zeros)] * len(self.cells)
        for cell, (h0, c0) in zip(self.cells, init):
            x = lstm_sequence(x, h0, c0, cell.wx, cell.wh, cell.b)
        return x


class BatchNorm:
    """Per-feature standardization with running statistics for eval mode."""

    def __init__(self, params: dict[str, Node], name: str, features: int,
                 axes: tuple[int, ...] = (0,), momentum: float = 0.1, eps: float = 1e-5):
        self.gain = params.setdefault(f"{name}.gain", Node(np.ones(features)))
        self.shift = params.setdefault(f"{name}.shift", Node(np.zeros(features)))
        self.axes = axes
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def __call__(self, x: Node, train: bool) -> Node:
        if train:
            out, mu, var = _batch_norm(x, self.gain, self.shift, self.axes, self.eps)
            self.update(mu, var)
            return out
        shape = [1 if a in self.axes else -1 for a in range(x.value.ndim)]
        scale, offset = self.affine()
        return x * scale.reshape(*shape) + offset.reshape(*shape)

    def update(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Momentum step of the running statistics towards a batch's."""
        self.running_mean += self.momentum * (mu.reshape(-1) - self.running_mean)
        self.running_var += self.momentum * (var.reshape(-1) - self.running_var)

    def affine(self) -> tuple[Node, Node]:
        """Eval mode ``(x - mu) * inv * g + s`` as one per-feature scale and offset."""
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gain * inv
        return scale, self.shift - scale * self.running_mean

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"mean": self.running_mean, "var": self.running_var}


class TcnEncoder:
    """Stack of dilated causal convolutions ending in time-average pooling.

    Layer k uses dilation 2^k; each layer (conv, per-channel norm, ReLU) is
    one ``_conv_norm_relu`` tape node on time-major (C, T, B) activations,
    transposed once on entry and once on exit; in eval mode each layer folds
    its norm into the conv.  Receptive field with kernel 3 and 4 layers:
    1 + 2*(1+2+4+8) = 31 steps.
    """

    def __init__(self, params: dict[str, Node], name: str, in_channels: int,
                 filters: int, kernel: int, layers: int, rng: np.random.Generator):
        self.filters = filters
        self.convs = []
        self.norms = []
        self.dilations = [2**k for k in range(layers)]
        for k in range(layers):
            c_in = in_channels if k == 0 else filters
            w = params.setdefault(
                f"{name}.conv{k}.w",
                Node(glorot(rng, (filters, c_in, kernel)) / np.sqrt(kernel)),
            )
            b = params.setdefault(f"{name}.conv{k}.b", Node(np.zeros(filters)))
            self.convs.append((w, b))
            self.norms.append(BatchNorm(params, f"{name}.norm{k}", filters, axes=(0, 2)))

    @property
    def receptive_field(self) -> int:
        kernel = self.convs[0][0].shape[2]
        return 1 + (kernel - 1) * sum(self.dilations)

    def _time_major(self, x: Node, train: bool) -> Node:
        """(B, C, T) -> (filters, T, B)."""
        x = x.transpose((1, 2, 0))
        for (w, b), norm, dilation in zip(self.convs, self.norms, self.dilations):
            x = _conv_norm_relu(x, w, b, norm, dilation, train)
        return x

    def features_over_time(self, x: Node, train: bool) -> Node:
        """(B, C, T) -> (B, filters, T), pre-pooling activations."""
        return self._time_major(x, train).transpose((2, 0, 1))

    def __call__(self, x: Node, train: bool) -> Node:
        """(B, C, T) -> (B, filters)."""
        return self._time_major(x, train).mean(axis=1).T
