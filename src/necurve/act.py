"""Differentiable window transformation of lifetime-NE curves.

A curve value at position t is a cumulative mean.  Picking a left index
k < t turns it into a window mean over positions (k, t]:

    z_t = (t*y_t - k*y_k) / (t - k)

The left index is chosen softly: a column-stochastic indicator matrix puts
probability mass over candidate rows k in {0, ..., L-1}, where row 0 is a
virtual origin (t_0 = 0, y_0 = 0) so the full-prefix window (z = y) is a
member of the family and the denominator stays >= 1 under the strict mask.

Three variable layouts feed the indicator: one shared trainable matrix
(df=1), one window size per curve from a recurrent encoder (df=2), and one
window per curve per position (df=3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from necurve.autodiff import DomainError, Node, lstm_sequence, narrow
from necurve.layers import LstmCell

MASK_STRICT = "strict-additive"
MASK_LITERAL = "literal-multiplicative"

# large negative logit; exp underflows to exact zero after the shift
BIG_NEGATIVE = -1e9

DENOMINATOR_FLOOR = 1e-6


class NumericGuardError(RuntimeError):
    """Soft window collapsed: t - k_hat fell below the safe floor."""


@dataclass
class WindowVariables:
    """Positive variables in (0, 1), columns indexed by position; the tag
    records which degrees-of-freedom scheme produced them."""

    matrix: np.ndarray
    tag: str

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if np.any(self.matrix <= 0.0) or np.any(self.matrix >= 1.0):
            raise ValueError("window variables must lie strictly in (0, 1)")


@dataclass
class SoftIndicator:
    """Column-stochastic soft one-hot matrix; rows are left indices
    0..L-1 (row 0 = virtual origin), columns are positions 1..L."""

    matrix: Node
    gamma: float
    mask_mode: str

    @property
    def length(self) -> int:
        return self.matrix.shape[1]


def admissible_rows(length: int) -> np.ndarray:
    """0/1 matrix: row k is admissible for column t iff k <= t-1."""
    return np.triu(np.ones((length, length)))


def positions(length: int) -> np.ndarray:
    """t = [1, ..., L]."""
    return np.arange(1, length + 1, dtype=np.float64)


def left_positions(length: int) -> np.ndarray:
    """Candidate left indices [0, ..., L-1]; index 0 is the virtual origin."""
    return np.arange(length, dtype=np.float64)


def augmented_values(values: np.ndarray) -> np.ndarray:
    """Candidate left values [0, y_1, ..., y_{L-1}] along the last axis."""
    values = np.asarray(values, dtype=np.float64)
    pad = np.zeros(values.shape[:-1] + (1,))
    return np.concatenate([pad, values[..., :-1]], axis=-1)


def _masked_logits(variables: Node, gamma: float, mask_mode: str,
                   mask: np.ndarray) -> Node:
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"smoothness factor must lie in (0, 1], got {gamma}")
    if mask_mode == MASK_STRICT:
        # scale admissible logits only, then clamp the rest; the clamp does
        # not move with gamma
        return variables * (mask / gamma) + (mask - 1.0) * -BIG_NEGATIVE
    if mask_mode == MASK_LITERAL:
        # as printed: masked entries keep logit 0 and leak exp(0) weight
        return variables * (mask / gamma)
    raise ValueError(f"unknown mask mode {mask_mode!r}")


def soft_indicator(
    variables: WindowVariables | Node | np.ndarray,
    gamma: float = 0.05,
    mask_mode: str = MASK_STRICT,
    mask: np.ndarray | None = None,
) -> SoftIndicator:
    """Column softmax of masked, temperature-scaled variables.

    With gamma = 1 and an all-ones mask this is a plain column softmax; as
    gamma shrinks each column hardens toward one-hot at its admissible
    argmax.  Pass ``mask`` to override the default strictly-left rule.
    """
    if isinstance(variables, WindowVariables):
        variables = variables.matrix
    if not isinstance(variables, Node):
        variables = Node(variables)
    if variables.value.ndim != 2 or variables.shape[0] != variables.shape[1]:
        raise ValueError("window variables must form a square matrix")
    if mask is None:
        mask = admissible_rows(variables.shape[0])
    logits = _masked_logits(variables, gamma, mask_mode, mask)
    return SoftIndicator(matrix=logits.softmax(axis=0), gamma=gamma, mask_mode=mask_mode)


def _compose(t: np.ndarray, y: np.ndarray, k_hat: Node, y_hat: Node) -> Node:
    """z = (t*y - k_hat*y_hat) / (t - k_hat), guarding the denominator."""
    denominator = (k_hat - t) * -1.0
    if denominator.value.min() < DENOMINATOR_FLOOR:
        raise NumericGuardError(
            f"soft window size fell to {denominator.value.min():.3e}; "
            "inadmissible leakage pushed the left index onto the position"
        )
    return (k_hat * y_hat - t * y) * -1.0 / denominator


def window_transform(values: np.ndarray, indicator: SoftIndicator) -> Node:
    """Apply one shared indicator to curve values (L,) or (B, L)."""
    values = np.asarray(values, dtype=np.float64)
    single = values.ndim == 1
    batch = values.reshape(1, -1) if single else values
    length = indicator.length
    if batch.shape[1] != length:
        raise ValueError(
            f"curve length {batch.shape[1]} does not match indicator size {length}"
        )
    k_hat = (indicator.matrix * left_positions(length).reshape(-1, 1)).sum(axis=0)
    y_hat = Node(augmented_values(batch)) @ indicator.matrix
    z = _compose(positions(length), batch, k_hat, y_hat)
    return z.reshape(length) if single else z


def hard_index_select(values: np.ndarray, indices) -> np.ndarray:
    """Exact lookup [y_{k_1}, ..., y_{k_L}] with y_0 = 0; oracle for the
    soft path.  Index k_t must satisfy 0 <= k_t <= t."""
    values = np.asarray(values, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) != len(values):
        raise ValueError("one index per position required")
    out = np.empty(len(values))
    for pos, k in enumerate(indices, start=1):
        if not 0 <= k <= pos:
            raise DomainError(f"index {k} not admissible at position {pos}")
        out[pos - 1] = 0.0 if k == 0 else values[k - 1]
    return out


def hard_indicator(length: int, indices) -> np.ndarray:
    """Exact one-hot indicator columns for the given left indices."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((length, length))
    for pos, k in enumerate(indices, start=1):
        if not 0 <= k <= pos - 1:
            raise DomainError(f"left index {k} not strictly left of position {pos}")
        out[k, pos - 1] = 1.0
    return out


def df1_variables(length: int, init_mode: str, seed: int) -> WindowVariables:
    """One shared variable matrix, trained directly.

    min-window puts each column's peak at row t-1 (window size 1);
    max-window puts it at row 0 (full prefix, the identity transform).
    Peaks draw from (0.75, 0.95); off-peak entries keep a 0.2 margin below
    the peak so the intended argmax survives the random draw.
    """
    if init_mode not in ("min-window", "max-window"):
        raise ValueError(f"unknown init mode {init_mode!r}")
    rng = np.random.default_rng(seed)
    peaks = rng.uniform(0.75, 0.95, size=length)
    matrix = rng.uniform(np.finfo(float).tiny, peaks - 0.2, size=(length, length))
    for col in range(length):
        row = col if init_mode == "min-window" else 0
        matrix[row, col] = peaks[col]
    return WindowVariables(matrix=matrix, tag="DF1")


# -- per-curve single window (df=2) -----------------------------------------


def df2_count_mask(length: int) -> np.ndarray:
    """Row j holds the left indices for window size j: entry (j, t) is
    t - j, zero where the window does not fit (virtual origin)."""
    out = np.zeros((length, length))
    t = positions(length)
    for j in range(1, length + 1):
        out[j - 1, j:] = t[: length - j]  # t - j for t > j; t = j hits the origin
    return out


def df2_value_mask(values: np.ndarray) -> np.ndarray:
    """Row j holds the left values for window size j: entry (j, t) is
    y_{t-j}, zero at and before the origin."""
    values = np.asarray(values, dtype=np.float64)
    length = len(values)
    out = np.zeros((length, length))
    for j in range(1, length):
        out[j - 1, j:] = values[: length - j]
    return out


def window_size_admissible(length: int) -> np.ndarray:
    """0/1 matrix over window sizes: size j fits position t iff j <= t."""
    return np.triu(np.ones((length, length)))


def df2_indicator(
    alpha_last: Node, gamma: float = 0.05, mask_mode: str = MASK_STRICT
) -> SoftIndicator:
    """Soft window-size distribution shared by every position of one curve:
    columns are positions, rows are window sizes 1..L."""
    length = alpha_last.shape[0]
    tiled = alpha_last.reshape(-1, 1) * np.ones((1, length))
    logits = _masked_logits(tiled, gamma, mask_mode, window_size_admissible(length))
    return SoftIndicator(matrix=logits.softmax(axis=0), gamma=gamma, mask_mode=mask_mode)


def df2_transform(
    values: np.ndarray,
    alpha_last: Node,
    gamma: float = 0.05,
    mask_mode: str = MASK_STRICT,
) -> Node:
    """Window transform with one soft window size for the whole curve.

    The left index and left value are recovered from the window-size
    distribution by row masks: sum_j D[j,t] * (t - j) and
    sum_j D[j,t] * y_{t-j}.
    """
    values = np.asarray(values, dtype=np.float64)
    indicator = df2_indicator(alpha_last, gamma, mask_mode)
    length = indicator.length
    if len(values) != length:
        raise ValueError("curve length does not match the variable vector")
    k_hat = (indicator.matrix * df2_count_mask(length)).sum(axis=0)
    y_hat = (indicator.matrix * df2_value_mask(values)).sum(axis=0)
    return _compose(positions(length), values, k_hat, y_hat)


# -- batched row layout ------------------------------------------------------
# Rows are (position, curve) pairs, positions grouped outermost, so every
# per-curve per-position softmax runs along axis 1 in a single 2-D op.


def _rows_to_batch(flat: Node, length: int, batch: int) -> Node:
    return flat.reshape(length, batch).T


def _transform_rows(
    row_logits: Node,
    row_mask: np.ndarray,
    row_count_weights: np.ndarray,
    row_value_weights: np.ndarray,
    curves: np.ndarray,
    gamma: float,
    mask_mode: str,
) -> Node:
    batch, length = curves.shape
    logits = _masked_logits(row_logits, gamma, mask_mode, row_mask)
    soft = logits.softmax(axis=1)
    k_hat = _rows_to_batch((soft * row_count_weights).sum(axis=1), length, batch)
    y_hat = _rows_to_batch((soft * row_value_weights).sum(axis=1), length, batch)
    return _compose(positions(length), curves, k_hat, y_hat)


def df3_row_mask(length: int, batch: int) -> np.ndarray:
    return np.repeat(admissible_rows(length).T, batch, axis=0)


def df2_row_masks(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    batch, length = curves.shape
    admissible = np.repeat(window_size_admissible(length).T, batch, axis=0)
    counts = np.repeat(df2_count_mask(length).T, batch, axis=0)
    values = np.zeros((length, batch, length))
    for j in range(1, length):
        values[j:, :, j - 1] = curves[:, : length - j].T
    return admissible, counts, values.reshape(length * batch, length)


class ActLayer:
    """Owns the transform parameters for one degrees-of-freedom mode and
    applies the transform to batches of fixed-length curves."""

    def __init__(
        self,
        params: dict[str, Node],
        length: int,
        df: int = 3,
        gamma: float = 0.05,
        mask_mode: str = MASK_STRICT,
        init_mode: str = "max-window",
        seed: int = 0,
        name: str = "act",
    ):
        if df not in (1, 2, 3):
            raise ValueError(f"degrees-of-freedom mode must be 1, 2, or 3, got {df}")
        self.length = length
        self.df = df
        self.gamma = gamma
        self.mask_mode = mask_mode
        if df == 1:
            initial = df1_variables(length, init_mode, seed).matrix
            self.variables = params.setdefault(f"{name}.window", Node(initial))
            self.cell = None
        else:
            rng = np.random.default_rng(seed)
            self.variables = None
            self.cell = LstmCell(params, f"{name}.rnn", 1, length, rng)

    def _alphas(self, curves: np.ndarray) -> Node:
        """One recurrence over the batch: (L, B, L), entry [t] is sigmoid(h_t)."""
        batch, length = curves.shape
        zeros = Node(np.zeros((batch, self.length)))
        steps = Node(curves.T.reshape(length, batch, 1))
        cell = self.cell
        return lstm_sequence(steps, zeros, zeros, cell.wx, cell.wh, cell.b).sigmoid()

    def transform(self, curves: np.ndarray) -> Node:
        """(B, L) raw curve values -> (B, L) soft window means."""
        curves = np.asarray(curves, dtype=np.float64)
        if curves.ndim != 2 or curves.shape[1] != self.length:
            raise ValueError(
                f"expected curves of shape (B, {self.length}), got {curves.shape}"
            )
        batch, length = curves.shape
        if self.df == 1:
            indicator = soft_indicator(self.variables, self.gamma, self.mask_mode)
            return window_transform(curves, indicator)
        alphas = self._alphas(curves)
        if self.df == 2:
            # every position reuses the last step's logits
            last = narrow(alphas, 0, length - 1, 1)
            row_logits = (last * np.ones((length, 1, 1))).reshape(length * batch, length)
            row_mask, counts, values = df2_row_masks(curves)
            return _transform_rows(
                row_logits, row_mask, counts, values, curves, self.gamma, self.mask_mode
            )
        row_logits = alphas.reshape(length * batch, length)
        row_mask = df3_row_mask(length, batch)
        counts = np.broadcast_to(left_positions(length), (length * batch, length))
        values = np.tile(augmented_values(curves), (length, 1))
        return _transform_rows(
            row_logits, row_mask, counts, values, curves, self.gamma, self.mask_mode
        )

    def indicator_for(self, curve: np.ndarray) -> np.ndarray:
        """Left-index indicator matrix (rows k, columns t) for one curve,
        for inspection; hard lookups use the column argmax."""
        curve = np.asarray(curve, dtype=np.float64).reshape(1, -1)
        if self.df == 1:
            return soft_indicator(self.variables, self.gamma, self.mask_mode).matrix.value
        alphas = self._alphas(curve).value.reshape(self.length, self.length)
        length = self.length
        if self.df == 2:
            sizes = df2_indicator(Node(alphas[-1]), self.gamma, self.mask_mode).matrix.value
            out = np.zeros((length, length))
            for t in range(1, length + 1):
                for j in range(1, t + 1):
                    out[t - j, t - 1] += sizes[j - 1, t - 1]
            return out
        return soft_indicator(alphas.T, self.gamma, self.mask_mode).matrix.value


def df3_variables(values: np.ndarray, cell: LstmCell) -> WindowVariables:
    """Per-position variables from a recurrence over the curve prefix:
    column t is sigmoid(h_t), so it only depends on values up to t."""
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    length = values.shape[1]
    if cell.hidden != length:
        raise ValueError("recurrent state size must equal the curve length")
    h = Node(np.zeros((1, length)))
    c = Node(np.zeros((1, length)))
    columns = []
    for t in range(length):
        h, c = cell.step(Node(values[:, t : t + 1]), h, c)
        columns.append(h.sigmoid().value.reshape(length))
    return WindowVariables(matrix=np.stack(columns, axis=1), tag="DF3")


def export_indicator(length: int, gamma: float, init_mode: str, seed: int = 0) -> dict:
    """Heatmap data: the initial variable matrix and its soft indicator."""
    variables = df1_variables(length, init_mode, seed)
    indicator = soft_indicator(variables, gamma)
    return {
        "length": length,
        "gamma": gamma,
        "init": init_mode,
        "variables": variables.matrix.tolist(),
        "indicator": indicator.matrix.value.tolist(),
    }
