"""Pairwise curve rankers.

Two architectures share one encoder stack (causal-conv curve encoder,
recurrent architecture encoder/decoder, domain table, hyperparameter
normalization):

* the relative ranker consumes input differences (curve_i - curve_j,
  hp_i - hp_j, embedding differences) and emits a signed distance delta;
* the siamese ranker scores each record separately with shared parameters
  and takes delta as the score difference, so delta(i,j) = -delta(j,i)
  holds exactly by construction.

Both are one shell, ``_Ranker``, which owns the kind check, the encoder
stack (``enc``, ``params``), its batch-norm state and ``distance``; each
kind supplies only ``_delta``, how the two sides of a pair are combined.

The superiority probability is the logistic map of delta.  Training adds
an architecture-reconstruction term: total = CE + lambda * MSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from necurve.act import MASK_STRICT, ActLayer
from necurve.autodiff import Node, _sigmoid_value, concat, dropout, gather_rows
from necurve.layers import BatchNorm, Dense, Lstm, TcnEncoder


@dataclass
class RankerConfig:
    kind: str = "r2"  # "r2" or "siamese"
    observed_length: int = 60
    use_act: bool = False
    act_df: int = 3
    gamma: float = 0.05
    mask_mode: str = MASK_STRICT
    act_init: str = "max-window"
    lam: float = 0.1
    tcn_layers: int = 4
    tcn_filters: int = 64
    tcn_kernel: int = 3
    lstm_layers: int = 2
    lstm_dim: int = 64
    embed_dim: int = 64
    head_hidden: int = 64
    dropout: float = 0.3
    use_metadata: bool = True
    hp_dim: int = 13
    arch_feature_dim: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("r2", "siamese"):
            raise ValueError(f"unknown ranker kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("reconstruction weight must be nonnegative")
        for name in ("observed_length", "tcn_layers", "tcn_filters", "tcn_kernel",
                     "lstm_layers", "lstm_dim", "embed_dim", "head_hidden", "hp_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class PairBatch:
    """Arrays for one minibatch of within-job pairs."""

    curves_i: np.ndarray  # (B, L) observed-prefix curve values
    curves_j: np.ndarray
    hp_i: np.ndarray  # (B, hp_dim)
    hp_j: np.ndarray
    arch_i: list  # per pair: a sequence of (in, out) rows, one per layer
    arch_j: list
    domain_ids: list
    labels: np.ndarray  # (B,) in {0, 1}; 1 means the left record is superior

    def __len__(self) -> int:
        return len(self.labels)

    def swapped(self) -> "PairBatch":
        return PairBatch(
            curves_i=self.curves_j, curves_j=self.curves_i,
            hp_i=self.hp_j, hp_j=self.hp_i,
            arch_i=self.arch_j, arch_j=self.arch_i,
            domain_ids=self.domain_ids, labels=1.0 - self.labels,
        )


@dataclass
class DistanceOutput:
    delta: Node  # (B,)
    probability: np.ndarray  # logistic of delta, detached
    reconstruction: Node  # scalar MSE of the architecture decoder


def pairwise_probability(delta):
    """Logistic map e^d / (1 + e^d), stable for large |d|."""
    if isinstance(delta, Node):
        return delta.sigmoid()
    return _sigmoid_value(np.asarray(delta, dtype=np.float64))


def ce_loss(delta: Node, labels: np.ndarray) -> Node:
    """Mean cross-entropy -p*ln(p_hat) - (1-p)*ln(1-p_hat) with
    p_hat = logistic(delta), evaluated through delta so |delta| = 500
    stays finite: CE = p*softplus(-delta) + (1-p)*softplus(delta)."""
    labels = np.asarray(labels, dtype=np.float64)
    return (labels * (-delta).softplus() + (1.0 - labels) * delta.softplus()).mean()


def total_loss(ce: Node, mse: Node, lam: float) -> Node:
    if lam < 0:
        raise ValueError("reconstruction weight must be nonnegative")
    return ce + mse * lam


class _SharedEncoders:
    """Parameter-owning encoder stack used by both ranker kinds."""

    def __init__(self, config: RankerConfig, domains: list, arch_mean: np.ndarray,
                 arch_sd: np.ndarray):
        self.config = config
        self.params: dict[str, Node] = {}
        rng = np.random.default_rng(config.seed)
        self.tcn = TcnEncoder(
            self.params, "curve", 1, config.tcn_filters, config.tcn_kernel,
            config.tcn_layers, rng,
        )
        self.act = None
        if config.use_act:
            self.act = ActLayer(
                self.params, config.observed_length, df=config.act_df,
                gamma=config.gamma, mask_mode=config.mask_mode,
                init_mode=config.act_init, seed=config.seed,
            )
        feature_dim = config.tcn_filters
        if config.use_metadata:
            self.hp_norm = BatchNorm(self.params, "hp_norm", config.hp_dim)
            self.arch_encoder = Lstm(
                self.params, "arch_enc", config.arch_feature_dim, config.lstm_dim,
                config.lstm_layers, rng,
            )
            self.arch_decoder = Lstm(
                self.params, "arch_dec", config.arch_feature_dim, config.lstm_dim,
                config.lstm_layers, rng,
            )
            self.arch_out = Dense(
                self.params, "arch_out", config.lstm_dim, config.arch_feature_dim, rng
            )
            self.domain_index = {key: row for row, key in enumerate(dict.fromkeys(domains))}
            self.params["domains"] = Node(
                rng.normal(scale=0.1, size=(max(len(self.domain_index), 1), config.embed_dim))
            )
            self.arch_mean = np.asarray(arch_mean, dtype=np.float64)
            self.arch_sd = np.asarray(arch_sd, dtype=np.float64)
            feature_dim += config.hp_dim + config.lstm_dim + config.embed_dim
        self.head_hidden = Dense(self.params, "head.hidden", feature_dim, config.head_hidden, rng)
        self.head_out = Dense(self.params, "head.out", config.head_hidden, 1, rng)

    # -- curve path -----------------------------------------------------

    def curve_features(self, curves: Node, train: bool) -> Node:
        batch, length = curves.shape
        return self.tcn(curves.reshape(batch, 1, length), train)

    def transform_curves(self, curves: np.ndarray) -> Node:
        if self.act is None:
            return Node(curves)
        return self.act.transform(curves)

    # -- metadata paths ---------------------------------------------------

    def encode_distinct(self, seqs) -> tuple[Node, Node, Node, np.ndarray]:
        """(embeddings (U, H) of the U distinct sequences, reconstruction sse,
        element count, ``inverse``): row ``inverse[n]`` embeds ``seqs[n]``, and
        sse and count sum over all of ``seqs``.  One zero-padded (T, U, F) pass;
        the LSTMs are causal, so padding changes no embedding (the hidden state
        at step len - 1) and no reconstruction error, masked to real steps."""
        index: dict[tuple, int] = {}  # distinct sequences by content, first seen first
        inverse = np.array([index.setdefault(tuple(map(tuple, seq)), len(index)) for seq in seqs],
                           dtype=np.intp)
        distinct = list(index)
        lengths = np.array([len(seq) for seq in distinct])
        if lengths.min() == 0:
            raise ValueError("architecture sequences must be nonempty")
        steps, count = int(lengths.max()), len(distinct)
        real = np.arange(steps)[:, None] < lengths  # (T, U): step t of sequence u exists
        target = np.zeros((steps, count, self.config.arch_feature_dim))
        rows = np.array([row for seq in distinct for row in seq], dtype=np.float64)
        target.transpose(1, 0, 2)[real.T] = (rows - self.arch_mean) / self.arch_sd
        last = (np.arange(steps)[:, None] == lengths - 1)[..., None]  # one-hot in time
        embeddings = (self.arch_encoder(Node(target)) * last).sum(axis=0)
        # the decoder unrolls from each embedding as initial hidden state over
        # zero inputs; one output Dense maps every (step, sequence) row back
        zero_c = Node(np.zeros((count, self.config.lstm_dim)))
        decoded = self.arch_decoder(Node(np.zeros_like(target)),
                                    init=[(embeddings, zero_c)] * len(self.arch_decoder.cells))
        err = self.arch_out(decoded.reshape(steps * count, -1)) - target.reshape(steps * count, -1)
        # each distinct sequence's error counts as often as the sequence occurs
        weights = (real * np.bincount(inverse, minlength=count)).reshape(-1, 1)
        sse = (err * err * weights).sum()
        return embeddings, sse, Node(weights.sum() * target.shape[2]), inverse

    def encode_architectures(self, seqs) -> tuple[Node, Node, Node]:
        """Returns (embeddings (B, H) in input order, reconstruction sse, element count)."""
        embeddings, sse, count, inverse = self.encode_distinct(seqs)
        return gather_rows(embeddings, inverse), sse, count

    def encode_pairs(self, arch_i, arch_j) -> tuple[Node, Node, Node]:
        """The relative ranker's (feature, sse, count) from one encode of both
        sides: identical architectures contribute the shared embedding once,
        different ones the embedding difference."""
        embeddings, sse, count, inverse = self.encode_distinct([*arch_i, *arch_j])
        side_i, side_j = np.split(inverse, 2)
        differ = (side_i != side_j).reshape(-1, 1).astype(np.float64)
        feature = gather_rows(embeddings, side_i) - gather_rows(embeddings, side_j) * differ
        return feature, sse, count

    def embed_domains(self, ids: list, train: bool, eval_seed: int = 0) -> Node:
        known = [self.domain_index.get(key) for key in ids]
        if all(row is not None for row in known):
            return gather_rows(self.params["domains"], known)
        if train:
            missing = [key for key, row in zip(ids, known) if row is None]
            raise KeyError(f"domains unseen at construction: {missing}")
        table = self.params["domains"].value
        rows = np.empty((len(ids), self.config.embed_dim))
        for pos, (key, row) in enumerate(zip(ids, known)):
            if row is not None:
                rows[pos] = table[row]
            else:
                fresh = np.random.default_rng([eval_seed, int(key)])
                rows[pos] = fresh.normal(scale=0.1, size=self.config.embed_dim)
        return Node(rows)

    def head(self, features: Node, train: bool, rng: np.random.Generator | None) -> Node:
        if train and self.config.dropout > 0:
            if rng is None:
                raise ValueError("training forward needs a dropout generator")
            features = dropout(features, self.config.dropout, rng)
        hidden = self.head_hidden(features).relu()
        return self.head_out(hidden).reshape(-1)

    def _norm_layers(self) -> dict[str, BatchNorm]:
        layers = {f"curve.norm{k}": norm for k, norm in enumerate(self.tcn.norms)}
        if self.config.use_metadata:
            layers["hp_norm"] = self.hp_norm
        return layers

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Running statistics that eval-mode forwards depend on."""
        out = {}
        for name, norm in self._norm_layers().items():
            for key, arr in norm.state_arrays().items():
                out[f"{name}.{key}"] = arr
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, norm in self._norm_layers().items():
            norm.running_mean[...] = state[f"{name}.mean"]
            norm.running_var[...] = state[f"{name}.var"]


class _Ranker:
    """The shell both kinds share: the kind check, the encoder stack and its
    state, and the distance output.  A subclass sets ``kind`` and supplies
    ``_delta(batch, train, rng, eval_seed) -> (delta, sse, count)``, where
    sse and count sum the architecture reconstruction over both sides."""

    kind = ""

    def __init__(self, config: RankerConfig, domains: list = (),
                 arch_mean=0.0, arch_sd=1.0):
        if config.kind != self.kind:
            raise ValueError(f"config.kind must be {self.kind!r}")
        self.config = config
        self.enc = _SharedEncoders(config, list(domains), arch_mean, arch_sd)
        self.params = self.enc.params

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.enc.state_arrays()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.enc.load_state(state)

    def distance(self, batch: PairBatch, train: bool = False,
                 rng: np.random.Generator | None = None, eval_seed: int = 0) -> DistanceOutput:
        _check_lengths(batch, self.config.observed_length)
        delta, sse, count = self._delta(batch, train, rng, eval_seed)
        mse = sse / count if self.config.use_metadata else Node(0.0)
        return DistanceOutput(
            delta=delta, probability=pairwise_probability(delta.value), reconstruction=mse
        )


class RelativeRanker(_Ranker):
    """Signed-distance ranker over input differences."""

    kind = "r2"

    def _delta(self, batch: PairBatch, train: bool, rng, eval_seed: int):
        enc = self.enc
        zi = enc.transform_curves(batch.curves_i)
        zj = enc.transform_curves(batch.curves_j)
        parts = [enc.curve_features(zi - zj, train)]
        sse = count = None
        if self.config.use_metadata:
            parts.append(enc.hp_norm(Node(batch.hp_i - batch.hp_j), train))
            feature, sse, count = enc.encode_pairs(batch.arch_i, batch.arch_j)
            parts += [feature, enc.embed_domains(batch.domain_ids, train, eval_seed)]
        return enc.head(concat(parts, axis=1), train, rng), sse, count


class SiameseRanker(_Ranker):
    """Per-record scoring with shared parameters; delta is the score gap."""

    kind = "siamese"

    def _score(self, curves: np.ndarray, hp: np.ndarray, archs: list, domain_ids: list,
               train: bool, rng, eval_seed: int) -> tuple[Node, Node, Node]:
        z = self.enc.transform_curves(curves)
        parts = [self.enc.curve_features(z, train)]
        sse = Node(0.0)
        count = Node(1.0)
        if self.config.use_metadata:
            parts.append(self.enc.hp_norm(Node(hp), train))
            emb, sse, count = self.enc.encode_architectures(archs)
            parts.append(emb)
            parts.append(self.enc.embed_domains(domain_ids, train, eval_seed))
        return self.enc.head(concat(parts, axis=1), train, rng), sse, count

    def _delta(self, batch: PairBatch, train: bool, rng, eval_seed: int):
        # both sides share one dropout pattern so identical inputs tie exactly
        seed_state = None if rng is None else rng.bit_generator.state
        f_i, sse_i, count_i = self._score(
            batch.curves_i, batch.hp_i, batch.arch_i, batch.domain_ids, train, rng, eval_seed
        )
        if rng is not None:
            rng.bit_generator.state = seed_state
        f_j, sse_j, count_j = self._score(
            batch.curves_j, batch.hp_j, batch.arch_j, batch.domain_ids, train, rng, eval_seed
        )
        return f_i - f_j, sse_i + sse_j, count_i + count_j


def _check_lengths(batch: PairBatch, expected: int) -> None:
    for name in ("curves_i", "curves_j"):
        arr = getattr(batch, name)
        if arr.ndim != 2 or arr.shape[1] != expected:
            raise ValueError(
                f"{name} must be (B, {expected}), got {arr.shape}"
            )
    if batch.curves_i.shape != batch.curves_j.shape:
        raise ValueError("pair sides disagree in shape")


def build_ranker(config: RankerConfig, domains: list = (), arch_mean=0.0, arch_sd=1.0):
    ranker = RelativeRanker if config.kind == "r2" else SiameseRanker
    return ranker(config, domains, arch_mean, arch_sd)


def arch_statistics(sequences: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot mean and sd over all layers of all training sequences."""
    stacked = np.concatenate([np.asarray(s, dtype=np.float64) for s in sequences])
    sd = stacked.std(axis=0)
    sd[sd == 0] = 1.0
    return stacked.mean(axis=0), sd
