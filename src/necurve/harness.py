"""Training loop, metrics, grouped cross-validation, and report emission.

Experiments are described by a TrainConfig: which ranker (the greedy
last-value baseline, the siamese scorer, or the relative ranker, each
optionally with the adaptive window front end), how long to train, and which
observation fractions to evaluate.  Training is mini-batch Adam over ordered
within-job pairs with best-epoch selection by validation AUC.  Evaluation
reports pair accuracy (ties count as wrong) and AUC via the midrank
statistic.  Cross-validation runs the grouped K folds and aggregates mean
and spread per fraction.  The greedy baseline and the consistency curves are
scored from per-job stacked curve arrays, with no pair objects; a trained
ranker's fold/fraction tasks can be spread over NECURVE_THREADS worker
threads.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from necurve.act import MASK_LITERAL, MASK_STRICT
from necurve.autodiff import Adam, no_grad
from necurve.curves import observed_count
from necurve.rankers import (
    PairBatch,
    RankerConfig,
    arch_statistics,
    build_ranker,
    ce_loss,
    total_loss,
)
from necurve.synth import CurvePair, DatasetSplit, LabelingError, ModelRecord, grouped_kfold

RANKERS = ("greedy", "siamese", "siamese+act", "r2", "r2+act")
CRITERIA = ("lne", "wne")


class TrainingError(RuntimeError):
    """Training could not proceed; carries, and names, the failing fold,
    fraction, epoch and batch (epoch and batch count from 1, 0 is before)."""

    def __init__(self, message: str, fold: int, fraction: float, epoch: int, batch: int):
        super().__init__(f"{message} at fold {fold}, fraction {fraction:g}, "
                         f"epoch {epoch}, batch {batch}")
        self.fold, self.fraction, self.epoch, self.batch = fold, fraction, epoch, batch


class EvaluationError(ValueError):
    """Evaluation request is ill-posed (no pairs, or single-class labels)."""


@dataclass
class TrainConfig:
    ranker: str = "r2"
    epochs: int = 100
    batch: int = 64
    lr: float = 0.001
    dropout: float = 0.3
    seed: int = 0
    fractions: tuple = (0.2, 0.4, 0.6)
    act_df: int = 3
    gamma: float = 0.05
    lam: float = 0.1
    use_metadata: bool = True
    mask_mode: str = MASK_STRICT
    folds: int = 5
    tcn_layers: int = 4
    tcn_filters: int = 64
    tcn_kernel: int = 3
    lstm_layers: int = 2
    lstm_dim: int = 64
    embed_dim: int = 64
    head_hidden: int = 64
    max_pairs_per_epoch: int | None = None  # per-epoch subsample of train pairs
    eval_batch: int = 256

    def __post_init__(self) -> None:
        if self.ranker not in RANKERS:
            raise ValueError(f"ranker must be one of {RANKERS}, got {self.ranker!r}")
        if self.epochs < 1 or self.batch < 1 or self.folds < 2:
            raise ValueError("epochs and batch must be >= 1, folds >= 2")
        self.fractions = tuple(float(f) for f in self.fractions)
        if not self.fractions or any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ValueError(f"fractions must lie in (0, 1], got {self.fractions}")
        if self.act_df not in (1, 2, 3):
            raise ValueError(f"act_df must be 1, 2 or 3, got {self.act_df}")
        if self.mask_mode not in (MASK_STRICT, MASK_LITERAL):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if self.lam < 0 or not 0.0 <= self.dropout < 1.0:
            raise ValueError("lam must be >= 0 and dropout in [0, 1)")
        if self.max_pairs_per_epoch is not None and self.max_pairs_per_epoch < 1:
            raise ValueError("max_pairs_per_epoch must be positive")


def config_to_dict(config: TrainConfig) -> dict:
    data = dataclasses.asdict(config)
    data["fractions"] = list(config.fractions)
    return data


# -- metrics ------------------------------------------------------------------


def accuracy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Share of pairs called correctly at the 0.5 threshold.

    A probability of exactly 0.5 is a refusal to rank and counts as wrong.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(probabilities) == 0:
        raise EvaluationError("cannot score an empty pair set")
    correct = ((probabilities > 0.5) & (labels == 1.0)) | (
        (probabilities < 0.5) & (labels == 0.0)
    )
    return float(np.mean(correct))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum statistic with midranks,
    so tied scores contribute half a concordance each."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(scores) == 0:
        raise EvaluationError("cannot score an empty pair set")
    n_pos = int(np.sum(labels == 1.0))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(scores)]))
    midranks = (starts + ends + 1) / 2.0  # 1-based average rank per tie group
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(midranks, ends - starts)
    rank_sum = float(ranks[labels == 1.0].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalSlice:
    fraction: float
    auc: float
    accuracy: float
    pairs: int


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    fraction: float
    auc: float
    accuracy: float
    pairs: int
    best_epoch: int | None = None
    validation_auc: float | None = None


@dataclass
class EvalReport:
    """Per-fold metrics plus per-fraction aggregates for one ranker."""

    ranker: str
    fractions: list
    folds: list
    consistency: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    runtime_seconds: float = field(default=0.0, compare=False)

    def fold_metrics(self, fraction: float) -> list[FoldMetrics]:
        return [m for m in self.folds if m.fraction == fraction]

    def _agg(self, fraction: float, name: str) -> tuple[float, float]:
        values = np.array([getattr(m, name) for m in self.fold_metrics(fraction)])
        if len(values) == 0:
            raise KeyError(f"no folds recorded at fraction {fraction}")
        return float(values.mean()), float(values.std())

    def mean_auc(self, fraction: float) -> float:
        return self._agg(fraction, "auc")[0]

    def sd_auc(self, fraction: float) -> float:
        return self._agg(fraction, "auc")[1]

    def mean_accuracy(self, fraction: float) -> float:
        return self._agg(fraction, "accuracy")[0]

    def sd_accuracy(self, fraction: float) -> float:
        return self._agg(fraction, "accuracy")[1]

    def to_dict(self) -> dict:
        """Serializable content; wall-clock runtime is deliberately left out
        so reports from identical seeds are identical."""
        summary = {}
        for fraction in self.fractions:
            summary[f"{fraction:g}"] = {
                "mean_auc": self.mean_auc(fraction),
                "sd_auc": self.sd_auc(fraction),
                "mean_accuracy": self.mean_accuracy(fraction),
                "sd_accuracy": self.sd_accuracy(fraction),
            }
        return {
            "ranker": self.ranker,
            "fractions": list(self.fractions),
            "folds": [dataclasses.asdict(m) for m in self.folds],
            "summary": summary,
            "consistency": list(self.consistency),
            "config": dict(self.config),
        }

    @staticmethod
    def from_dict(data: dict) -> "EvalReport":
        return EvalReport(
            ranker=data["ranker"],
            fractions=list(data["fractions"]),
            folds=[FoldMetrics(**m) for m in data["folds"]],
            consistency=list(data.get("consistency", [])),
            config=dict(data.get("config", {})),
        )


# -- batches and checkpoints --------------------------------------------------


def make_pair_batch(pairs: list[CurvePair], n_obs: int) -> PairBatch:
    return PairBatch(
        curves_i=np.stack([p.left.curve.values[:n_obs] for p in pairs]),
        curves_j=np.stack([p.right.curve.values[:n_obs] for p in pairs]),
        hp_i=np.stack([p.left.hyperparameters for p in pairs]),
        hp_j=np.stack([p.right.hyperparameters for p in pairs]),
        arch_i=[p.left.architecture for p in pairs],
        arch_j=[p.right.architecture for p in pairs],
        domain_ids=[p.left.domain_id for p in pairs],
        labels=np.array([p.label for p in pairs]),
    )


def _unique_records(pairs: list[CurvePair]) -> list[ModelRecord]:
    seen: dict[int, ModelRecord] = {}
    for pair in pairs:
        seen.setdefault(pair.left.model_id, pair.left)
        seen.setdefault(pair.right.model_id, pair.right)
    return [seen[key] for key in sorted(seen)]


@dataclass
class Checkpoint:
    """Everything needed to rebuild the best-epoch model."""

    ranker_config: RankerConfig
    params: dict
    state: dict  # batch-norm running statistics
    domains: list
    arch_mean: np.ndarray
    arch_sd: np.ndarray
    fraction: float
    best_epoch: int
    validation_auc: float | None
    train_config: dict = field(default_factory=dict)


def build_model(checkpoint: Checkpoint):
    model = build_ranker(
        checkpoint.ranker_config, checkpoint.domains,
        checkpoint.arch_mean, checkpoint.arch_sd,
    )
    params = {name: node.value for name, node in model.params.items()}
    for kind, own, saved in (("parameter", params, checkpoint.params),
                             ("state", model.state_arrays(), checkpoint.state)):
        if set(own) != set(saved):
            raise ValueError(f"checkpoint {kind} names disagree with the model: missing "
                             f"{sorted(set(own) - set(saved))}, "
                             f"unknown {sorted(set(saved) - set(own))}")
        for name, value in own.items():
            if saved[name].shape != value.shape:
                raise ValueError(f"checkpoint shape mismatch for {kind} {name!r}")
    for name, node in model.params.items():
        node.value = checkpoint.params[name].copy()
        node.grad = None
    model.load_state(checkpoint.state)
    return model


def _encode_arrays(arrays: dict) -> dict:
    return {
        name: {
            "shape": list(np.asarray(value).shape),
            "data": base64.b64encode(
                np.ascontiguousarray(value, dtype=np.float64).tobytes()
            ).decode("ascii"),
        }
        for name, value in arrays.items()
    }


def _decode_arrays(payload: dict, path) -> dict:
    """Named arrays; an entry without data or shape, a size that does not fit
    the shape, a non-finite value or a negative ``*.var`` raises ValueError."""
    out = {}
    for name, entry in payload.items():
        if not {"data", "shape"} <= set(entry):
            raise ValueError(f"checkpoint {path}: array {name!r} needs 'data' and 'shape'")
        data = np.frombuffer(base64.b64decode(entry["data"]), dtype=np.float64)
        if data.size != np.prod(entry["shape"]):
            raise ValueError(f"checkpoint {path}: array {name!r} holds {data.size} "
                             f"values, which do not fit shape {entry['shape']}")
        if not np.isfinite(data).all():
            raise ValueError(f"checkpoint {path}: array {name!r} holds non-finite values")
        if name.endswith(".var") and (data < 0.0).any():
            raise ValueError(f"checkpoint {path}: running variance {name!r} is negative")
        out[name] = data.reshape(entry["shape"]).copy()
    return out


def save_checkpoint_file(checkpoint: Checkpoint, path) -> None:
    payload = {
        "ranker_config": dataclasses.asdict(checkpoint.ranker_config),
        "params": _encode_arrays(checkpoint.params),
        "state": _encode_arrays(checkpoint.state),
        "domains": [int(d) for d in checkpoint.domains],
        "arch_mean": [float(v) for v in np.atleast_1d(checkpoint.arch_mean)],
        "arch_sd": [float(v) for v in np.atleast_1d(checkpoint.arch_sd)],
        "fraction": checkpoint.fraction,
        "best_epoch": checkpoint.best_epoch,
        "validation_auc": checkpoint.validation_auc,
        "train_config": checkpoint.train_config,
    }
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, sort_keys=True)


def load_checkpoint_file(path) -> Checkpoint:
    with open(path, encoding="ascii") as handle:
        payload = json.load(handle)
    keys, names = set(payload["ranker_config"]), {f.name for f in dataclasses.fields(RankerConfig)}
    if keys != names:
        raise ValueError(f"checkpoint {path}: ranker_config has unknown keys "
                         f"{sorted(keys - names)} and missing keys {sorted(names - keys)}")
    return Checkpoint(
        ranker_config=RankerConfig(**payload["ranker_config"]),
        params=_decode_arrays(payload["params"], path),
        state=_decode_arrays(payload["state"], path),
        domains=list(payload["domains"]),
        arch_mean=np.array(payload["arch_mean"]),
        arch_sd=np.array(payload["arch_sd"]),
        fraction=payload["fraction"],
        best_epoch=payload["best_epoch"],
        validation_auc=payload["validation_auc"],
        train_config=payload.get("train_config", {}),
    )


# -- training ------------------------------------------------------------------


def _ranker_kind(ranker: str) -> tuple[str, bool]:
    base, _, suffix = ranker.partition("+")
    return base, suffix == "act"


def _derived_seed(config: TrainConfig, fold: int, fraction: float) -> int:
    return int(
        np.random.default_rng(
            [config.seed, fold, int(round(1000 * fraction))]
        ).integers(2**31)
    )


def _ranker_config(config: TrainConfig, n_obs: int, hp_dim: int, seed: int) -> RankerConfig:
    """Copies every field the two configs share by name, then sets the rest."""
    kind, use_act = _ranker_kind(config.ranker)
    shared = {f.name: getattr(config, f.name) for f in dataclasses.fields(RankerConfig)
              if hasattr(config, f.name)}
    shared.update(kind=kind, observed_length=n_obs, use_act=use_act, hp_dim=hp_dim, seed=seed)
    return RankerConfig(**shared)


def predict_pairs(model, pairs: list[CurvePair], n_obs: int,
                  eval_batch: int = 256, eval_seed: int = 0) -> np.ndarray:
    probabilities = []
    for start in range(0, len(pairs), eval_batch):
        batch = make_pair_batch(pairs[start:start + eval_batch], n_obs)
        with no_grad():
            probabilities.append(model.distance(batch, eval_seed=eval_seed).probability)
    return np.concatenate(probabilities)


def train(split: DatasetSplit, config: TrainConfig,
          fraction: float | None = None) -> Checkpoint:
    """Mini-batch Adam over the split's ordered training pairs.

    Keeps the epoch with the best validation AUC (falls back to validation
    accuracy if the validation labels are single-class, and to the final
    epoch if the split has no validation pairs).  Deterministic given the
    config seed.  Non-finite training loss aborts, naming where.
    """
    if config.ranker == "greedy":
        raise ValueError("the greedy baseline has nothing to train")
    if fraction is None:
        fraction = config.fractions[-1]
    if not split.train:
        raise TrainingError("training split has no pairs", split.fold, fraction, 0, 0)
    curve_length = len(split.train[0].left.curve)
    n_obs = observed_count(curve_length, fraction)
    records = _unique_records(split.train)
    domains = sorted({record.domain_id for record in records})
    arch_mean, arch_sd = arch_statistics([record.architecture for record in records])
    seed = _derived_seed(config, split.fold, fraction)
    ranker_config = _ranker_config(
        config, n_obs, len(records[0].hyperparameters), seed
    )
    model = build_ranker(ranker_config, domains, arch_mean, arch_sd)
    optimizer = Adam(model.params, lr=config.lr)
    shuffle_rng = np.random.default_rng([seed, 1])
    dropout_rng = np.random.default_rng([seed, 2])
    val_labels = np.array([p.label for p in split.validation])
    best_score, best_snapshot = -math.inf, None
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(split.train))
        if config.max_pairs_per_epoch is not None:
            order = order[:config.max_pairs_per_epoch]
        for start in range(0, len(order), config.batch):
            chunk = [split.train[i] for i in order[start:start + config.batch]]
            optimizer.zero_grad()
            out = model.distance(make_pair_batch(chunk, n_obs), train=True,
                                 rng=dropout_rng)
            loss = total_loss(ce_loss(out.delta, np.array([p.label for p in chunk])),
                              out.reconstruction, config.lam)
            if not np.isfinite(loss.value):
                raise TrainingError("non-finite training loss", split.fold, fraction, epoch,
                                    start // config.batch + 1)
            loss.backward()
            optimizer.step()
        if split.validation:
            probs = predict_pairs(model, split.validation, n_obs, config.eval_batch,
                                  eval_seed=seed)
            if len(set(val_labels.tolist())) > 1:
                score = roc_auc(probs, val_labels)
            else:
                score = accuracy(probs, val_labels)
        else:
            score = float(epoch)  # no validation: keep the final epoch
        if score > best_score:
            best_score = score
            best_snapshot = (
                epoch,
                {name: node.value.copy() for name, node in model.params.items()},
                {name: arr.copy() for name, arr in model.state_arrays().items()},
            )
    best_epoch, best_params, best_state = best_snapshot
    return Checkpoint(
        ranker_config=ranker_config,
        params=best_params,
        state=best_state,
        domains=domains,
        arch_mean=arch_mean,
        arch_sd=arch_sd,
        fraction=fraction,
        best_epoch=best_epoch,
        validation_auc=best_score if split.validation else None,
        train_config=config_to_dict(config),
    )


# -- evaluation ----------------------------------------------------------------


def evaluate(checkpoint: Checkpoint, pairs: list[CurvePair],
             fraction: float) -> EvalSlice:
    """Accuracy and AUC of a trained checkpoint on deduplicated pairs."""
    if not pairs:
        raise EvaluationError("no pairs to evaluate")
    n_obs = observed_count(len(pairs[0].left.curve), fraction)
    if n_obs != checkpoint.ranker_config.observed_length:
        raise ValueError(
            f"checkpoint expects {checkpoint.ranker_config.observed_length} observed "
            f"points but fraction {fraction} exposes {n_obs}"
        )
    model = build_model(checkpoint)
    eval_seed = int(checkpoint.train_config.get("seed", 0))
    probs = predict_pairs(model, pairs, n_obs, eval_seed=eval_seed)
    return _slice(probs, np.array([p.label for p in pairs]), fraction)


def _greedy_call(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The greedy rule on last observed values: 1 where the left value is
    lower, 0 where it is higher, and 0.5 on a tie, which the accuracy rule
    counts as wrong."""
    return np.where(left == right, 0.5, (left < right).astype(np.float64))


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"observed fraction must lie in (0, 1], got {fraction}")


def greedy_probabilities(pairs: list[CurvePair], fraction: float) -> np.ndarray:
    """Last-observed-value calls as probabilities: 1 if the left curve's
    value is lower, 0 if higher, 0.5 on a tie (counted as wrong)."""
    _check_fraction(fraction)
    observed = np.empty((2, len(pairs)))
    for idx, pair in enumerate(pairs):
        left, right = pair.left.curve.values, pair.right.curve.values
        if len(left) != len(right):
            raise ValueError("curves must be resampled to equal length")
        column = observed_count(len(left), fraction) - 1
        observed[0, idx] = left[column]
        observed[1, idx] = right[column]
    return _greedy_call(observed[0], observed[1])


def _slice(probabilities: np.ndarray, labels: np.ndarray, fraction: float) -> EvalSlice:
    if len(labels) == 0:
        raise EvaluationError("no pairs to evaluate")
    return EvalSlice(fraction=fraction, auc=roc_auc(probabilities, labels),
                     accuracy=accuracy(probabilities, labels), pairs=len(labels))


def evaluate_greedy(pairs: list[CurvePair], fraction: float) -> EvalSlice:
    labels = np.array([p.label for p in pairs])
    return _slice(greedy_probabilities(pairs, fraction), labels, fraction)


def _final_value(record: ModelRecord, criterion: str) -> float:
    value = record.final_lne if criterion == "lne" else record.final_wne
    if value is None or not math.isfinite(value):
        raise LabelingError(f"model {record.model_id} has no finite final {criterion}: {value}")
    return value


def _greedy_jobs(records: list[ModelRecord], criterion: str,
                 fractions) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The greedy calls on every within-job pair, from stacked curve arrays
    rather than pair objects.

    Per job, in (job_id, model_id) order: the curves are stacked into an
    (n, L) array, the pairs are taken in ``combinations`` order, pairs with
    equal finals under ``criterion`` are dropped, and a pair is labelled 1
    iff its left final is lower.  Returns job_id -> (labels, calls), where
    ``calls[i]`` holds the calls at ``fractions[i]``; the pairs and their
    order are those of ``pair_and_label(..., ordered=False)``.
    """
    for fraction in fractions:
        _check_fraction(fraction)
    by_job: dict[int, list[ModelRecord]] = {}
    for record in sorted(records, key=lambda r: (r.job_id, r.model_id)):
        by_job.setdefault(record.job_id, []).append(record)
    scored = {}
    for job_id, group in by_job.items():
        finals = np.array([_final_value(record, criterion) for record in group])
        length = len(group[0].curve)
        if any(len(record.curve) != length for record in group):
            raise ValueError(
                f"job {job_id} mixes curve lengths; curves must be resampled "
                "to equal length"
            )
        curves = np.stack([record.curve.values for record in group])
        left, right = np.triu_indices(len(group), 1)
        kept = finals[left] != finals[right]
        left, right = left[kept], right[kept]
        calls = np.empty((len(fractions), len(left)))
        for row, fraction in enumerate(fractions):
            column = curves[:, observed_count(length, fraction) - 1]
            calls[row] = _greedy_call(column[left], column[right])
        scored[job_id] = ((finals[left] < finals[right]).astype(np.float64), calls)
    return scored


def _gather(scored: dict, job_ids, n_fractions: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and calls of the given jobs' pairs, concatenated in job order."""
    pieces = [scored[job_id] for job_id in job_ids]
    labels = np.concatenate([np.empty(0)] + [labels for labels, _ in pieces])
    calls = np.concatenate([np.empty((n_fractions, 0))] + [calls for _, calls in pieces],
                           axis=1)
    return labels, calls


def consistency_analysis(records: list[ModelRecord], criterion: str = "wne",
                         fractions=(0.2, 0.4, 0.6, 0.8, 1.0)) -> list[dict]:
    """Greedy-call agreement with final superiority under the chosen
    criterion, per observation fraction.

    Shares its scorer with the greedy branch of ``cross_validate``, so the
    greedy ranker's reported accuracy equals this curve at the same fraction
    exactly.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    scored = _greedy_jobs(records, criterion, fractions)
    labels, calls = _gather(scored, scored, len(fractions))
    return [
        {
            "criterion": criterion,
            "fraction": float(fraction),
            "accuracy": accuracy(probabilities, labels),
            "pairs": len(labels),
        }
        for fraction, probabilities in zip(fractions, calls)
    ]


# -- cross-validation ------------------------------------------------------------


def _assert_no_leakage(split: DatasetSplit) -> None:
    train, val, test = (set(split.train_jobs), set(split.validation_jobs),
                        set(split.test_jobs))
    if train & val or train & test or val & test:
        raise RuntimeError(f"job leakage across partitions in fold {split.fold}")


def cross_validate(records: list[ModelRecord], config: TrainConfig) -> EvalReport:
    """Grouped K-fold evaluation of one ranker over all observation fractions.

    The greedy baseline is scored once for every job from stacked curve
    arrays, and each fold reads its test jobs' calls, so its splits carry no
    pairs.  A trained ranker's fold/fraction tasks are independent;
    NECURVE_THREADS > 1 runs them on a thread pool.  Results are assembled in
    (fraction, fold) order, so the report does not depend on scheduling.
    """
    start_time = time.perf_counter()
    greedy = config.ranker == "greedy"
    splits = grouped_kfold(records, k=config.folds, seed=config.seed,
                           build_pairs=not greedy)
    for split in splits:
        _assert_no_leakage(split)
    if greedy:
        scored = _greedy_jobs(records, "wne", config.fractions)
        results = []
        for split in splits:
            labels, calls = _gather(scored, split.test_jobs, len(config.fractions))
            for fraction, probabilities in zip(config.fractions, calls):
                piece = _slice(probabilities, labels, fraction)
                results.append(FoldMetrics(split.fold, fraction, piece.auc,
                                           piece.accuracy, piece.pairs))
    else:
        tasks = [(split, fraction) for fraction in config.fractions for split in splits]

        def run(task) -> FoldMetrics:
            split, fraction = task
            checkpoint = train(split, config, fraction)
            piece = evaluate(checkpoint, split.test, fraction)
            return FoldMetrics(split.fold, fraction, piece.auc, piece.accuracy,
                               piece.pairs, checkpoint.best_epoch,
                               checkpoint.validation_auc)

        workers = max(1, int(os.environ.get("NECURVE_THREADS", "1")))
        if workers == 1:
            results = [run(task) for task in tasks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, tasks))
    results.sort(key=lambda m: (m.fraction, m.fold))
    return EvalReport(
        ranker=config.ranker,
        fractions=list(config.fractions),
        folds=results,
        config=config_to_dict(config),
        runtime_seconds=time.perf_counter() - start_time,
    )


# -- report emission --------------------------------------------------------------


def write_report_json(reports: list[EvalReport], path) -> None:
    with open(path, "w") as handle:
        json.dump({"reports": [r.to_dict() for r in reports]}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def read_report_json(path) -> list[EvalReport]:
    with open(path) as handle:
        payload = json.load(handle)
    return [EvalReport.from_dict(entry) for entry in payload["reports"]]


def write_metrics_csv(reports: list[EvalReport], path) -> None:
    """Per-fold rows plus mean/sd aggregate rows per (ranker, fraction)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ranker", "fraction", "fold", "auc", "accuracy", "pairs"])
        for report in reports:
            for m in report.folds:
                writer.writerow([report.ranker, f"{m.fraction:g}", m.fold,
                                 repr(m.auc), repr(m.accuracy), m.pairs])
            for fraction in report.fractions:
                writer.writerow([report.ranker, f"{fraction:g}", "mean",
                                 repr(report.mean_auc(fraction)),
                                 repr(report.mean_accuracy(fraction)), ""])
                writer.writerow([report.ranker, f"{fraction:g}", "sd",
                                 repr(report.sd_auc(fraction)),
                                 repr(report.sd_accuracy(fraction)), ""])


def write_plot_data(reports: list[EvalReport], outdir) -> list[str]:
    """One JSON per ranker with metric-vs-fraction curves, plus consistency
    curves when present.  Returns the created file paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    created = []
    for report in reports:
        curve = {
            "ranker": report.ranker,
            "fractions": list(report.fractions),
            "mean_auc": [report.mean_auc(f) for f in report.fractions],
            "sd_auc": [report.sd_auc(f) for f in report.fractions],
            "mean_accuracy": [report.mean_accuracy(f) for f in report.fractions],
            "sd_accuracy": [report.sd_accuracy(f) for f in report.fractions],
        }
        path = outdir / f"{report.ranker.replace('+', '_')}_curves.json"
        with open(path, "w") as handle:
            json.dump(curve, handle, indent=2, sort_keys=True)
            handle.write("\n")
        created.append(str(path))
        if report.consistency:
            path = outdir / f"{report.ranker.replace('+', '_')}_consistency.json"
            with open(path, "w") as handle:
                json.dump(report.consistency, handle, indent=2, sort_keys=True)
                handle.write("\n")
            created.append(str(path))
    return created
