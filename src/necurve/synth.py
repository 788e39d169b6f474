"""Synthetic loss-stream generator and dataset pipeline.

Stands in for a proprietary corpus of streaming-training runs.  Each model's
expected normalized loss over examples ``n`` follows

    a + b * x^(-c) + s * sin(omega * n + phi) + kick * ramp(n)

where ``x`` rescales ``n`` to checkpoint units and ``ramp`` rises linearly
over the last 30% of training.  The ramp lets a model that leads in lifetime
NE fall behind in recent-window NE near the end, and a global ramp scale is
calibrated so the fraction of such disagreeing pairs hits a configured
target.  Per-example losses are the normalized values times the background
log loss of the CTR path, so with a constant CTR the window/lifetime
transformation identity holds exactly on every generated stream.

Dataset plumbing: metadata causally drives curve shape (hyperparameter slot 0
scales the decay rate, slot 3 scales the late ramp, architecture depth and
domain scale the initial gap, and a per-job offset shifts the plateau),
curves with fewer than 10 raw checkpoints are dropped, survivors are
resampled to a fixed grid, and grouped splits partition jobs so no job leaks
across train/validation/test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from necurve.curves import (
    LearningCurve,
    LossStream,
    WindowSpec,
    log_loss,
    resample_curve,
    wne_direct,
)


class GenerationError(ValueError):
    """Curve parameters cannot produce positive expected losses."""


class LabelingError(ValueError):
    """A record lacks the final values needed to label its pairs."""


class SplitError(ValueError):
    """Too few jobs to build the requested grouped folds."""


ARCH_WIDTHS = (16, 32, 64, 128, 256)
RAMP_START_FRACTION = 0.7
CTR_WALK_LOW = 0.01
CTR_WALK_HIGH = 0.5


@dataclass(frozen=True)
class CurveParams:
    """Per-model parameters of the expected normalized-loss shape."""

    floor: float  # asymptote a
    decay: float  # initial excess b
    decay_rate: float  # exponent c
    season: float  # seasonality amplitude s
    season_omega: float
    season_phase: float
    kick: float  # late-ramp height
    ctr0: float  # CTR level (start of the walk when drifting)
    n_examples: int
    checkpoint_scale: int  # examples per checkpoint; rescales the decay axis

    def __post_init__(self) -> None:
        if self.floor <= 0:
            raise GenerationError(f"loss floor must be positive, got {self.floor}")
        if self.decay < 0 or self.season < 0 or self.kick < 0:
            raise GenerationError("decay, season and kick amplitudes must be nonnegative")
        if self.decay_rate <= 0:
            raise GenerationError(f"decay rate must be positive, got {self.decay_rate}")
        if not 0.0 < self.ctr0 < 1.0:
            raise GenerationError(f"ctr0 must lie strictly inside (0, 1), got {self.ctr0}")
        if self.n_examples < 1 or self.checkpoint_scale < 1:
            raise GenerationError("n_examples and checkpoint_scale must be positive")


@dataclass
class GeneratorConfig:
    jobs: int = 20
    models_per_job: int = 20
    curve_length_mean: float = 163.0  # raw checkpoints per curve
    curve_length_sd: float = 193.0
    examples_per_checkpoint: int = 50
    resample_length: int = 100
    min_raw_points: int = 10
    day_window: int | None = None  # examples per "day"; None = 20% of mean span
    inconsistency_target: float = 0.2
    ctr_drift: float = 0.0
    noise: float = 0.02
    hyperparameter_count: int = 13
    domain_pool: int | None = None
    job_offset_scale: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("jobs", "models_per_job", "examples_per_checkpoint",
                     "hyperparameter_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.resample_length < 2 or self.min_raw_points < 2:
            raise ValueError("resample_length and min_raw_points must be at least 2")
        if self.curve_length_mean <= 0 or self.curve_length_sd < 0:
            raise ValueError("curve length distribution must have positive mean, sd >= 0")
        if not 0.0 <= self.inconsistency_target <= 0.5:
            raise ValueError(
                f"inconsistency_target must lie in [0, 0.5], got {self.inconsistency_target}"
            )
        if self.ctr_drift < 0 or self.noise < 0:
            raise ValueError("ctr_drift and noise must be nonnegative")
        if self.day_window is not None and self.day_window < 1:
            raise ValueError("day_window must be positive")
        if self.domain_pool is not None and self.domain_pool < 1:
            raise ValueError("domain_pool must be positive")
        if self.job_offset_scale < 0:
            raise ValueError("job_offset_scale must be nonnegative")

    @property
    def resolved_day_window(self) -> int:
        if self.day_window is not None:
            return self.day_window
        return max(1, round(0.2 * self.curve_length_mean * self.examples_per_checkpoint))

    @property
    def resolved_domain_pool(self) -> int:
        if self.domain_pool is not None:
            return self.domain_pool
        return max(4, self.jobs // 5)


def full_scale(seed: int = 0) -> GeneratorConfig:
    """Large benchmark configuration: 79 jobs with 60 models each."""
    return GeneratorConfig(jobs=79, models_per_job=60, seed=seed)


@dataclass
class ModelRecord:
    model_id: int
    job_id: int
    curve: LearningCurve  # resampled LNE curve
    hyperparameters: np.ndarray
    architecture: tuple[tuple[int, int], ...]  # per-layer (in, out) dims
    domain_id: int
    final_wne: float | None  # 1-day-window NE at the end of training
    final_lne: float | None
    stream: LossStream | None = None  # raw per-example losses, if retained

    def __post_init__(self) -> None:
        self.hyperparameters = np.asarray(self.hyperparameters, dtype=np.float64)


@dataclass(frozen=True)
class CurvePair:
    left: ModelRecord
    right: ModelRecord
    label: float  # 1.0 iff left is superior (lower final windowed NE)

    def __post_init__(self) -> None:
        if self.left.job_id != self.right.job_id:
            raise ValueError("pairs must come from a single job")
        if self.label not in (0.0, 1.0):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass
class DatasetSplit:
    train: list
    validation: list
    test: list
    fold: int
    train_jobs: tuple = ()
    validation_jobs: tuple = ()
    test_jobs: tuple = ()


# -- stream generation ------------------------------------------------------


def _ctr_path(params: CurveParams, config: GeneratorConfig,
              rng: np.random.Generator) -> np.ndarray:
    n = params.n_examples
    if config.ctr_drift == 0.0:
        return np.full(1, params.ctr0)
    # slow random walk folded back into the admissible band
    start = min(max(params.ctr0, CTR_WALK_LOW), CTR_WALK_HIGH)
    walk = start + np.cumsum(rng.normal(0.0, config.ctr_drift, size=n))
    span = CTR_WALK_HIGH - CTR_WALK_LOW
    folded = np.mod(walk - CTR_WALK_LOW, 2.0 * span)
    return CTR_WALK_LOW + np.where(folded > span, 2.0 * span - folded, folded)


def _ramp(n_examples: int) -> np.ndarray:
    """Late-phase slope: 0 until ~70% of training, then linear up to 1."""
    n = np.arange(1, n_examples + 1, dtype=np.float64)
    start = math.floor(RAMP_START_FRACTION * n_examples)
    width = max(n_examples - start, 1)
    return np.clip((n - start) / width, 0.0, 1.0)


def _stream_parts(
    params: CurveParams, config: GeneratorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (base normalized loss with noise, ramp, normalizer, ctr path).

    Per-example losses are ``(base + kick * ramp) * normalizer``; keeping the
    pieces separate makes curve summaries linear in the ramp height.  Without
    CTR drift, normalizer and ctr are (1,) arrays that broadcast.
    """
    if params.floor - params.season - config.noise <= 0.0:
        raise GenerationError(
            "expected losses must stay positive: floor must exceed "
            "season amplitude plus noise amplitude"
        )
    n = np.arange(1, params.n_examples + 1, dtype=np.float64)
    x = 1.0 + n / params.checkpoint_scale
    base = (
        params.floor
        + params.decay * x ** (-params.decay_rate)
        + params.season * np.sin(params.season_omega * n + params.season_phase)
    )
    base = base + rng.uniform(-config.noise, config.noise, size=params.n_examples)
    ctr = _ctr_path(params, config, rng)
    normalizer = -(ctr * np.log(ctr) + (1.0 - ctr) * np.log1p(-ctr))
    return base, _ramp(params.n_examples), normalizer, ctr


def generate_stream(params: CurveParams, config: GeneratorConfig, seed) -> LossStream:
    """Per-example loss stream for one model.

    With ``ctr_drift = 0`` the CTR path is constant, so windowed NE recovered
    from lifetime-NE points matches the direct computation exactly.
    """
    rng = np.random.default_rng(seed)
    base, ramp, normalizer, ctr = _stream_parts(params, config, rng)
    losses = (base + params.kick * ramp) * normalizer
    prefix = np.cumsum(np.broadcast_to(ctr, len(base))) / np.arange(1, len(base) + 1)
    return LossStream(losses=losses, ctr_prefix=prefix)


# -- dataset generation -----------------------------------------------------


@dataclass
class _Draft:
    """One surviving model before the ramp scale is known."""

    model_id: int
    job_id: int
    domain_id: int
    params: CurveParams  # with kick = 0
    hyperparameters: np.ndarray
    architecture: tuple[tuple[int, int], ...]
    kick_weight: float  # ramp height per unit of global scale
    counts: np.ndarray  # checkpoint example counts
    base_cp: np.ndarray  # cumulative base loss at each checkpoint
    ramp_cp: np.ndarray  # cumulative ramp response at each checkpoint
    norm_cp: np.ndarray  # prefix-CTR normalizer at each checkpoint
    base_win: float  # same reductions over the final day window
    ramp_win: float
    norm_win: float
    window: int


def _summarize(draft_params: CurveParams, config: GeneratorConfig,
               seed) -> tuple[np.ndarray, ...]:
    base, ramp, normalizer, ctr = _stream_parts(
        draft_params, config, np.random.default_rng(seed)
    )
    n = draft_params.n_examples
    epc = draft_params.checkpoint_scale
    counts = np.arange(epc, n + 1, epc, dtype=np.int64)
    cs_base = np.cumsum(base * normalizer)
    # the ramp is exactly zero before ``start``, so its prefix sums are too
    start = int(np.searchsorted(ramp, 0.0, side="right"))
    cs_ramp = np.zeros(n)
    cs_ramp[start:] = np.cumsum(ramp[start:] * np.broadcast_to(normalizer, n)[start:])
    cs_ctr = np.cumsum(np.broadcast_to(ctr, n))
    idx = counts - 1
    prefix_ctr = cs_ctr[idx] / counts
    norm_cp = -(prefix_ctr * np.log(prefix_ctr) + (1 - prefix_ctr) * np.log1p(-prefix_ctr))
    window = min(config.resolved_day_window, n)
    left = n - window
    base_win = cs_base[-1] - (cs_base[left - 1] if left > 0 else 0.0)
    ramp_win = cs_ramp[-1] - (cs_ramp[left - 1] if left > 0 else 0.0)
    ctr_win = (cs_ctr[-1] - (cs_ctr[left - 1] if left > 0 else 0.0)) / window
    norm_win = log_loss(ctr_win, ctr_win)
    return counts, cs_base[idx], cs_ramp[idx], norm_cp, base_win, ramp_win, norm_win, window


def _calibrate_kick(drafts: list[_Draft], target: float) -> float:
    """Global ramp scale whose induced lifetime-vs-window disagreement rate
    over within-job pairs lands nearest the target.

    Summaries are linear in the scale, so each candidate is evaluated in
    closed form; the rate is a step function of the scale, so bisection
    converges to within one pair's worth of resolution.
    """
    by_job: dict[int, list[int]] = {}
    for idx, draft in enumerate(drafts):
        by_job.setdefault(draft.job_id, []).append(idx)
    ii, jj = [], []
    for indices in by_job.values():
        for a, b in combinations(indices, 2):
            ii.append(a)
            jj.append(b)
    if not ii or target == 0.0:
        return 0.0
    n_full = np.array([d.counts[-1] for d in drafts], dtype=np.float64)
    lne0 = np.array([d.base_cp[-1] for d in drafts]) / (
        n_full * np.array([d.norm_cp[-1] for d in drafts])
    )
    lne_slope = np.array([d.kick_weight * d.ramp_cp[-1] for d in drafts]) / (
        n_full * np.array([d.norm_cp[-1] for d in drafts])
    )
    win = np.array([d.window for d in drafts], dtype=np.float64)
    wne0 = np.array([d.base_win for d in drafts]) / (
        win * np.array([d.norm_win for d in drafts])
    )
    wne_slope = np.array([d.kick_weight * d.ramp_win for d in drafts]) / (
        win * np.array([d.norm_win for d in drafts])
    )
    ii = np.array(ii)
    jj = np.array(jj)
    d_lne0, d_lslope = lne0[ii] - lne0[jj], lne_slope[ii] - lne_slope[jj]
    d_wne0, d_wslope = wne0[ii] - wne0[jj], wne_slope[ii] - wne_slope[jj]

    def rate(scale: float) -> float:
        lne_gap = d_lne0 + scale * d_lslope
        wne_gap = d_wne0 + scale * d_wslope
        return float(np.mean(lne_gap * wne_gap < 0.0))

    best_scale, best_err = 0.0, abs(rate(0.0) - target)
    if rate(0.0) >= target:
        return 0.0
    low, high = 0.0, 0.05
    bracketed = False
    for _ in range(40):
        r = rate(high)
        if abs(r - target) < best_err:
            best_scale, best_err = high, abs(r - target)
        if r >= target:
            bracketed = True
            break
        low, high = high, high * 2.0
    if not bracketed:
        return best_scale
    for _ in range(60):
        mid = 0.5 * (low + high)
        r = rate(mid)
        if abs(r - target) < best_err:
            best_scale, best_err = mid, abs(r - target)
        if r >= target:
            high = mid
        else:
            low = mid
    return best_scale


def generate_dataset(config: GeneratorConfig) -> list[ModelRecord]:
    """Full synthetic corpus: draw per-job and per-model structure, drop
    curves shorter than the raw-point floor, calibrate the late-ramp scale to
    the inconsistency target, and materialize resampled records."""
    master = np.random.default_rng(config.seed)
    pool = config.resolved_domain_pool
    epc = config.examples_per_checkpoint
    drafts: list[_Draft] = []
    model_id = 0
    for job_id in range(config.jobs):
        domain_id = int(master.integers(pool))
        offset = float(master.normal(0.0, config.job_offset_scale)) if (
            config.job_offset_scale > 0
        ) else 0.0
        domain_factor = 1.0 if pool == 1 else 0.85 + 0.3 * domain_id / (pool - 1)
        for _ in range(config.models_per_job):
            # draws happen unconditionally so dropping a short curve does not
            # shift the random stream of later models
            raw_len = int(round(master.normal(config.curve_length_mean,
                                              config.curve_length_sd)))
            hp = master.uniform(0.0, 1.0, size=config.hyperparameter_count)
            depth = int(master.integers(2, 5))
            widths = master.choice(ARCH_WIDTHS, size=depth + 1)
            u = master.uniform(0.0, 1.0, size=6)
            this_id = model_id
            model_id += 1
            if raw_len < config.min_raw_points:
                continue
            floor = 0.55 + 0.3 * u[0] + offset
            # season amplitude tops out at 0.023; keep expected losses positive
            # even under an extreme job offset
            floor = max(floor, 0.023 + config.noise + 0.05)
            params = CurveParams(
                floor=floor,
                decay=(0.25 + 0.5 * u[1]) * (0.7 + 0.1 * depth) * domain_factor,
                decay_rate=0.35 + 1.4 * hp[0],
                season=0.008 + 0.015 * u[2],
                season_omega=2.0 * math.pi / (epc * (3.0 + 4.0 * u[3])),
                season_phase=2.0 * math.pi * u[4],
                kick=0.0,
                ctr0=0.08 + 0.3 * u[5],
                n_examples=raw_len * epc,
                checkpoint_scale=epc,
            )
            (counts, base_cp, ramp_cp, norm_cp,
             base_win, ramp_win, norm_win, window) = _summarize(
                params, config, [config.seed, this_id]
            )
            architecture = tuple(
                (int(widths[k]), int(widths[k + 1])) for k in range(depth)
            )
            drafts.append(_Draft(
                model_id=this_id, job_id=job_id, domain_id=domain_id,
                params=params, hyperparameters=hp, architecture=architecture,
                kick_weight=float(hp[3]), counts=counts, base_cp=base_cp,
                ramp_cp=ramp_cp, norm_cp=norm_cp, base_win=base_win,
                ramp_win=ramp_win, norm_win=norm_win, window=window,
            ))
    scale = _calibrate_kick(drafts, config.inconsistency_target)
    records = []
    for draft in drafts:
        kick = scale * draft.kick_weight
        lne = (draft.base_cp + kick * draft.ramp_cp) / (draft.counts * draft.norm_cp)
        curve = resample_curve(
            LearningCurve(values=lne, example_counts=draft.counts),
            config.resample_length,
        )
        final_wne = (draft.base_win + kick * draft.ramp_win) / (
            draft.window * draft.norm_win
        )
        records.append(ModelRecord(
            model_id=draft.model_id, job_id=draft.job_id, curve=curve,
            hyperparameters=draft.hyperparameters, architecture=draft.architecture,
            domain_id=draft.domain_id, final_wne=float(final_wne),
            final_lne=float(lne[-1]),
        ))
    return records


def measure_inconsistency(records: list[ModelRecord]) -> float:
    """Fraction of within-job pairs whose lifetime-NE and windowed-NE
    superiority orderings disagree."""
    by_job: dict[int, list[ModelRecord]] = {}
    for record in records:
        by_job.setdefault(record.job_id, []).append(record)
    disagree = total = 0
    for group in by_job.values():
        for a, b in combinations(group, 2):
            total += 1
            if (a.final_lne - b.final_lne) * (a.final_wne - b.final_wne) < 0:
                disagree += 1
    if total == 0:
        raise ValueError("no within-job pairs to measure")
    return disagree / total


# -- pairing, labeling, splits ----------------------------------------------


def _final_window_value(record: ModelRecord, day_window: int | None) -> float:
    if record.final_wne is not None and math.isfinite(record.final_wne):
        return record.final_wne
    if record.stream is not None and day_window is not None:
        n = record.stream.n
        return wne_direct(record.stream, WindowSpec(t=n, d=min(day_window, n)))
    raise LabelingError(
        f"model {record.model_id} carries neither a finite final windowed NE "
        "nor a loss stream to compute one"
    )


def pair_and_label(records: list[ModelRecord], day_window: int | None = None,
                   ordered: bool = True) -> list[CurvePair]:
    """All within-job pairs, labeled by final 1-day-window NE (lower wins).

    ``ordered`` emits both orderings of every pair with flipped labels (the
    training augmentation); evaluation sets use one ordering per pair.  Pairs
    with exactly equal finals have no ground-truth ordering and are skipped.
    """
    by_job: dict[int, list[ModelRecord]] = {}
    for record in sorted(records, key=lambda r: (r.job_id, r.model_id)):
        by_job.setdefault(record.job_id, []).append(record)
    pairs = []
    for group in by_job.values():
        for a, b in combinations(group, 2):
            wa = _final_window_value(a, day_window)
            wb = _final_window_value(b, day_window)
            if wa == wb:
                continue
            label = 1.0 if wa < wb else 0.0
            pairs.append(CurvePair(left=a, right=b, label=label))
            if ordered:
                pairs.append(CurvePair(left=b, right=a, label=1.0 - label))
    return pairs


def partition_jobs(records: list[ModelRecord], k: int = 5,
                   ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                   seed: int = 0) -> list[tuple[tuple, tuple, tuple]]:
    """(train, validation, test) job ids of K rotated grouped folds: jobs are
    shuffled once, and each fold rotates the order and partitions the jobs
    ~70:10:20.  Each tuple of job ids is sorted."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positive fractions summing to 1, got {ratios}")
    jobs = sorted({record.job_id for record in records})
    if len(jobs) < k:
        raise SplitError(f"need at least {k} jobs for {k} folds, got {len(jobs)}")
    order = [jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]
    n = len(order)
    n_val = max(1, round(ratios[1] * n))
    n_test = max(1, round(ratios[2] * n))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise SplitError(f"{n} jobs cannot honor ratios {ratios}")
    folds = []
    for fold in range(k):
        start = round(fold * n / k)
        rotated = order[start:] + order[:start]
        folds.append((
            tuple(sorted(rotated[:n_train])),
            tuple(sorted(rotated[n_train:n_train + n_val])),
            tuple(sorted(rotated[n_train + n_val:])),
        ))
    return folds


def grouped_kfold(records: list[ModelRecord], k: int = 5,
                  ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                  seed: int = 0, day_window: int | None = None,
                  build_pairs: bool = True) -> list[DatasetSplit]:
    """K rotated grouped splits over the ``partition_jobs`` folds; pairs are
    built after partitioning, so no job contributes to more than one
    partition of a fold.  With ``build_pairs=False`` the splits carry the job
    partition only, with empty pair lists, for callers that score straight
    from the records."""
    by_job: dict[int, list[ModelRecord]] = {}
    for record in records:
        by_job.setdefault(record.job_id, []).append(record)

    def job_pairs(job_ids: tuple, ordered_pairs: bool) -> list[CurvePair]:
        if not build_pairs:
            return []
        members = [r for j in job_ids for r in by_job[j]]
        return pair_and_label(members, day_window, ordered=ordered_pairs)

    return [
        DatasetSplit(
            train=job_pairs(train_jobs, True),
            validation=job_pairs(val_jobs, False),
            test=job_pairs(test_jobs, False),
            fold=fold,
            train_jobs=train_jobs,
            validation_jobs=val_jobs,
            test_jobs=test_jobs,
        )
        for fold, (train_jobs, val_jobs, test_jobs)
        in enumerate(partition_jobs(records, k, ratios, seed))
    ]


# -- persistence -------------------------------------------------------------


def record_to_dict(record: ModelRecord) -> dict:
    return {
        "model_id": int(record.model_id),
        "job_id": int(record.job_id),
        "domain_id": int(record.domain_id),
        "hyperparameters": [float(v) for v in record.hyperparameters],
        "architecture": [[int(a), int(b)] for a, b in record.architecture],
        "counts": [float(c) for c in record.curve.example_counts],
        "lne": [float(v) for v in record.curve.values],
        "normalized": True,
        "final_lne": None if record.final_lne is None else float(record.final_lne),
        "final_wne": None if record.final_wne is None else float(record.final_wne),
    }


def record_from_dict(data: dict) -> ModelRecord:
    return ModelRecord(
        model_id=int(data["model_id"]),
        job_id=int(data["job_id"]),
        curve=LearningCurve(
            values=np.array(data["lne"], dtype=np.float64),
            example_counts=np.array(data["counts"], dtype=np.float64),
        ),
        hyperparameters=np.array(data["hyperparameters"], dtype=np.float64),
        architecture=tuple((int(a), int(b)) for a, b in data["architecture"]),
        domain_id=int(data["domain_id"]),
        final_wne=data.get("final_wne"),
        final_lne=data.get("final_lne"),
    )


def write_records(records: list[ModelRecord], path) -> None:
    """One JSON object per line; key order and float repr are deterministic,
    so equal inputs produce byte-identical files."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record), sort_keys=True))
            handle.write("\n")


def read_records(path) -> list[ModelRecord]:
    """Records of a JSONL file; a line that does not decode into a record
    raises ValueError naming the path, the line and, if readable, the model."""
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    records.append(record_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as err:
                    raise ValueError(f"{path}, line {number}{_model_of(line)}: "
                                     f"{type(err).__name__}: {err}") from err
    return records


def _model_of(line: str) -> str:
    """', model <id>' when the line's JSON holds a model_id, else ''."""
    try:
        return f", model {json.loads(line)['model_id']}"
    except (ValueError, KeyError, TypeError):
        return ""


def write_split_manifest(splits: list[DatasetSplit], path) -> None:
    """Job ids per partition per fold, as JSON."""
    manifest = {
        "folds": [
            {
                "fold": split.fold,
                "train": [int(j) for j in split.train_jobs],
                "validation": [int(j) for j in split.validation_jobs],
                "test": [int(j) for j in split.test_jobs],
            }
            for split in splits
        ]
    }
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
