"""Output checks: each compares a report with a computation made apart from
the program, from the records alone, or with a property the method
guarantees.  A failed check raises CheckFailed naming the fold and fraction.

The job partition is recomputed here from its documented rule (jobs shuffled
once by the seed, each fold rotates the order and cuts it 70:10:20), and the
pair counts, greedy calls and labels are recomputed with numpy from the
records' curves and finals, without the program's pairing code.
"""

from __future__ import annotations

import json
import math

import numpy as np

from necurve import EvalReport, ModelRecord, TrainConfig, observed_count

AUC_TOLERANCE = 1e-12  # the AUC oracle tolerance of the acceptance suite
WNE_TOLERANCE = 0.03  # generator calibration: greedy@1.0 vs 1 - target


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _by_job(records: list[ModelRecord]) -> dict[int, list[ModelRecord]]:
    groups: dict[int, list[ModelRecord]] = {}
    for record in sorted(records, key=lambda r: (r.job_id, r.model_id)):
        groups.setdefault(record.job_id, []).append(record)
    return groups


def job_partition(records: list[ModelRecord], folds: int,
                  seed: int) -> list[tuple[set, set, set]]:
    """(train, validation, test) job sets per fold."""
    jobs = sorted({record.job_id for record in records})
    order = [jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]
    n = len(order)
    n_val, n_test = max(1, round(0.1 * n)), max(1, round(0.2 * n))
    n_train = n - n_val - n_test
    out = []
    for fold in range(folds):
        start = round(fold * n / folds)
        rotated = order[start:] + order[:start]
        out.append((set(rotated[:n_train]), set(rotated[n_train:n_train + n_val]),
                    set(rotated[n_train + n_val:])))
    return out


def labelled_pairs(group: list[ModelRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (left, right) of one job's unordered pairs, left the
    lower model id, without the pairs whose final windowed NE is equal."""
    finals = np.array([record.final_wne for record in group], dtype=np.float64)
    left, right = np.triu_indices(len(group), k=1)
    keep = finals[left] != finals[right]
    return left[keep], right[keep]


def count_test_pairs(groups: dict, test_jobs: set) -> int:
    """Sum over test jobs of C(m, 2) minus the pairs with equal finals,
    counted from multiplicities of the finals."""
    total = 0
    for job in test_jobs:
        finals = np.array([record.final_wne for record in groups[job]])
        _, counts = np.unique(finals, return_counts=True)
        m = len(finals)
        total += m * (m - 1) // 2 - int(np.sum(counts * (counts - 1) // 2))
    return total


def concordance_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) AUC: wins plus half the ties over all positive/negative pairs."""
    positives, negatives = scores[labels == 1.0], scores[labels == 0.0]
    wins = ties = 0
    for start in range(0, len(positives), 1024):
        block = positives[start:start + 1024, None]
        wins += int(np.count_nonzero(block > negatives[None, :]))
        ties += int(np.count_nonzero(block == negatives[None, :]))
    return (wins + 0.5 * ties) / (len(positives) * len(negatives))


def greedy_calls(groups: dict, jobs: set, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(score, label) of the last-observed-value call for every labelled pair
    of the given jobs: score 1 if the left curve is strictly lower, 0 if
    higher, 0.5 on a tie; label 1 if the left final windowed NE is lower."""
    scores, labels = [], []
    for job in sorted(jobs):
        group = groups[job]
        left, right = labelled_pairs(group)
        n_obs = observed_count(len(group[0].curve), fraction)
        last = np.array([record.curve.values[n_obs - 1] for record in group])
        finals = np.array([record.final_wne for record in group], dtype=np.float64)
        scores.append(np.where(last[left] < last[right], 1.0,
                               np.where(last[left] > last[right], 0.0, 0.5)))
        labels.append((finals[left] < finals[right]).astype(np.float64))
    return np.concatenate(scores), np.concatenate(labels)


def check_splits(splits, records: list[ModelRecord], config: TrainConfig) -> None:
    """The program's job sets are disjoint, cover every job, and agree with
    the recomputed partition."""
    all_jobs = {record.job_id for record in records}
    expected = job_partition(records, config.folds, config.seed)
    _require(len(splits) == config.folds, f"{len(splits)} splits for {config.folds} folds")
    for split, sets in zip(splits, expected):
        train, val, test = (set(split.train_jobs), set(split.validation_jobs),
                            set(split.test_jobs))
        _require(not (train & val or train & test or val & test),
                 f"fold {split.fold}: job sets overlap")
        _require(train | val | test == all_jobs, f"fold {split.fold}: jobs missing")
        _require((train, val, test) == sets,
                 f"fold {split.fold}: partition disagrees with the recomputation")


def check_report(report: EvalReport, records: list[ModelRecord],
                 config: TrainConfig) -> None:
    """Checks every workload's report must pass."""
    groups = _by_job(records)
    partition = job_partition(records, config.folds, config.seed)
    keys = [(m.fold, m.fraction) for m in report.folds]
    wanted = [(fold, f) for f in config.fractions for fold in range(config.folds)]
    _require(sorted(keys) == sorted(wanted) and len(set(keys)) == len(keys),
             f"report holds {sorted(keys)}, expected {sorted(wanted)}")
    for m in report.folds:
        where = f"fold {m.fold} fraction {m.fraction:g}"
        for name in ("auc", "accuracy"):
            value = getattr(m, name)
            _require(math.isfinite(value) and 0.0 <= value <= 1.0,
                     f"{where}: {name} {value} outside [0, 1]")
        expected = count_test_pairs(groups, partition[m.fold][2])
        _require(m.pairs == expected, f"{where}: {m.pairs} test pairs, expected {expected}")


def check_trained(report: EvalReport, config: TrainConfig) -> None:
    for m in report.folds:
        _require(m.best_epoch is not None and 1 <= m.best_epoch <= config.epochs,
                 f"fold {m.fold} fraction {m.fraction:g}: best_epoch {m.best_epoch}")
    for fraction in config.fractions:
        auc = report.mean_auc(fraction)
        _require(auc > 0.5, f"fraction {fraction:g}: mean test AUC {auc} <= 0.5")


def check_greedy(report: EvalReport, records: list[ModelRecord], config: TrainConfig,
                 inconsistency_target: float) -> None:
    groups = _by_job(records)
    partition = job_partition(records, config.folds, config.seed)
    for m in report.folds:
        where = f"fold {m.fold} fraction {m.fraction:g}"
        scores, labels = greedy_calls(groups, partition[m.fold][2], m.fraction)
        correct = np.count_nonzero(((scores == 1.0) & (labels == 1.0))
                                   | ((scores == 0.0) & (labels == 0.0)))
        expected = int(correct) / len(scores)
        _require(m.accuracy == expected, f"{where}: accuracy {m.accuracy!r} != {expected!r}")
        oracle = concordance_auc(scores, labels)
        _require(abs(m.auc - oracle) <= AUC_TOLERANCE,
                 f"{where}: AUC {m.auc!r} vs concordance {oracle!r}")
    at_full = {point["criterion"]: point["accuracy"]
               for point in report.consistency if point["fraction"] == 1.0}
    _require(set(at_full) == {"wne", "lne"}, "consistency curves lack fraction 1.0")
    target = 1.0 - inconsistency_target
    _require(abs(at_full["wne"] - target) <= WNE_TOLERANCE,
             f"wne accuracy at 1.0 is {at_full['wne']}, expected {target} +- {WNE_TOLERANCE}")
    # at full observation the greedy call reads the final LNE itself
    _require(at_full["lne"] == 1.0, f"lne accuracy at 1.0 is {at_full['lne']}, expected 1")


def check_same(report: EvalReport, first: EvalReport) -> None:
    """Bit-for-bit equality of two reports (floats compared through repr)."""
    _require(json.dumps(report.to_dict(), sort_keys=True)
             == json.dumps(first.to_dict(), sort_keys=True),
             "report differs from the first round's under the same seed")
