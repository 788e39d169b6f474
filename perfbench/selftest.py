"""Shows that every output check passes on a real report and fails on a
corrupted one.

    python3 perfbench/selftest.py

Runs on a 10-job corpus in a few seconds; exits 0 when the clean reports
pass and each corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from necurve import (  # noqa: E402
    EvalReport,
    GeneratorConfig,
    TrainConfig,
    generate_dataset,
    grouped_kfold,
    observed_count,
)
from workloads import DESK_TRAINING, WORKLOADS, run_round  # noqa: E402

GENERATOR = GeneratorConfig(jobs=10, models_per_job=10, seed=5)
TRAINED = TrainConfig(**{**DESK_TRAINING, "max_pairs_per_epoch": 128, "folds": 3},
                      ranker="r2", seed=5, fractions=(0.6,))
GREEDY = TrainConfig(ranker="greedy", seed=5, folds=3, fractions=(0.2, 0.6))


def clone(report: EvalReport) -> EvalReport:
    return EvalReport.from_dict(copy.deepcopy(report.to_dict()))


def with_fold(report: EvalReport, index: int, **changes) -> EvalReport:
    out = clone(report)
    out.folds[index] = dataclasses.replace(out.folds[index], **changes)
    return out


def flipped_label(records, report: EvalReport):
    """Records in which one test pair's finals are swapped, chosen so the
    greedy call on that pair stops or starts being correct."""
    partition = checks.job_partition(records, GREEDY.folds, GREEDY.seed)
    fold = report.folds[0]
    n_obs = observed_count(len(records[0].curve), fold.fraction)
    job = min(partition[fold.fold][2])
    group = sorted((r for r in records if r.job_id == job), key=lambda r: r.final_wne)
    for a, b in zip(group, group[1:]):  # adjacent finals: only this pair's label flips
        if a.curve.values[n_obs - 1] != b.curve.values[n_obs - 1]:
            out = copy.deepcopy(records)
            index = {r.model_id: i for i, r in enumerate(out)}
            left, right = out[index[a.model_id]], out[index[b.model_id]]
            left.final_wne, right.final_wne = right.final_wne, left.final_wne
            return out
    raise RuntimeError("no pair with distinct greedy call to flip")


def main() -> int:
    records = generate_dataset(GENERATOR)
    target = GENERATOR.inconsistency_target
    greedy = run_round(WORKLOADS["full-greedy"], records, GREEDY)
    trained = run_round(WORKLOADS["desk-r2"], records, TRAINED)
    splits = grouped_kfold(records, k=GREEDY.folds, seed=GREEDY.seed)

    def greedy_checks(report, recs=records, split_list=splits):
        checks.check_splits(split_list, recs, GREEDY)
        checks.check_report(report, recs, GREEDY)
        checks.check_greedy(report, recs, GREEDY, target)

    def trained_checks(report):
        checks.check_report(report, records, TRAINED)
        checks.check_trained(report, TRAINED)

    greedy_checks(greedy)
    trained_checks(trained)
    checks.check_same(clone(trained), trained)

    overlapping = copy.deepcopy(splits)
    overlapping[1].test_jobs = overlapping[1].test_jobs + overlapping[1].train_jobs[:1]
    shifted = [dict(p) for p in greedy.consistency]
    for point in shifted:
        if point["fraction"] == 1.0 and point["criterion"] == "wne":
            point["accuracy"] -= 0.05
    lne_short = [dict(p) for p in greedy.consistency]
    for point in lne_short:
        if point["fraction"] == 1.0 and point["criterion"] == "lne":
            point["accuracy"] = np.nextafter(1.0, 0.0)
    first = greedy.folds[0]
    corruptions = {
        "perturbed greedy accuracy": lambda: greedy_checks(
            with_fold(greedy, 0, accuracy=np.nextafter(first.accuracy, 1.0))),
        "perturbed greedy AUC": lambda: greedy_checks(
            with_fold(greedy, 0, auc=first.auc + 1e-9)),
        "flipped label": lambda: greedy_checks(greedy, flipped_label(records, greedy)),
        "test pair count off by one": lambda: greedy_checks(
            with_fold(greedy, 2, pairs=greedy.folds[2].pairs + 1)),
        "missing fold entry": lambda: greedy_checks(
            EvalReport(greedy.ranker, greedy.fractions, greedy.folds[1:],
                       greedy.consistency, greedy.config)),
        "AUC outside [0, 1]": lambda: trained_checks(with_fold(trained, 0, auc=1.5)),
        "overlapping job sets": lambda: greedy_checks(greedy, split_list=overlapping),
        "wne accuracy at 1.0 off target": lambda: greedy_checks(
            EvalReport(greedy.ranker, greedy.fractions, greedy.folds, shifted, greedy.config)),
        "lne accuracy at 1.0 below 1": lambda: greedy_checks(
            EvalReport(greedy.ranker, greedy.fractions, greedy.folds, lne_short,
                       greedy.config)),
        "best_epoch 0": lambda: trained_checks(with_fold(trained, 1, best_epoch=0)),
        "best_epoch past the last epoch": lambda: trained_checks(
            with_fold(trained, 1, best_epoch=TRAINED.epochs + 1)),
        "mean AUC at chance": lambda: trained_checks(EvalReport(
            trained.ranker, trained.fractions,
            [dataclasses.replace(m, auc=0.5) for m in trained.folds], [], trained.config)),
        "report differs between rounds": lambda: checks.check_same(
            with_fold(trained, 0, validation_auc=trained.folds[0].validation_auc + 1e-15),
            trained),
    }
    missed = []
    for name, corrupt in corruptions.items():
        try:
            corrupt()
        except checks.CheckFailed as err:
            print(f"caught {name}: {err}")
        else:
            missed.append(name)
    if missed:
        print(f"selftest FAILED: not caught: {missed}", file=sys.stderr)
        return 1
    print(f"selftest passed: clean reports pass, {len(corruptions)} corruptions caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
