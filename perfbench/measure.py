"""One measuring process of the benchmark; started by run.py, not by hand.

Parts:

* ``e2e``: set-up, then whole rounds as long as the next one, at the mean
  pace so far, ends within ``--seconds`` (at least one), then the output
  checks.  Reports ``setup_s`` (process start to records ready),
  the median ``cv_s`` over rounds, and ``peak_rss_mb`` (taken before the
  checks, so it is the program's alone).  No tracing code is installed.
* ``spans``: one round with timers wrapped around the module functions it
  calls (train, evaluate, grouped_kfold, Adam steps, generate/read), the
  output checks, and direct calls of the greedy and consistency paths.
* ``layers``: forward and backward of each layer at the workload's shapes
  (see layer_suite.py).
* ``threads2``: the reference cross-validation with ``NECURVE_THREADS=2``.

Prints one JSON line: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def import_program() -> None:
    """Puts the checkout's own sources first and refuses any other copy."""
    sys.path.insert(0, str(SRC))
    import necurve

    if Path(necurve.__file__).resolve().parent != SRC / "necurve":
        raise ImportError(f"necurve imported from {necurve.__file__}, not from {SRC}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_checks(workload, reports, records, config, splits) -> bool:
    """Checks the first report in full and every later one against it."""
    import checks

    first = reports[0]
    try:
        checks.check_splits(splits, records, config)
        checks.check_report(first, records, config)
        if workload.trained:
            checks.check_trained(first, config)
        else:
            checks.check_greedy(first, records, config,
                                workload.generator().inconsistency_target)
        for report in reports[1:]:
            checks.check_same(report, first)
    except checks.CheckFailed as err:
        print(f"check failed on {workload.name}: {err}", file=sys.stderr)
        return False
    return True


def part_e2e(workload, seed: int, seconds: float, t0: float) -> dict:
    from necurve import grouped_kfold
    from workloads import load_records, run_round

    records = load_records(workload, seed, OUT_DIR)
    setup_s = time.monotonic() - t0
    config = workload.train_config(seed)
    reports, cv_times, attempted = [], [], 0
    start = time.monotonic()
    elapsed = 0.0
    # a round starts only if, at the mean pace so far, it ends within the
    # run, so a run lasts at most about --seconds after set-up
    while attempted == 0 or elapsed + elapsed / attempted <= seconds:
        attempted += 1
        began = time.perf_counter()
        try:
            reports.append(run_round(workload, records, config))
        except Exception:  # counted as a failed operation, reported below
            traceback.print_exc()
        else:
            cv_times.append(time.perf_counter() - began)
            print(f"round {attempted}: {cv_times[-1]:.3f} s", file=sys.stderr)
        elapsed = time.monotonic() - start
    peak = peak_rss_mb()
    if not reports:
        raise RuntimeError("every round failed")
    splits = grouped_kfold(records, k=config.folds, seed=config.seed)
    correct = run_checks(workload, reports, records, config, splits)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - len(reports),
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "cv_s": metric(statistics.median(cv_times), "s"),
            "peak_rss_mb": metric(peak, "MB"),
        },
    }


def part_spans(workload, seed: int) -> dict:
    import necurve.harness as harness
    import workloads
    from necurve import grouped_kfold, roc_auc
    from necurve.autodiff import Adam
    from necurve.curves import greedy_rank
    from necurve.harness import greedy_probabilities

    pairs_built = 0

    def count_pairs(splits):
        nonlocal pairs_built
        pairs_built += sum(len(s.train) + len(s.validation) + len(s.test) for s in splits)

    with Spans() as spans:
        spans.wrap(workloads, "generate_dataset", "generate")
        spans.wrap(workloads, "read_records", "read")
        spans.wrap(harness, "grouped_kfold", "kfold", on_result=count_pairs)
        spans.wrap(harness, "train", "train")
        spans.wrap(harness, "evaluate", "evaluate")
        spans.wrap(Adam, "step", "adam_step")
        records = workloads.load_records(workload, seed, OUT_DIR)
        if workload.corpus == "desk":  # desk set-up has no JSONL; time it here
            workloads.jsonl_round_trip(records, OUT_DIR / f"{workload.name}-seed{seed}.jsonl")
        config = workload.train_config(seed)
        report = workloads.run_round(workload, records, config)
    splits = grouped_kfold(records, k=config.folds, seed=config.seed)
    correct = run_checks(workload, [report], records, config, splits)

    # the greedy scoring path over this corpus's (fold, fraction) test sets
    greedy_s, auc_s, auc_calls = 0.0, 0.0, 0
    for fraction in config.fractions:
        for split in splits:
            began = time.perf_counter()
            probabilities = greedy_probabilities(split.test, fraction)
            greedy_s += time.perf_counter() - began
            labels = [p.label for p in split.test]
            began = time.perf_counter()
            roc_auc(probabilities, labels)
            auc_s += time.perf_counter() - began
            auc_calls += 1
    pairs = splits[0].test
    began = time.perf_counter()
    for pair in pairs:
        greedy_rank(pair.left.curve, pair.right.curve, config.fractions[-1])
    greedy_rank_us = (time.perf_counter() - began) / len(pairs) * 1e6
    began = time.perf_counter()
    for criterion in ("wne", "lne"):
        workloads.consistency_analysis(records, criterion, workloads.CONSISTENCY_FRACTIONS)
    consistency_s = time.perf_counter() - began

    found = {
        "synth.generate_dataset_s": metric(spans.seconds["generate"], "s"),
        "synth.read_records_s": metric(spans.seconds["read"], "s"),
        "synth.grouped_kfold_s": metric(spans.seconds["kfold"], "s"),
        "synth.pairs_built": metric(pairs_built, "count"),
        "harness.greedy_probabilities_s": metric(greedy_s, "s"),
        "harness.roc_auc_ms": metric(auc_s / auc_calls * 1e3, "ms"),
        "harness.consistency_analysis_s": metric(consistency_s, "s"),
        "curves.greedy_rank_us": metric(greedy_rank_us, "us"),
    }
    if workload.trained:
        tasks = spans.calls["train"]
        found["harness.train_s"] = metric(spans.seconds["train"] / tasks, "s")
        found["harness.evaluate_s"] = metric(spans.seconds["evaluate"] / tasks, "s")
        found["harness.optimizer_steps"] = metric(spans.calls["adam_step"] / tasks, "count")
    return {"correct": correct, "attempted": 1, "failed": 0, "metrics": found}


def part_layers(workload, seed: int) -> dict:
    import layer_suite
    from workloads import load_records

    records = load_records(workload, seed, OUT_DIR)
    found = layer_suite.measure(workload, records, seed)
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": found}


def part_threads2(workload, seed: int) -> dict:
    from necurve import cross_validate
    from workloads import WORKLOADS, load_records

    records = load_records(workload, seed, OUT_DIR)
    # r2+act with two workers would roughly double its ~4.5 GB peak, so the
    # desk-r2-act corpus is cross-validated with the desk-r2 configuration
    reference = WORKLOADS["desk-r2"] if workload.name == "desk-r2-act" else workload
    os.environ["NECURVE_THREADS"] = "2"
    began = time.perf_counter()
    cross_validate(records, reference.train_config(seed))
    elapsed = time.perf_counter() - began
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {"harness.cv_threads2_s": metric(elapsed, "s")}}


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark measurement")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", required=True,
                        choices=("e2e", "spans", "layers", "threads2"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.part == "e2e":
        result = part_e2e(workload, args.seed, args.seconds, args.t0)
    elif args.part == "spans":
        result = part_spans(workload, args.seed)
    elif args.part == "layers":
        result = part_layers(workload, args.seed)
    else:
        result = part_threads2(workload, args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
