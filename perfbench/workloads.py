"""The benchmark's workloads: which corpus, which ranker, and one round.

A round is the operation the benchmark times and counts: one
``cross_validate`` from records to a finished report, plus the ``wne`` and
``lne`` consistency curves on ``full-greedy``.

Each workload's corpus is generated under the acceptance suite's master
seed, so every run does the same amount of generation, pairing and scoring;
``--seed`` drives everything after it: the grouped job partition, weight
initialisation, pair shuffling and dropout.  Drawing the corpus from
``--seed`` as well made set-up time, round time and peak RSS follow the
drawn curve lengths and job sizes (quartile spreads of 42%, 7% and 9% over
five seeds on desk-r2-act), which is input size, not the program's speed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from necurve import (
    EvalReport,
    GeneratorConfig,
    ModelRecord,
    RankerConfig,
    TrainConfig,
    consistency_analysis,
    cross_validate,
    full_scale,
    generate_dataset,
    read_records,
    write_records,
)

CONSISTENCY_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
CORPUS_SEED = 2026  # MASTER_SEED of tests/test_acceptance.py

# The model sizes of tests/test_acceptance.py::acceptance_train_config, with
# 2 epochs of 384 pairs instead of 10 of 768 so one round fits in ~30 s.
DESK_TRAINING = dict(
    epochs=2, batch=64, lr=0.003, dropout=0.1, folds=5, act_df=3,
    tcn_layers=4, tcn_filters=24, tcn_kernel=3, lstm_layers=1, lstm_dim=12,
    embed_dim=8, head_hidden=32, max_pairs_per_epoch=384,
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "desk" (20 x 20 drawn) or "full" (79 x 60 drawn)
    ranker: str
    fractions: tuple

    @property
    def trained(self) -> bool:
        return self.ranker != "greedy"

    def generator(self) -> GeneratorConfig:
        if self.corpus == "desk":
            return GeneratorConfig(seed=CORPUS_SEED)
        return full_scale(CORPUS_SEED)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(ranker=self.ranker, seed=seed, fractions=self.fractions,
                           **DESK_TRAINING)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-r2", "desk", "r2", (0.2, 0.4, 0.6)),
        Workload("desk-r2-act", "desk", "r2+act", (0.6,)),
        Workload("full-greedy", "full", "greedy", (0.2, 0.4, 0.6)),
    )
}


def load_records(workload: Workload, seed: int, workdir: Path) -> list[ModelRecord]:
    """The records a round reads: generated, and on the full corpus also
    written to JSONL and read back, as the CLI pipeline does."""
    records = generate_dataset(workload.generator())
    if workload.corpus == "full":
        records = jsonl_round_trip(records, workdir / f"{workload.name}-seed{seed}.jsonl")
    return records


def jsonl_round_trip(records: list[ModelRecord], path: Path) -> list[ModelRecord]:
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        write_records(records, path)
        return read_records(path)
    finally:
        path.unlink(missing_ok=True)


def run_round(workload: Workload, records: list[ModelRecord],
              config: TrainConfig) -> EvalReport:
    report = cross_validate(records, config)
    if not workload.trained:
        report.consistency = [
            point
            for criterion in ("wne", "lne")
            for point in consistency_analysis(records, criterion, CONSISTENCY_FRACTIONS)
        ]
    return report


def ranker_config(config: TrainConfig, observed_length: int, hp_dim: int,
                  use_act: bool | None = None) -> RankerConfig:
    """The RankerConfig a training run of ``config`` builds, from the fields
    the two configs share."""
    own = ("kind", "observed_length", "hp_dim", "use_act", "seed")
    kind, _, suffix = config.ranker.partition("+")
    shared = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(RankerConfig)
        if hasattr(config, f.name) and f.name not in own
    }
    return RankerConfig(
        **shared, kind=kind, observed_length=observed_length, hp_dim=hp_dim,
        use_act=(suffix == "act") if use_act is None else use_act, seed=config.seed,
    )
