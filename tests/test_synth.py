"""Tests for the synthetic stream generator and dataset pipeline.

Stream-level anchors (flat curves, the window/lifetime identity under a
constant CTR) are checked against the curve-math oracles; dataset-level
behavior (filtering, calibrated inconsistency, labeling polarity, grouped
splits, byte-identical persistence) is checked with counting oracles and
exhaustive set arithmetic on small configurations.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from necurve.curves import (
    LearningCurve,
    LossStream,
    WindowSpec,
    lne_curve,
    log_loss,
    wne_direct,
    wne_from_lne,
)
from necurve.synth import (
    CurveParams,
    CurvePair,
    GenerationError,
    GeneratorConfig,
    LabelingError,
    ModelRecord,
    SplitError,
    _stream_parts,
    _summarize,
    generate_dataset,
    generate_stream,
    grouped_kfold,
    measure_inconsistency,
    pair_and_label,
    partition_jobs,
    full_scale,
    read_records,
    record_from_dict,
    record_to_dict,
    write_records,
    write_split_manifest,
)


def stream_params(**overrides) -> CurveParams:
    base = dict(
        floor=0.7, decay=0.5, decay_rate=0.9, season=0.015, season_omega=0.07,
        season_phase=1.0, kick=0.0, ctr0=0.2, n_examples=1500, checkpoint_scale=10,
    )
    base.update(overrides)
    return CurveParams(**base)


def small_dataset_config(**overrides) -> GeneratorConfig:
    base = dict(
        jobs=8, models_per_job=8, curve_length_mean=40.0, curve_length_sd=15.0,
        examples_per_checkpoint=10, seed=5,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def make_record(model_id: int, job_id: int, wne: float | None,
                lne: float | None = None, stream: LossStream | None = None) -> ModelRecord:
    curve = LearningCurve(values=[1.0, 0.9, 0.8], example_counts=[1, 2, 3])
    return ModelRecord(
        model_id=model_id, job_id=job_id, curve=curve,
        hyperparameters=np.zeros(13), architecture=((16, 32),), domain_id=0,
        final_wne=wne, final_lne=lne if lne is not None else wne, stream=stream,
    )


class TestParameterValidation:
    def test_rejects_nonpositive_floor(self):
        with pytest.raises(GenerationError):
            stream_params(floor=0.0)

    def test_rejects_negative_amplitudes(self):
        for name in ("decay", "season", "kick"):
            with pytest.raises(GenerationError):
                stream_params(**{name: -0.1})

    def test_rejects_bad_ctr(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(GenerationError):
                stream_params(ctr0=bad)

    def test_rejects_floor_swamped_by_season(self):
        params = stream_params(floor=0.05, season=0.04)
        with pytest.raises(GenerationError):
            generate_stream(params, GeneratorConfig(noise=0.02), seed=0)

    def test_config_rejects_bad_values(self):
        for kwargs in (
            {"jobs": 0},
            {"models_per_job": 0},
            {"inconsistency_target": 0.6},
            {"ctr_drift": -1.0},
            {"noise": -0.1},
            {"resample_length": 1},
            {"min_raw_points": 1},
            {"day_window": 0},
            {"curve_length_mean": 0.0},
        ):
            with pytest.raises(ValueError):
                GeneratorConfig(**kwargs)

    def test_default_day_window_is_fifth_of_mean_span(self):
        config = GeneratorConfig(curve_length_mean=100.0, examples_per_checkpoint=50)
        assert config.resolved_day_window == 1000

    def test_full_scale_dimensions(self):
        config = full_scale()
        assert config.jobs == 79 and config.models_per_job == 60


class TestGenerateStream:
    def test_flat_parameters_give_flat_curve(self):
        # noise 0, decay 0, season 0 -> every lifetime-NE value equals the floor
        params = stream_params(decay=0.0, season=0.0, n_examples=500)
        stream = generate_stream(params, GeneratorConfig(noise=0.0), seed=1)
        curve = lne_curve(stream, np.arange(10, 501, 10))
        assert np.allclose(curve.values, 0.7, rtol=1e-12, atol=0.0)

    def test_constant_ctr_satisfies_window_identity(self):
        config = GeneratorConfig(ctr_drift=0.0, noise=0.02)
        rng = np.random.default_rng(0)
        for seed in range(5):
            params = stream_params(kick=0.3)
            stream = generate_stream(params, config, seed=seed)
            checkpoints = np.arange(10, params.n_examples + 1, 10)
            curve = lne_curve(stream, checkpoints)
            for _ in range(40):
                t = int(rng.choice(checkpoints))
                lefts = checkpoints[checkpoints < t]
                if len(lefts) and rng.random() < 0.8:
                    d = t - int(rng.choice(lefts))
                else:
                    d = t  # window covering everything: the LNE special case
                spec = WindowSpec(t=t, d=d)
                direct = wne_direct(stream, spec)
                recon = wne_from_lne(curve, spec)
                assert abs(recon - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_identity_error_grows_with_drift(self):
        # stays in the slow-walk regime: once steps are large relative to the
        # CTR band the folded walk mixes fast, prefix CTRs stabilize, and the
        # error stops growing
        checkpoints = np.arange(10, 1501, 10)
        mean_errors = []
        for drift in (0.0, 0.0005, 0.002, 0.008):
            config = GeneratorConfig(ctr_drift=drift, noise=0.0)
            errors = []
            for seed in range(12):
                stream = generate_stream(stream_params(), config, seed=seed)
                curve = lne_curve(stream, checkpoints)
                for t in (500, 1000, 1500):
                    for d in (100, 300, t):
                        spec = WindowSpec(t=t, d=d)
                        errors.append(abs(wne_from_lne(curve, spec) - wne_direct(stream, spec)))
            mean_errors.append(np.mean(errors))
        for lower, higher in zip(mean_errors, mean_errors[1:]):
            assert higher >= lower

    def test_drifting_ctr_stays_in_band(self):
        config = GeneratorConfig(ctr_drift=0.01)
        stream = generate_stream(stream_params(n_examples=3000), config, seed=3)
        assert np.all(stream.ctr_prefix >= 0.01) and np.all(stream.ctr_prefix <= 0.5)
        assert stream.ctr_prefix.std() > 0.0

    def test_same_seed_same_stream(self):
        config = GeneratorConfig(noise=0.05, ctr_drift=0.005)
        a = generate_stream(stream_params(), config, seed=9)
        b = generate_stream(stream_params(), config, seed=9)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.ctr_prefix, b.ctr_prefix)

    def test_losses_are_linear_in_kick(self):
        config = GeneratorConfig(noise=0.02)
        base = generate_stream(stream_params(kick=0.0), config, seed=4)
        kicked = generate_stream(stream_params(kick=0.8), config, seed=4)
        gap = kicked.losses - base.losses
        n = stream_params().n_examples
        ramp_zone = np.arange(1, n + 1) > math.floor(0.7 * n)
        assert np.allclose(gap[~ramp_zone], 0.0, atol=1e-15)
        assert np.all(gap[ramp_zone][-100:] > 0.0)

    def test_kick_raises_window_more_than_lifetime(self):
        config = GeneratorConfig(noise=0.0)
        base = generate_stream(stream_params(kick=0.0, season=0.0), config, seed=6)
        kicked = generate_stream(stream_params(kick=0.5, season=0.0), config, seed=6)
        n = stream_params().n_examples
        spec = WindowSpec(t=n, d=n // 5)
        lifetime_shift = (
            np.mean(kicked.losses) - np.mean(base.losses)
        )
        window_shift = wne_direct(kicked, spec) - wne_direct(base, spec)
        assert window_shift > 4.0 * lifetime_shift / base.range_normalizer(1, n)


def full_length_parts(params: CurveParams, config: GeneratorConfig, seed):
    """``_stream_parts`` with the CTR path and its normalizer at full length,
    the normalizer computed per example from the full-length CTR."""
    base, ramp, normalizer, ctr = _stream_parts(params, config, np.random.default_rng(seed))
    ctr = np.broadcast_to(ctr, params.n_examples).copy()
    full = -(ctr * np.log(ctr) + (1.0 - ctr) * np.log1p(-ctr))
    np.testing.assert_array_equal(np.broadcast_to(normalizer, full.shape), full)
    return base, ramp, full, ctr


def direct_summary(params: CurveParams, config: GeneratorConfig, seed) -> tuple:
    """What ``_summarize`` returns, from full-length cumulative sums of every
    per-example array: its reference."""
    base, ramp, normalizer, ctr = full_length_parts(params, config, seed)
    n = params.n_examples
    counts = np.arange(params.checkpoint_scale, n + 1, params.checkpoint_scale)
    cs_base, cs_ramp, cs_ctr = (np.cumsum(a) for a in (base * normalizer, ramp * normalizer, ctr))
    prefix = cs_ctr[counts - 1] / counts
    window = min(config.resolved_day_window, n)

    def last_window(cs):
        return cs[-1] - (cs[n - window - 1] if window < n else 0.0)

    ctr_win = last_window(cs_ctr) / window
    return (counts, cs_base[counts - 1], cs_ramp[counts - 1],
            -(prefix * np.log(prefix) + (1 - prefix) * np.log1p(-prefix)),
            last_window(cs_base), last_window(cs_ramp), log_loss(ctr_win, ctr_win), window)


class TestSummaries:
    """``_summarize`` and ``generate_stream`` skip the constant CTR path and the
    zero part of the ramp; both stay bitwise equal to full-length arithmetic."""

    @pytest.mark.parametrize("drift", [0.0, 0.002])
    @pytest.mark.parametrize("day_window", [37, 10**6])
    @pytest.mark.parametrize("n_examples, per_checkpoint", [(1500, 10), (7, 1), (1, 1)])
    def test_summarize_matches_full_length_reductions(self, drift, day_window, n_examples,
                                                      per_checkpoint):
        config = GeneratorConfig(ctr_drift=drift, day_window=day_window)
        params = stream_params(n_examples=n_examples, checkpoint_scale=per_checkpoint)
        for seed in range(3):
            got = _summarize(params, config, [11, seed])
            want = direct_summary(params, config, [11, seed])
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("drift", [0.0, 0.002])
    def test_stream_matches_full_length_arithmetic(self, drift):
        config = GeneratorConfig(ctr_drift=drift)
        params = stream_params(kick=0.4)
        stream = generate_stream(params, config, seed=5)
        base, ramp, normalizer, ctr = full_length_parts(params, config, 5)
        n = params.n_examples
        np.testing.assert_array_equal(stream.losses, (base + params.kick * ramp) * normalizer)
        np.testing.assert_array_equal(stream.ctr_prefix, np.cumsum(ctr) / np.arange(1, n + 1))


class TestGenerateDataset:
    def test_record_invariants(self):
        config = small_dataset_config()
        records = generate_dataset(config)
        assert records, "expected surviving records"
        pool = config.resolved_domain_pool
        for record in records:
            assert len(record.curve) == config.resample_length
            assert len(record.hyperparameters) == config.hyperparameter_count
            assert math.isfinite(record.final_wne) and math.isfinite(record.final_lne)
            assert 0 <= record.domain_id < pool
            assert 0 <= record.job_id < config.jobs
            for (a, b), (c, d) in zip(record.architecture, record.architecture[1:]):
                assert b == c  # consecutive layer dims chain

    def test_short_curves_are_dropped(self):
        config = small_dataset_config(curve_length_mean=5.0, curve_length_sd=0.0)
        assert generate_dataset(config) == []

    def test_single_model_jobs_make_no_pairs(self):
        config = small_dataset_config(models_per_job=1)
        records = generate_dataset(config)
        assert pair_and_label(records) == []

    def test_byte_identical_repeated_generation(self, tmp_path):
        config = small_dataset_config()
        paths = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            write_records(generate_dataset(config), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_inconsistency_calibration_hits_target(self):
        records = generate_dataset(GeneratorConfig())
        pairs = pair_and_label(records, ordered=False)
        assert len(pairs) >= 1000
        assert abs(measure_inconsistency(records) - 0.2) <= 0.03

    def test_zero_target_means_zero_kick(self):
        base = generate_dataset(small_dataset_config(inconsistency_target=0.0))
        rate = measure_inconsistency(base)
        kicked = generate_dataset(small_dataset_config(inconsistency_target=0.3))
        assert measure_inconsistency(kicked) > rate

    def test_hyperparameter_slots_drive_curve_shape(self):
        records = generate_dataset(GeneratorConfig())
        hp0 = np.array([r.hyperparameters[0] for r in records])
        hp3 = np.array([r.hyperparameters[3] for r in records])
        early_excess = np.array(
            [r.curve.values[4] - r.curve.values[-1] for r in records]
        )
        late_gap = np.array([r.final_wne - r.final_lne for r in records])
        observed_60 = np.array([r.curve.values[59] for r in records])
        # slot 0 raises the decay rate, draining the early excess
        assert np.corrcoef(hp0, early_excess)[0, 1] < -0.3
        # slot 3 scales the late ramp, which widens the window-vs-lifetime gap
        assert np.corrcoef(hp3, late_gap)[0, 1] > 0.5
        # but the ramp has not fired by 60% observation, so the slot is
        # invisible in the observed prefix (metadata carries real information)
        assert abs(np.corrcoef(hp3, observed_60)[0, 1]) < 0.15


class TestPairAndLabel:
    def test_polarity(self):
        records = [make_record(0, 0, wne=0.41), make_record(1, 0, wne=0.43)]
        pairs = pair_and_label(records, ordered=False)
        assert len(pairs) == 1
        assert pairs[0].left.model_id == 0 and pairs[0].label == 1.0

    def test_ordered_pair_count_and_flip(self):
        records = [make_record(i, 0, wne=0.4 + 0.01 * i) for i in range(5)]
        ordered = pair_and_label(records, ordered=True)
        assert len(ordered) == 5 * 4
        by_key = {(p.left.model_id, p.right.model_id): p.label for p in ordered}
        for (a, b), label in by_key.items():
            assert by_key[(b, a)] == 1.0 - label

    def test_label_balance_is_exact_under_augmentation(self):
        records = [make_record(i, 0, wne=float(np.random.default_rng(i).random()))
                   for i in range(8)]
        ordered = pair_and_label(records, ordered=True)
        assert np.mean([p.label for p in ordered]) == 0.5

    def test_deduplicated_count(self):
        records = [make_record(i, 0, wne=0.4 + 0.01 * i) for i in range(6)]
        assert len(pair_and_label(records, ordered=False)) == 15

    def test_ties_are_skipped(self):
        records = [make_record(0, 0, wne=0.4), make_record(1, 0, wne=0.4)]
        assert pair_and_label(records) == []

    def test_jobs_never_mix(self):
        records = [make_record(i, i % 2, wne=0.4 + 0.01 * i) for i in range(6)]
        for pair in pair_and_label(records):
            assert pair.left.job_id == pair.right.job_id

    def test_missing_finals_raise(self):
        records = [make_record(0, 0, wne=None), make_record(1, 0, wne=0.4)]
        with pytest.raises(LabelingError):
            pair_and_label(records)

    def test_labels_from_raw_streams(self):
        # records without finals fall back to the 1-day window over the stream
        better = LossStream(losses=np.full(100, 0.3), ctr_prefix=np.full(100, 0.2))
        worse = LossStream(losses=np.full(100, 0.5), ctr_prefix=np.full(100, 0.2))
        records = [
            make_record(0, 0, wne=None, stream=better),
            make_record(1, 0, wne=None, stream=worse),
        ]
        pairs = pair_and_label(records, day_window=20, ordered=False)
        assert len(pairs) == 1 and pairs[0].label == 1.0

    def test_cross_job_pair_construction_rejected(self):
        with pytest.raises(ValueError):
            CurvePair(make_record(0, 0, wne=0.4), make_record(1, 1, wne=0.5), 1.0)


class TestGroupedKfold:
    def make_records(self, jobs: int, per_job: int = 3) -> list[ModelRecord]:
        rng = np.random.default_rng(17)
        return [
            make_record(j * per_job + m, j, wne=float(rng.random()))
            for j in range(jobs) for m in range(per_job)
        ]

    def test_fold_shape_at_ten_jobs(self):
        splits = grouped_kfold(self.make_records(10), k=5, seed=0)
        assert len(splits) == 5
        for split in splits:
            assert len(split.test_jobs) == 2
            assert len(split.validation_jobs) == 1
            assert len(split.train_jobs) == 7

    def test_partitions_cover_and_never_leak(self):
        records = self.make_records(11)
        all_jobs = {r.job_id for r in records}
        for split in grouped_kfold(records, k=5, seed=3):
            train, val, test = map(set, (split.train_jobs, split.validation_jobs,
                                         split.test_jobs))
            assert train | val | test == all_jobs
            assert not train & val and not train & test and not val & test

    def test_each_job_tested_once_at_exact_ratios(self):
        splits = grouped_kfold(self.make_records(10), k=5, seed=1)
        tested = [j for split in splits for j in split.test_jobs]
        assert sorted(tested) == list(range(10))

    def test_pairs_stay_inside_their_partition(self):
        for split in grouped_kfold(self.make_records(10), k=5, seed=2):
            assert {p.left.job_id for p in split.train} <= set(split.train_jobs)
            assert {p.left.job_id for p in split.validation} <= set(split.validation_jobs)
            assert {p.left.job_id for p in split.test} <= set(split.test_jobs)

    def test_train_pairs_are_ordered_eval_pairs_deduplicated(self):
        split = grouped_kfold(self.make_records(10, per_job=4), k=5, seed=4)[0]
        train_keys = {(p.left.model_id, p.right.model_id) for p in split.train}
        for a, b in train_keys:
            assert (b, a) in train_keys
        test_keys = {(p.left.model_id, p.right.model_id) for p in split.test}
        for a, b in test_keys:
            assert (b, a) not in test_keys

    def test_split_determinism(self):
        records = self.make_records(12)
        first = grouped_kfold(records, seed=9)
        second = grouped_kfold(records, seed=9)
        for a, b in zip(first, second):
            assert a.train_jobs == b.train_jobs
            assert a.validation_jobs == b.validation_jobs
            assert a.test_jobs == b.test_jobs

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 5), (5, 1), (5, 9), (7, 4)])
    def test_job_tuples_come_from_partition_jobs(self, k, seed):
        records = self.make_records(13)
        folds = partition_jobs(records, k=k, seed=seed)
        splits = grouped_kfold(records, k=k, seed=seed)
        assert [(s.train_jobs, s.validation_jobs, s.test_jobs) for s in splits] == folds
        assert [s.fold for s in splits] == list(range(k))

    def test_partition_only_splits_carry_no_pairs(self):
        records = self.make_records(10)
        full = grouped_kfold(records, k=5, seed=3)
        bare = grouped_kfold(records, k=5, seed=3, build_pairs=False)
        for a, b in zip(full, bare):
            assert (a.fold, a.train_jobs, a.validation_jobs, a.test_jobs) == (
                b.fold, b.train_jobs, b.validation_jobs, b.test_jobs)
            assert b.train == b.validation == b.test == []

    def test_too_few_jobs(self):
        with pytest.raises(SplitError):
            grouped_kfold(self.make_records(4), k=5)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            grouped_kfold(self.make_records(10), ratios=(0.5, 0.2, 0.2))


class TestPersistence:
    def records_equal(self, a: ModelRecord, b: ModelRecord) -> bool:
        return (
            a.model_id == b.model_id
            and a.job_id == b.job_id
            and a.domain_id == b.domain_id
            and np.array_equal(a.curve.values, b.curve.values)
            and np.array_equal(a.curve.example_counts, b.curve.example_counts)
            and np.array_equal(a.hyperparameters, b.hyperparameters)
            and a.architecture == b.architecture
            and a.final_wne == b.final_wne
            and a.final_lne == b.final_lne
        )

    def test_roundtrip(self, tmp_path):
        records = generate_dataset(small_dataset_config())
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        loaded = read_records(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert self.records_equal(a, b)

    def edited_records(self, tmp_path, line: int, edit) -> tuple:
        """A written JSONL file whose 1-based ``line`` went through ``edit``,
        and the model id on that line."""
        records = generate_dataset(small_dataset_config(jobs=2, models_per_job=3))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        lines = path.read_text().splitlines()
        data = json.loads(lines[line - 1])
        lines[line - 1] = edit(data)
        path.write_text("\n".join(lines) + "\n")
        return path, data["model_id"]

    def test_malformed_line_is_named(self, tmp_path):
        path, _ = self.edited_records(tmp_path, 3, lambda data: "{not json")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: JSONDecodeError")):
            read_records(path)

    def test_missing_key_names_line_and_model(self, tmp_path):
        def drop_domain(data):
            del data["domain_id"]
            return json.dumps(data)

        path, model_id = self.edited_records(tmp_path, 2, drop_domain)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2, model {model_id}: KeyError: 'domain_id'")) as info:
            read_records(path)
        assert isinstance(info.value.__cause__, KeyError)

    def test_nan_curve_value_names_line_and_model(self, tmp_path):
        def poison(data):
            data["lne"][1] = math.nan
            return json.dumps(data)

        path, model_id = self.edited_records(tmp_path, 4, poison)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4, model {model_id}: ")
                           + ".*finite"):
            read_records(path)

    def test_record_dict_schema(self):
        record = generate_dataset(small_dataset_config())[0]
        data = record_to_dict(record)
        assert {"job_id", "model_id", "counts", "lne", "normalized"} <= set(data)
        assert data["normalized"] is True
        assert self.records_equal(record, record_from_dict(data))

    def test_split_manifest(self, tmp_path):
        records = generate_dataset(small_dataset_config())
        splits = grouped_kfold(records, seed=0)
        path = tmp_path / "splits.json"
        write_split_manifest(splits, path)
        import json

        manifest = json.loads(path.read_text())
        assert len(manifest["folds"]) == 5
        first = manifest["folds"][0]
        assert first["train"] == sorted(first["train"])
        assert set(first["train"]) == set(splits[0].train_jobs)
