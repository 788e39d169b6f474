"""Tests for the training/evaluation harness: metrics against hand oracles,
training determinism, checkpoint persistence, greedy/consistency agreement,
and cross-validation report plumbing."""

from __future__ import annotations

import csv
import gc
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necurve import harness
from necurve.act import MASK_LITERAL, MASK_STRICT
from necurve.harness import (
    _gather,
    _greedy_jobs,
    _ranker_config,
    Checkpoint,
    EvalReport,
    EvaluationError,
    FoldMetrics,
    TrainConfig,
    TrainingError,
    accuracy,
    build_model,
    config_to_dict,
    consistency_analysis,
    cross_validate,
    evaluate,
    evaluate_greedy,
    greedy_probabilities,
    load_checkpoint_file,
    make_pair_batch,
    predict_pairs,
    read_report_json,
    roc_auc,
    save_checkpoint_file,
    train,
    write_metrics_csv,
    write_plot_data,
    write_report_json,
)
from necurve.curves import LearningCurve, greedy_rank
from necurve.rankers import RankerConfig, build_ranker
from necurve.synth import (
    CurvePair,
    DatasetSplit,
    GeneratorConfig,
    LabelingError,
    ModelRecord,
    generate_dataset,
    grouped_kfold,
    measure_inconsistency,
    pair_and_label,
)


def small_train_config(**overrides) -> TrainConfig:
    base = dict(
        ranker="r2",
        epochs=2,
        batch=16,
        lr=0.01,
        dropout=0.0,
        seed=3,
        fractions=(0.4,),
        folds=3,
        tcn_layers=1,
        tcn_filters=4,
        tcn_kernel=2,
        lstm_layers=1,
        lstm_dim=3,
        embed_dim=3,
        head_hidden=4,
        eval_batch=64,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def records():
    config = GeneratorConfig(
        jobs=6,
        models_per_job=4,
        curve_length_mean=40.0,
        curve_length_sd=10.0,
        examples_per_checkpoint=10,
        resample_length=20,
        seed=7,
    )
    return generate_dataset(config)


@pytest.fixture(scope="module")
def splits(records):
    return grouped_kfold(records, k=3, seed=7)


class TestTrainConfig:
    def test_rejects_unknown_ranker(self):
        with pytest.raises(ValueError, match="ranker"):
            TrainConfig(ranker="oracle")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(epochs=0),
            dict(batch=0),
            dict(folds=1),
            dict(fractions=()),
            dict(fractions=(0.0,)),
            dict(fractions=(1.2,)),
            dict(act_df=4),
            dict(lam=-0.1),
            dict(dropout=1.0),
            dict(mask_mode="fuzzy"),
            dict(max_pairs_per_epoch=0),
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_fractions_normalized_to_floats(self):
        config = TrainConfig(fractions=[1, 0.5])
        assert config.fractions == (1.0, 0.5)
        assert all(isinstance(f, float) for f in config.fractions)


class TestAccuracy:
    def test_hand_oracle(self):
        probs = np.array([0.9, 0.2, 0.5, 0.4])
        labels = np.array([1.0, 0.0, 1.0, 1.0])
        # correct, correct, tie (wrong), wrong
        assert accuracy(probs, labels) == 0.5

    def test_exact_half_is_wrong_for_both_labels(self):
        assert accuracy(np.array([0.5]), np.array([1.0])) == 0.0
        assert accuracy(np.array([0.5]), np.array([0.0])) == 0.0

    def test_perfect_and_inverted(self):
        probs = np.array([0.9, 0.1])
        labels = np.array([1.0, 0.0])
        assert accuracy(probs, labels) == 1.0
        assert accuracy(probs, 1.0 - labels) == 0.0

    def test_constant_predictions_score_one_class(self):
        labels = np.array([1.0, 1.0, 0.0, 1.0])
        assert accuracy(np.full(4, 0.7), labels) == 0.75
        assert accuracy(np.full(4, 0.3), labels) == 0.25

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            accuracy(np.array([]), np.array([]))


class TestRocAuc:
    def test_hand_oracle(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        # positive ranks 2 and 4: (6 - 3) / 4
        assert roc_auc(scores, labels) == 0.75

    def test_tied_scores_use_midranks(self):
        scores = np.array([0.5, 0.5, 0.7])
        labels = np.array([0.0, 1.0, 1.0])
        # midranks 1.5, 1.5, 3: (1.5 + 3 - 3) / 2
        assert roc_auc(scores, labels) == 0.75

    def test_constant_scores_give_half(self):
        scores = np.full(10, 0.3)
        labels = np.array([1.0, 0.0] * 5)
        assert roc_auc(scores, labels) == 0.5

    def test_perfect_and_reversed(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc_auc(scores, labels) == 1.0
        assert roc_auc(scores, 1.0 - labels) == 0.0

    def test_matches_pairwise_oracle(self):
        # O(n^2) definition: mean over (pos, neg) pairs of
        # 1[s_pos > s_neg] + 0.5 * 1[s_pos == s_neg]
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            pos = scores[labels == 1.0]
            neg = scores[labels == 0.0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels) - oracle) <= 1e-12

    def test_single_class_raises(self):
        with pytest.raises(EvaluationError):
            roc_auc(np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        with pytest.raises(EvaluationError):
            roc_auc(np.array([]), np.array([]))


class TestPairBatch:
    def test_shapes_and_truncation(self, splits):
        pairs = splits[0].train[:5]
        batch = make_pair_batch(pairs, n_obs=8)
        assert batch.curves_i.shape == (5, 8)
        assert batch.curves_j.shape == (5, 8)
        assert batch.hp_i.shape == (5, 13)
        assert len(batch.arch_i) == 5
        assert batch.labels.shape == (5,)
        np.testing.assert_array_equal(
            batch.curves_i[0], pairs[0].left.curve.values[:8]
        )
        assert batch.domain_ids[0] == pairs[0].left.domain_id


class TestTrain:
    def test_checkpoint_fields(self, splits):
        config = small_train_config()
        ckpt = train(splits[0], config, fraction=0.4)
        assert ckpt.fraction == 0.4
        assert 1 <= ckpt.best_epoch <= config.epochs
        assert 0.0 <= ckpt.validation_auc <= 1.0
        assert ckpt.ranker_config.observed_length == 8  # round(0.4 * 20)
        assert ckpt.domains == sorted(set(ckpt.domains))
        assert all(isinstance(v, np.ndarray) for v in ckpt.params.values())

    def test_same_seed_same_checkpoint(self, splits):
        config = small_train_config()
        first = train(splits[0], config, fraction=0.4)
        second = train(splits[0], config, fraction=0.4)
        assert first.best_epoch == second.best_epoch
        assert first.validation_auc == second.validation_auc
        assert set(first.params) == set(second.params)
        for name in first.params:
            np.testing.assert_array_equal(first.params[name], second.params[name])
        for name in first.state:
            np.testing.assert_array_equal(first.state[name], second.state[name])

    def test_different_seed_different_params(self, splits):
        first = train(splits[0], small_train_config(), fraction=0.4)
        second = train(splits[0], small_train_config(seed=4), fraction=0.4)
        assert any(
            not np.array_equal(first.params[name], second.params[name])
            for name in first.params
        )

    def test_greedy_is_not_trainable(self, splits):
        with pytest.raises(ValueError, match="greedy"):
            train(splits[0], small_train_config(ranker="greedy"))

    def test_empty_training_split_raises(self):
        split = DatasetSplit(train=[], validation=[], test=[], fold=0)
        with pytest.raises(TrainingError) as err:
            train(split, small_train_config())
        assert err.value.epoch == 0

    def test_non_finite_loss_reports_epoch(self, splits):
        # poison the hyperparameters so the first forward produces NaN
        def poison(pair):
            bad = np.full(13, np.inf)
            return CurvePair(
                left=replace(pair.left, hyperparameters=bad),
                right=replace(pair.right, hyperparameters=bad),
                label=pair.label,
            )

        split = DatasetSplit(
            train=[poison(p) for p in splits[0].train],
            validation=[],
            test=[],
            fold=0,
        )
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as err:
            train(split, small_train_config())
        assert err.value.epoch == 1

    def test_non_finite_loss_names_fold_fraction_epoch_and_batch(self, splits, monkeypatch):
        # the loss of the second batch of epoch 2 turns NaN
        config = small_train_config(max_pairs_per_epoch=48)  # 3 batches of 16 per epoch
        calls, total_loss = [], harness.total_loss

        def poisoned(*args):
            calls.append(None)
            loss = total_loss(*args)
            return loss * math.nan if len(calls) == 5 else loss

        monkeypatch.setattr(harness, "total_loss", poisoned)
        with pytest.raises(TrainingError, match=re.escape(
                "non-finite training loss at fold 1, fraction 0.4, epoch 2, batch 2")) as err:
            train(splits[1], config, fraction=0.4)
        assert (err.value.fold, err.value.fraction, err.value.epoch, err.value.batch) == (
            1, 0.4, 2, 2)

    def test_no_validation_keeps_last_epoch(self, splits):
        split = DatasetSplit(
            train=splits[0].train, validation=[], test=splits[0].test, fold=0
        )
        config = small_train_config(epochs=3)
        ckpt = train(split, config)
        assert ckpt.best_epoch == 3
        assert ckpt.validation_auc is None

    def test_lambda_zero_freezes_decoder(self, splits):
        config = small_train_config(lam=0.0, epochs=1)
        ckpt = train(splits[0], config, fraction=0.4)
        fresh = build_model(
            Checkpoint(
                ranker_config=ckpt.ranker_config,
                params=ckpt.params,
                state=ckpt.state,
                domains=ckpt.domains,
                arch_mean=ckpt.arch_mean,
                arch_sd=ckpt.arch_sd,
                fraction=0.4,
                best_epoch=1,
                validation_auc=None,
            )
        )
        from necurve.rankers import build_ranker

        init = build_ranker(
            ckpt.ranker_config, ckpt.domains, ckpt.arch_mean, ckpt.arch_sd
        )
        decoder_names = [
            n for n in init.params if n.startswith(("arch_dec", "arch_out"))
        ]
        assert decoder_names
        for name in decoder_names:
            np.testing.assert_array_equal(
                fresh.params[name].value, init.params[name].value
            )
        # sanity: the rest of the network did move
        moved = [
            n
            for n in init.params
            if n not in decoder_names
            and not np.array_equal(ckpt.params[n], init.params[n].value)
        ]
        assert moved


class TestEvaluate:
    def test_slice_fields(self, splits):
        config = small_train_config()
        ckpt = train(splits[0], config, fraction=0.4)
        piece = evaluate(ckpt, splits[0].test, fraction=0.4)
        assert piece.pairs == len(splits[0].test)
        assert 0.0 <= piece.auc <= 1.0
        assert 0.0 <= piece.accuracy <= 1.0

    def test_fraction_mismatch_raises(self, splits):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        with pytest.raises(ValueError, match="observed"):
            evaluate(ckpt, splits[0].test, fraction=0.8)

    def test_empty_pairs_raise(self, splits):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        with pytest.raises(EvaluationError):
            evaluate(ckpt, [], fraction=0.4)
        with pytest.raises(EvaluationError):
            evaluate_greedy([], fraction=0.4)

    def test_prediction_batch_size_does_not_matter(self, splits):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        model = build_model(ckpt)
        pairs = splits[0].test
        whole = predict_pairs(model, pairs, n_obs=8, eval_batch=len(pairs))
        chunked = predict_pairs(model, pairs, n_obs=8, eval_batch=3)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0.0)


def traced_peak(fn) -> int:
    """Bytes of the tracemalloc peak while ``fn()`` runs and its result lives."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestEvalMemory:
    def test_scoring_peak_is_at_most_half_the_taped_forward(self):
        # one desk-scale batch: B = 256 pairs, T = 60 observed points
        records = generate_dataset(GeneratorConfig(
            jobs=4, models_per_job=12, curve_length_mean=40.0, curve_length_sd=10.0,
            examples_per_checkpoint=10, resample_length=100, seed=9,
        ))
        pairs = pair_and_label(records, ordered=False)[:256]
        assert len(pairs) == 256
        config = RankerConfig(
            kind="r2", observed_length=60, tcn_layers=4, tcn_filters=24, lstm_layers=1,
            lstm_dim=12, embed_dim=8, head_hidden=32,
            hp_dim=len(records[0].hyperparameters),
        )
        model = build_ranker(config, sorted({r.domain_id for r in records}))
        batch = make_pair_batch(pairs, 60)
        taped = traced_peak(lambda: model.distance(batch, train=False))
        scored = traced_peak(lambda: predict_pairs(model, pairs, 60, eval_batch=256))
        assert scored <= taped / 2, (scored, taped)


class TestCheckpointPersistence:
    def test_roundtrip_preserves_predictions(self, splits, tmp_path):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        path = tmp_path / "model.json"
        save_checkpoint_file(ckpt, path)
        loaded = load_checkpoint_file(path)
        assert loaded.ranker_config == ckpt.ranker_config
        assert loaded.domains == ckpt.domains
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.validation_auc == ckpt.validation_auc
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        pairs = splits[0].test
        original = predict_pairs(build_model(ckpt), pairs, n_obs=8)
        restored = predict_pairs(build_model(loaded), pairs, n_obs=8)
        np.testing.assert_array_equal(restored, original)

    def test_build_model_rejects_bad_shapes(self, splits):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        name = sorted(ckpt.params)[0]
        ckpt.params[name] = np.zeros((1, 1, 1))
        with pytest.raises(ValueError, match="shape"):
            build_model(ckpt)

    def test_build_model_rejects_bad_names(self, splits):
        ckpt = train(splits[0], small_train_config(), fraction=0.4)
        extra = replace(ckpt, params={**ckpt.params, "extra": np.ones(1)})
        with pytest.raises(ValueError, match="names"):
            build_model(extra)
        missing = replace(ckpt, params=dict(sorted(ckpt.params.items())[1:]))
        with pytest.raises(ValueError, match="names"):
            build_model(missing)

    def test_codec_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        params = {
            "enc.w": rng.normal(size=(4, 3)),
            "enc.w_t": rng.normal(size=(3, 4)).T,  # not C-contiguous
            "scale": np.array(0.123456789012345678),  # 0-d
        }
        assert not params["enc.w_t"].flags["C_CONTIGUOUS"]
        ckpt = plain_checkpoint(params, state={"norm.mean": rng.normal(size=5)})
        path = tmp_path / "ckpt.json"
        save_checkpoint_file(ckpt, path)
        loaded = load_checkpoint_file(path)
        for saved, restored in ((ckpt.params, loaded.params), (ckpt.state, loaded.state)):
            assert set(restored) == set(saved)
            for name, value in saved.items():
                assert restored[name].shape == value.shape
                assert restored[name].tobytes() == np.ascontiguousarray(value).tobytes()

    def test_load_rejects_unknown_ranker_config_key(self, tmp_path):
        path = edited_checkpoint_file(tmp_path, lambda fields: fields.update(width=3))
        with pytest.raises(ValueError, match=re.escape(str(path)) + r".*unknown keys \['width'\]"):
            load_checkpoint_file(path)

    def test_load_rejects_missing_ranker_config_key(self, tmp_path):
        # without the check the gamma=0.2 model would load at the 0.05 default
        path = edited_checkpoint_file(tmp_path, lambda fields: fields.pop("gamma"))
        with pytest.raises(ValueError, match=re.escape(str(path)) + r".*missing keys \['gamma'\]"):
            load_checkpoint_file(path)

    def test_load_names_file_and_array_of_a_bad_shape(self, splits, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint_file(train(splits[0], small_train_config(), fraction=0.4), path)
        payload = json.loads(path.read_text())
        name = sorted(payload["params"])[0]
        payload["params"][name]["shape"] = [2, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(repr(name))):
            load_checkpoint_file(path)

    def test_build_names_a_missing_state_array(self, splits, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint_file(train(splits[0], small_train_config(), fraction=0.4), path)
        payload = json.loads(path.read_text())
        del payload["state"]["hp_norm.mean"]
        path.write_text(json.dumps(payload))
        checkpoint = load_checkpoint_file(path)
        with pytest.raises(ValueError, match=r"checkpoint state names.*missing \['hp_norm.mean'\]"):
            build_model(checkpoint)

    def test_load_names_a_negative_running_variance(self, tmp_path):
        path = tmp_path / "ckpt.json"
        state = {"curve.norm0.var": np.array([1.0, -1.0])}
        save_checkpoint_file(plain_checkpoint({"w": np.ones(2)}, state), path)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: running "
                                                       "variance 'curve.norm0.var'")):
            load_checkpoint_file(path)

    def test_load_names_a_nan_parameter(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint_file(plain_checkpoint({"head.out.w": np.array([0.5, np.nan])}, {}),
                             path)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: array "
                                                       "'head.out.w' holds non-finite")):
            load_checkpoint_file(path)

    def test_load_names_an_array_without_data(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint_file(plain_checkpoint({"w": np.ones(2)}, {}), path)
        payload = json.loads(path.read_text())
        del payload["params"]["w"]["data"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: array 'w'")):
            load_checkpoint_file(path)


def plain_checkpoint(params: dict, state: dict) -> Checkpoint:
    return Checkpoint(
        ranker_config=RankerConfig(gamma=0.2), params=params, state=state, domains=[0, 2],
        arch_mean=np.zeros(2), arch_sd=np.ones(2), fraction=0.4, best_epoch=1,
        validation_auc=None,
    )


def edited_checkpoint_file(tmp_path, edit) -> Path:
    """A saved checkpoint whose ranker_config dict was passed through edit."""
    path = tmp_path / "edited.json"
    save_checkpoint_file(plain_checkpoint({"w": np.ones(2)}, {}), path)
    payload = json.loads(path.read_text())
    edit(payload["ranker_config"])
    path.write_text(json.dumps(payload))
    return path


def explicit_ranker_config(config: TrainConfig, n_obs: int, hp_dim: int,
                           seed: int) -> RankerConfig:
    """The field-by-field mapping that _ranker_config replaced, kept as its oracle."""
    kind, _, suffix = config.ranker.partition("+")
    return RankerConfig(
        kind=kind,
        observed_length=n_obs,
        use_act=suffix == "act",
        act_df=config.act_df,
        gamma=config.gamma,
        mask_mode=config.mask_mode,
        lam=config.lam,
        tcn_layers=config.tcn_layers,
        tcn_filters=config.tcn_filters,
        tcn_kernel=config.tcn_kernel,
        lstm_layers=config.lstm_layers,
        lstm_dim=config.lstm_dim,
        embed_dim=config.embed_dim,
        head_hidden=config.head_hidden,
        dropout=config.dropout,
        use_metadata=config.use_metadata,
        hp_dim=hp_dim,
        seed=seed,
    )


train_configs = st.builds(
    TrainConfig,
    ranker=st.sampled_from(("r2", "r2+act", "siamese", "siamese+act")),
    dropout=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**31 - 1),
    act_df=st.sampled_from((1, 2, 3)),
    gamma=st.floats(1e-3, 10.0),
    lam=st.floats(0.0, 10.0),
    use_metadata=st.booleans(),
    mask_mode=st.sampled_from((MASK_STRICT, MASK_LITERAL)),
    tcn_layers=st.integers(1, 8),
    tcn_filters=st.integers(1, 128),
    tcn_kernel=st.integers(1, 7),
    lstm_layers=st.integers(1, 4),
    lstm_dim=st.integers(1, 128),
    embed_dim=st.integers(1, 128),
    head_hidden=st.integers(1, 128),
)


def perfbench_workloads():
    """perfbench/workloads.py, imported read-only under its own module name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestRankerConfigMapping:
    @settings(max_examples=200, deadline=None)
    @given(train_configs, st.integers(1, 500), st.integers(1, 64), st.integers(0, 2**31 - 1))
    def test_matches_the_explicit_mapping(self, config, n_obs, hp_dim, seed):
        assert (_ranker_config(config, n_obs, hp_dim, seed)
                == explicit_ranker_config(config, n_obs, hp_dim, seed))

    def test_benchmark_times_the_model_that_train_builds(self):
        workloads = perfbench_workloads()
        trained = [w for w in workloads.WORKLOADS.values() if w.trained]
        assert trained
        for workload in trained:
            config = workload.train_config(seed=5)
            for n_obs, hp_dim in ((12, 13), (36, 4)):
                assert (workloads.ranker_config(config, n_obs, hp_dim)
                        == _ranker_config(config, n_obs, hp_dim, config.seed)), workload.name


class TestGreedyAndConsistency:
    def test_greedy_accuracy_equals_consistency_curve(self, records):
        fractions = (0.2, 0.5, 1.0)
        curve = consistency_analysis(records, criterion="wne", fractions=fractions)
        pairs = pair_and_label(records, ordered=False)
        for point in curve:
            piece = evaluate_greedy(pairs, point["fraction"])
            assert piece.accuracy == point["accuracy"]
            assert piece.pairs == point["pairs"]

    def test_cumulative_criterion_is_self_consistent_at_full_observation(
        self, records
    ):
        point = consistency_analysis(records, criterion="lne", fractions=(1.0,))[0]
        assert point["accuracy"] == 1.0

    def test_window_criterion_matches_inconsistency_rate(self, records):
        point = consistency_analysis(records, criterion="wne", fractions=(1.0,))[0]
        assert point["accuracy"] == 1.0 - measure_inconsistency(records)

    def test_window_criterion_no_better_than_cumulative_when_fully_observed(
        self, records
    ):
        lne = consistency_analysis(records, criterion="lne", fractions=(1.0,))
        wne = consistency_analysis(records, criterion="wne", fractions=(1.0,))
        assert wne[0]["accuracy"] <= lne[0]["accuracy"]

    def test_rejects_unknown_criterion(self, records):
        with pytest.raises(ValueError, match="criterion"):
            consistency_analysis(records, criterion="auc")

    def test_missing_final_values_raise(self, records):
        broken = [replace(r, final_wne=None) for r in records[:4]]
        with pytest.raises(ValueError, match="final"):
            consistency_analysis(broken, criterion="wne", fractions=(0.5,))

    @pytest.mark.parametrize("criterion", ["wne", "lne"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_final_raises_naming_the_model(self, criterion, bad):
        corpus = generate_dataset(GeneratorConfig(
            jobs=4, models_per_job=4, curve_length_mean=40.0, curve_length_sd=10.0,
            examples_per_checkpoint=10, resample_length=20, seed=7,
        ))
        target = corpus[len(corpus) // 2]
        broken = [replace(r, **{f"final_{criterion}": bad}) if r is target else r
                  for r in corpus]
        with pytest.raises(LabelingError, match=f"model {target.model_id} "):
            consistency_analysis(broken, criterion=criterion, fractions=(0.5,))


def oracle_greedy_calls(pairs: list[CurvePair], fraction: float) -> np.ndarray:
    """The scalar rule: one ``greedy_rank`` per pair, a tie scoring 0.5."""
    calls = []
    for pair in pairs:
        prediction = greedy_rank(pair.left.curve, pair.right.curve, fraction)
        calls.append(0.5 if prediction.tie else prediction.prob_left_superior)
    return np.array(calls)


OBSERVED_VALUES = (0.3, 0.5, 0.7)  # few values, so observed values often tie
FINAL_VALUES = (0.2, 0.4, 0.6, 0.8)  # few finals, so some pairs have none


@st.composite
def greedy_corpora(draw):
    """Records of 1-4 jobs, each job with its own curve length, plus
    fractions: some put round(f * L) on a .5 boundary of a job's length."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    records = []
    for job_id, length in enumerate(lengths):
        for _ in range(draw(st.integers(1, 5))):
            values = draw(st.lists(st.sampled_from(OBSERVED_VALUES),
                                   min_size=length, max_size=length))
            records.append(ModelRecord(
                model_id=0, job_id=job_id,
                curve=LearningCurve(values=values, example_counts=np.arange(1, length + 1)),
                hyperparameters=np.zeros(2), architecture=((1, 1),), domain_id=0,
                final_wne=draw(st.sampled_from(FINAL_VALUES)),
                final_lne=draw(st.sampled_from(FINAL_VALUES)),
            ))
    ids = draw(st.permutations(range(len(records))))
    records = draw(st.permutations(
        [replace(r, model_id=i) for r, i in zip(records, ids)]))

    def usable(fraction):
        return all(round(fraction * length) >= 1 for length in lengths)

    boundaries = [(2 * m + 1) / (2 * length) for length in lengths for m in range(length)]
    fraction = st.one_of(
        st.sampled_from([f for f in boundaries + [1.0] if usable(f)]),
        st.floats(min_value=0.01, max_value=1.0).filter(usable),
    )
    return records, tuple(draw(st.lists(fraction, min_size=1, max_size=4)))


class TestGreedyScorer:
    @settings(max_examples=200, deadline=None)
    @given(greedy_corpora(), st.sampled_from(("wne", "lne")))
    def test_matches_the_pair_loop(self, corpus, criterion):
        records, fractions = corpus
        relabelled = [replace(r, final_wne=getattr(r, f"final_{criterion}"))
                      for r in records]
        pairs = pair_and_label(relabelled, ordered=False)
        scored = _greedy_jobs(records, criterion, fractions)
        labels, calls = _gather(scored, scored, len(fractions))
        assert len(labels) == len(pairs)
        assert calls.shape == (len(fractions), len(pairs))
        np.testing.assert_array_equal(labels, [p.label for p in pairs])
        for fraction, row in zip(fractions, calls):
            np.testing.assert_array_equal(row, oracle_greedy_calls(pairs, fraction))
            np.testing.assert_array_equal(greedy_probabilities(pairs, fraction), row)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("fractions", [(0.4, 1.0), (0.8, 0.2, 0.55)])
    def test_cross_validate_matches_the_pair_assembly(self, seed, fractions):
        records = generate_dataset(GeneratorConfig(
            jobs=9, models_per_job=5, curve_length_mean=40.0, curve_length_sd=10.0,
            examples_per_checkpoint=10, resample_length=20, seed=seed,
        ))
        config = small_train_config(ranker="greedy", seed=seed, fractions=fractions)
        # the report as assembled from grouped_kfold's test pairs
        folds = []
        for fraction in config.fractions:
            for split in grouped_kfold(records, k=config.folds, seed=config.seed):
                piece = evaluate_greedy(split.test, fraction)
                folds.append(FoldMetrics(split.fold, fraction, piece.auc,
                                         piece.accuracy, piece.pairs))
        folds.sort(key=lambda m: (m.fraction, m.fold))
        expected = EvalReport(ranker="greedy", fractions=list(config.fractions),
                              folds=folds, config=config_to_dict(config))
        report = cross_validate(records, config)
        assert (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(expected.to_dict(), sort_keys=True))

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf])
    def test_cross_validate_bad_final_names_the_model(self, records, bad):
        target = records[len(records) // 2]
        broken = [replace(r, final_wne=bad) if r is target else r for r in records]
        with pytest.raises(LabelingError, match=f"model {target.model_id} "):
            cross_validate(broken, small_train_config(ranker="greedy"))

    def test_unequal_lengths_within_a_job_raise(self, records):
        target = records[0]
        short = LearningCurve(values=target.curve.values[:-1],
                              example_counts=target.curve.example_counts[:-1])
        broken = [replace(r, curve=short) if r is target else r for r in records]
        with pytest.raises(ValueError, match="equal length"):
            consistency_analysis(broken, "wne", (0.5,))
        with pytest.raises(ValueError, match="equal length"):
            cross_validate(broken, small_train_config(ranker="greedy"))

    def test_jobs_of_different_lengths_are_scored(self, records):
        def truncated(record):
            return replace(record, curve=LearningCurve(
                values=record.curve.values[:11],
                example_counts=record.curve.example_counts[:11]))

        first_job = records[0].job_id
        mixed = [truncated(r) if r.job_id == first_job else r for r in records]
        pairs = pair_and_label(mixed, ordered=False)
        point = consistency_analysis(mixed, "wne", (0.5,))[0]
        assert point["pairs"] == len(pairs)
        assert point["accuracy"] == accuracy(oracle_greedy_calls(pairs, 0.5),
                                             [p.label for p in pairs])
        config = small_train_config(ranker="greedy")
        report = cross_validate(mixed, config)
        splits = grouped_kfold(mixed, k=config.folds, seed=config.seed)
        assert [m.pairs for m in report.folds] == [len(s.test) for s in splits]

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5, math.nan])
    def test_fraction_outside_unit_interval_raises(self, records, fraction):
        with pytest.raises(ValueError, match="fraction"):
            consistency_analysis(records, "wne", (0.5, fraction))
        with pytest.raises(ValueError, match="fraction"):
            greedy_probabilities(pair_and_label(records, ordered=False), fraction)

    def test_fold_without_pairs_raises(self, records):
        tied = [replace(r, final_wne=0.5) for r in records]
        with pytest.raises(EvaluationError, match="no pairs"):
            cross_validate(tied, small_train_config(ranker="greedy"))

    def test_one_class_fold_raises(self, records):
        # finals rise with model_id, so every pair's left model wins
        ordered = [replace(r, final_wne=float(r.model_id)) for r in records]
        with pytest.raises(EvaluationError, match="both classes"):
            cross_validate(ordered, small_train_config(ranker="greedy"))


class TestCrossValidate:
    def test_greedy_report_shape(self, records):
        config = small_train_config(ranker="greedy", fractions=(0.4, 1.0))
        report = cross_validate(records, config)
        assert report.ranker == "greedy"
        assert len(report.folds) == 2 * 3
        assert report.runtime_seconds > 0.0
        for metrics in report.folds:
            assert metrics.best_epoch is None
            assert metrics.validation_auc is None
        assert 0.0 <= report.mean_accuracy(1.0) <= 1.0
        assert report.sd_auc(0.4) >= 0.0

    def test_greedy_report_deterministic(self, records):
        config = small_train_config(ranker="greedy", fractions=(0.4,))
        first = cross_validate(records, config)
        second = cross_validate(records, config)
        assert first.to_dict() == second.to_dict()
        assert first == second  # runtime is excluded from comparison

    def test_thread_count_does_not_change_report(self, records, monkeypatch):
        # greedy runs no pool, so the pool is checked on trained rankers,
        # with dropout on so each task draws from its own generators
        for ranker in ("r2", "r2+act"):
            config = small_train_config(ranker=ranker, dropout=0.1, fractions=(0.4, 1.0),
                                        max_pairs_per_epoch=32)
            monkeypatch.setenv("NECURVE_THREADS", "1")
            serial = cross_validate(records, config)
            monkeypatch.setenv("NECURVE_THREADS", "3")
            threaded = cross_validate(records, config)
            assert serial.to_dict() == threaded.to_dict(), ranker

    def test_trained_ranker_report(self, records):
        config = small_train_config(epochs=1, max_pairs_per_epoch=24)
        report = cross_validate(records, config)
        assert len(report.folds) == 3
        for metrics in report.folds:
            assert metrics.best_epoch == 1
            assert metrics.validation_auc is not None

    def test_results_sorted_by_fraction_then_fold(self, records):
        config = small_train_config(ranker="greedy", fractions=(0.8, 0.2))
        report = cross_validate(records, config)
        keys = [(m.fraction, m.fold) for m in report.folds]
        assert keys == sorted(keys)


class TestReportIO:
    def make_report(self, records) -> EvalReport:
        config = small_train_config(ranker="greedy", fractions=(0.4, 1.0))
        report = cross_validate(records, config)
        report.consistency = consistency_analysis(
            records, criterion="wne", fractions=(0.4, 1.0)
        )
        return report

    def test_json_roundtrip(self, records, tmp_path):
        report = self.make_report(records)
        path = tmp_path / "report.json"
        write_report_json([report], path)
        loaded = read_report_json(path)
        assert len(loaded) == 1
        assert loaded[0] == report
        assert "runtime" not in path.read_text()

    def test_metrics_csv_layout(self, records, tmp_path):
        report = self.make_report(records)
        path = tmp_path / "metrics.csv"
        write_metrics_csv([report], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["ranker", "fraction", "fold", "auc", "accuracy", "pairs"]
        body = rows[1:]
        fold_rows = [r for r in body if r[2] not in ("mean", "sd")]
        agg_rows = [r for r in body if r[2] in ("mean", "sd")]
        assert len(fold_rows) == len(report.folds)
        assert len(agg_rows) == 2 * len(report.fractions)
        mean_row = next(r for r in agg_rows if r[1] == "1" and r[2] == "mean")
        assert float(mean_row[3]) == report.mean_auc(1.0)

    def test_plot_data_files(self, records, tmp_path):
        report = self.make_report(records)
        created = write_plot_data([report], tmp_path / "plotdata")
        names = {p.rsplit("/", 1)[-1] for p in created}
        assert names == {"greedy_curves.json", "greedy_consistency.json"}
        with open(tmp_path / "plotdata" / "greedy_curves.json") as handle:
            curve = json.load(handle)
        assert curve["fractions"] == [0.4, 1.0]
        assert len(curve["mean_auc"]) == 2
        assert curve["mean_auc"][1] == report.mean_auc(1.0)

    def test_summary_block(self, records):
        report = self.make_report(records)
        data = report.to_dict()
        assert set(data["summary"]) == {"0.4", "1"}
        assert data["summary"]["1"]["mean_accuracy"] == report.mean_accuracy(1.0)
        rebuilt = EvalReport.from_dict(data)
        assert rebuilt.mean_auc(0.4) == report.mean_auc(0.4)


class TestActRankerIntegration:
    def test_act_ranker_trains_and_evaluates(self, splits):
        config = small_train_config(ranker="r2+act", act_df=1, epochs=1)
        ckpt = train(splits[0], config, fraction=0.4)
        assert ckpt.ranker_config.use_act
        assert any(name.startswith("act.") for name in ckpt.params)
        piece = evaluate(ckpt, splits[0].test, fraction=0.4)
        assert 0.0 <= piece.auc <= 1.0

    def test_siamese_trains(self, splits):
        config = small_train_config(ranker="siamese", epochs=1)
        ckpt = train(splits[0], config, fraction=0.4)
        piece = evaluate(ckpt, splits[0].test, fraction=0.4)
        assert math.isfinite(piece.auc)
