"""Tests for the pairwise rankers.

Closed-form anchors (logistic values, cross-entropy at delta = 0, unit MSE
under a zeroed decoder head) are frozen as literals.  Structural guarantees
(exact siamese antisymmetry, embedding-table gradient sparsity, metadata
ablation) are exercised directly, and every trainable path is gradient-checked
against central differences.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import necurve.layers
from necurve.autodiff import Adam, Node, TapeReuseError, concat, grad_check_params, no_grad
from necurve.rankers import (
    DistanceOutput,
    PairBatch,
    RankerConfig,
    RelativeRanker,
    SiameseRanker,
    arch_statistics,
    build_ranker,
    ce_loss,
    pairwise_probability,
    total_loss,
)

LENGTH = 12
HP_DIM = 3


def small_config(**overrides) -> RankerConfig:
    base = dict(
        kind="r2",
        observed_length=LENGTH,
        tcn_layers=2,
        tcn_filters=6,
        tcn_kernel=3,
        lstm_layers=1,
        lstm_dim=5,
        embed_dim=4,
        head_hidden=7,
        dropout=0.0,
        hp_dim=HP_DIM,
        seed=11,
    )
    base.update(overrides)
    return RankerConfig(**base)


def random_arch(rng: np.random.Generator) -> np.ndarray:
    layers = int(rng.integers(1, 4))
    dims = rng.integers(1, 50, size=layers + 1).astype(np.float64)
    return np.stack([dims[:-1], dims[1:]], axis=1)


def make_batch(rng: np.random.Generator, batch: int = 4, length: int = LENGTH,
               equal_arch: bool = False, identical_sides: bool = False) -> PairBatch:
    curves_i = rng.uniform(0.1, 1.5, size=(batch, length))
    curves_j = rng.uniform(0.1, 1.5, size=(batch, length))
    hp_i = rng.normal(size=(batch, HP_DIM))
    hp_j = rng.normal(size=(batch, HP_DIM))
    arch_i = [random_arch(rng) for _ in range(batch)]
    arch_j = [a.copy() for a in arch_i] if equal_arch else [random_arch(rng) for _ in range(batch)]
    if identical_sides:
        curves_j = curves_i.copy()
        hp_j = hp_i.copy()
        arch_j = [a.copy() for a in arch_i]
    domain_ids = [int(rng.integers(0, 4)) for _ in range(batch)]
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    return PairBatch(curves_i, curves_j, hp_i, hp_j, arch_i, arch_j, domain_ids, labels)


def training_stats(batch: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    return arch_statistics(batch.arch_i + batch.arch_j)


class TestProbabilityAndLosses:
    def test_probability_at_log_odds_three(self):
        # e^ln3 / (1 + e^ln3) = 3/4
        assert pairwise_probability(np.array([np.log(3.0)]))[0] == pytest.approx(
            0.75, abs=1e-12
        )

    def test_probability_at_zero_is_half(self):
        assert pairwise_probability(np.array([0.0]))[0] == 0.5

    def test_probability_node_matches_array(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = rng.normal(scale=5.0, size=6)
            node = pairwise_probability(Node(delta))
            assert np.allclose(node.value, pairwise_probability(delta), rtol=0, atol=1e-15)

    def test_probability_complement_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            delta = rng.normal(scale=8.0, size=5)
            total = pairwise_probability(delta) + pairwise_probability(-delta)
            assert np.all(np.abs(total - 1.0) < 1e-12)

    def test_extreme_distance_stays_finite(self):
        for sign in (1.0, -1.0):
            delta = np.array([sign * 500.0])
            p = pairwise_probability(delta)
            assert np.all(np.isfinite(p)) and 0.0 <= p[0] <= 1.0
            for label in (0.0, 1.0):
                ce = ce_loss(Node(delta), np.array([label]))
                assert np.isfinite(ce.value)

    def test_cross_entropy_at_even_odds(self):
        # p = 1, p_hat = 1/2 -> CE = ln 2
        ce = ce_loss(Node(np.array([0.0])), np.array([1.0]))
        assert ce.value == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_cross_entropy_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = rng.normal(scale=3.0, size=4)
            labels = rng.integers(0, 2, size=4).astype(np.float64)
            p_hat = pairwise_probability(delta)
            direct = -(labels * np.log(p_hat) + (1 - labels) * np.log(1 - p_hat)).mean()
            assert ce_loss(Node(delta), labels).value == pytest.approx(direct, rel=1e-10)

    def test_cross_entropy_gradient(self):
        delta0 = np.array([0.4, -1.2, 2.0])
        labels = np.array([1.0, 0.0, 1.0])

        def fn(x: Node) -> Node:
            return ce_loss(x, labels)

        from necurve.autodiff import grad_check

        assert grad_check(fn, delta0) < 1e-6

    def test_total_loss_combination(self):
        total = total_loss(Node(np.array(0.7)), Node(np.array(0.3)), 0.1)
        assert total.value == pytest.approx(0.73, abs=1e-12)

    def test_total_loss_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            total_loss(Node(np.array(0.7)), Node(np.array(0.3)), -0.1)

    def test_zero_weight_drops_reconstruction(self):
        total = total_loss(Node(np.array(0.7)), Node(np.array(123.0)), 0.0)
        assert total.value == pytest.approx(0.7, abs=1e-12)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RankerConfig(kind="mlp")

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            RankerConfig(lam=-0.5)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            RankerConfig(tcn_filters=0)

    def test_factory_dispatch(self):
        assert isinstance(build_ranker(small_config()), RelativeRanker)
        assert isinstance(build_ranker(small_config(kind="siamese")), SiameseRanker)

    def test_class_rejects_the_other_kind(self):
        with pytest.raises(ValueError, match="'r2'"):
            RelativeRanker(small_config(kind="siamese"))
        with pytest.raises(ValueError, match="'siamese'"):
            SiameseRanker(small_config(kind="r2"))

    def test_same_seed_same_initialization(self):
        a = RelativeRanker(small_config(), domains=[0, 1])
        b = RelativeRanker(small_config(), domains=[0, 1])
        for name in a.params:
            assert np.array_equal(a.params[name].value, b.params[name].value)


class TestArchStatistics:
    def test_frozen_small_case(self):
        mean, sd = arch_statistics([np.array([[1.0, 2.0]]), np.array([[3.0, 6.0]])])
        assert np.array_equal(mean, [2.0, 4.0])
        assert np.array_equal(sd, [1.0, 2.0])

    def test_constant_slot_gets_unit_scale(self):
        mean, sd = arch_statistics([np.array([[5.0, 1.0], [5.0, 3.0]])])
        assert sd[0] == 1.0 and mean[0] == 5.0


class TestArchEncoder:
    def test_identical_sequences_share_embedding(self):
        model = RelativeRanker(small_config(), domains=[0], arch_mean=np.zeros(2),
                               arch_sd=np.ones(2))
        seq = np.array([[4.0, 8.0], [8.0, 2.0]])
        emb, _, _ = model.enc.encode_architectures([seq, seq.copy()])
        assert np.array_equal(emb.value[0], emb.value[1])

    def test_length_grouping_preserves_order(self):
        model = RelativeRanker(small_config(), domains=[0], arch_mean=np.zeros(2),
                               arch_sd=np.ones(2))
        rng = np.random.default_rng(7)
        seqs = [random_arch(rng) for _ in range(6)]
        batched, _, _ = model.enc.encode_architectures(seqs)
        for idx, seq in enumerate(seqs):
            alone, _, _ = model.enc.encode_architectures([seq])
            assert np.allclose(batched.value[idx], alone.value[0], rtol=1e-12, atol=1e-12)

    def test_zeroed_decoder_head_gives_unit_mse(self):
        # with the output projection zeroed the reconstruction is 0 everywhere,
        # so the MSE equals the mean squared normalized input, which is 1 by
        # construction of the normalization statistics
        rng = np.random.default_rng(8)
        seqs = [random_arch(rng) for _ in range(5)]
        mean, sd = arch_statistics(seqs)
        model = RelativeRanker(small_config(), domains=[0], arch_mean=mean, arch_sd=sd)
        model.params["arch_out.w"].value[...] = 0.0
        model.params["arch_out.b"].value[...] = 0.0
        _, sse, count = model.enc.encode_architectures(seqs)
        assert sse.value / count.value == pytest.approx(1.0, rel=1e-9)

    def test_rejects_empty_sequence(self):
        model = RelativeRanker(small_config(), domains=[0])
        with pytest.raises(ValueError):
            model.enc.encode_architectures([np.zeros((0, 2))])


def stepwise_encode(enc, seqs) -> tuple[Node, Node, float]:
    """Oracle for ``encode_architectures``: each sequence alone, one
    ``LstmCell.step`` per layer and step, in input order."""
    hidden, features = enc.config.lstm_dim, enc.config.arch_feature_dim
    embeddings, sse, count = [], Node(0.0), 0.0
    for seq in seqs:
        target = (np.asarray(seq, dtype=np.float64) - enc.arch_mean) / enc.arch_sd
        zeros = Node(np.zeros((1, hidden)))
        hs, cs = [zeros] * len(enc.arch_encoder.cells), [zeros] * len(enc.arch_encoder.cells)
        for row in target:
            x = Node(row.reshape(1, -1))
            for k, cell in enumerate(enc.arch_encoder.cells):
                hs[k], cs[k] = cell.step(x, hs[k], cs[k])
                x = hs[k]
        embedding = x
        hs, cs = [embedding] * len(enc.arch_decoder.cells), [zeros] * len(enc.arch_decoder.cells)
        for row in target:
            x = Node(np.zeros((1, features)))
            for k, cell in enumerate(enc.arch_decoder.cells):
                hs[k], cs[k] = cell.step(x, hs[k], cs[k])
                x = hs[k]
            err = enc.arch_out(x) - row.reshape(1, -1)
            sse = sse + (err * err).sum()
        embeddings.append(embedding)
        count += target.size
    return concat(embeddings, axis=0), sse, count


def arch_grads(model, loss: Node) -> dict[str, np.ndarray]:
    Adam(model.params).zero_grad()
    loss.backward()
    return {name: node.grad.copy() for name, node in model.params.items()
            if name.startswith("arch_")}


CONTAINERS = {
    "tuple": lambda seq: tuple(tuple(int(v) for v in row) for row in seq),
    "list": lambda seq: [[int(v) for v in row] for row in seq],
    "array": lambda seq: np.array(seq, dtype=np.float64),
    "int array": lambda seq: np.array(seq, dtype=np.int64),
}
layer_rows = st.lists(st.tuples(st.integers(1, 64), st.integers(1, 64)), min_size=1, max_size=5)
arch_lists = st.lists(layer_rows, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.sampled_from(sorted(CONTAINERS))),
        min_size=1, max_size=8,
    ).map(lambda picks: (pool, [CONTAINERS[kind](pool[k]) for k, kind in picks]))
)


class TestDistinctEncoder:
    """One padded pass over the distinct sequences against each sequence
    encoded alone through ``LstmCell.step``."""

    @staticmethod
    def model(pool, layers):
        mean, sd = arch_statistics([np.array(seq, dtype=np.float64) for seq in pool])
        return RelativeRanker(small_config(lstm_layers=layers), domains=[0],
                              arch_mean=mean, arch_sd=sd)

    @settings(max_examples=100, deadline=None)
    @given(case=arch_lists, layers=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_matches_stepwise_oracle(self, case, layers, seed):
        pool, seqs = case
        model = self.model(pool, layers)
        weights = np.random.default_rng(seed).normal(size=(len(seqs), 5))
        losses = []
        for encode in (model.enc.encode_architectures, lambda s: stepwise_encode(model.enc, s)):
            embeddings, sse, count = encode(seqs)
            count = getattr(count, "value", count)
            losses.append((embeddings, sse.value / count,
                           arch_grads(model, (embeddings * weights).sum() + sse / count)))
        (emb, mse, grads), (want_emb, want_mse, want_grads) = losses
        np.testing.assert_allclose(emb.value, want_emb.value, rtol=1e-12, atol=1e-12)
        assert mse == pytest.approx(want_mse, rel=1e-12, abs=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(case=arch_lists, data=st.data())
    def test_pair_feature_and_equal_mask(self, case, data):
        pool, seqs = case
        arch_j = data.draw(st.permutations(seqs))
        model = self.model(pool, 1)
        _, _, _, inverse = model.enc.encode_distinct([*seqs, *arch_j])
        equal = inverse[: len(seqs)] == inverse[len(seqs):]
        want_equal = [np.array_equal(np.asarray(a), np.asarray(b)) for a, b in zip(seqs, arch_j)]
        assert equal.tolist() == want_equal
        feature, _, _ = model.enc.encode_pairs(seqs, arch_j)
        emb_i = stepwise_encode(model.enc, seqs)[0].value
        emb_j = stepwise_encode(model.enc, arch_j)[0].value
        want = np.where(np.array(want_equal)[:, None], emb_i, emb_i - emb_j)
        np.testing.assert_allclose(feature.value, want, rtol=1e-12, atol=1e-12)

    def test_one_padded_pass_per_lstm(self, monkeypatch):
        # one encoder and one decoder pass, padded to the longest architecture,
        # cover both sides of a pair batch
        calls = []
        real = necurve.layers.lstm_sequence

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(necurve.layers, "lstm_sequence", counting)
        rng = np.random.default_rng(12)
        batch = make_batch(rng, batch=8)
        mean, sd = training_stats(batch)
        model = RelativeRanker(small_config(), domains=[0, 1, 2, 3], arch_mean=mean, arch_sd=sd)
        out = model.distance(batch, train=True)
        total_loss(ce_loss(out.delta, batch.labels), out.reconstruction, 0.1).backward()
        assert len(calls) == 2
        assert {shape[0] for shape in calls} == {3}


class TestDomainEmbedding:
    def test_repeated_id_identical_rows(self):
        model = RelativeRanker(small_config(), domains=[3, 5, 9])
        rows = model.enc.embed_domains([5, 9, 5], train=True)
        assert np.array_equal(rows.value[0], rows.value[2])

    def test_gradient_only_reaches_used_rows(self):
        model = RelativeRanker(small_config(), domains=[0, 1, 2, 3])
        rows = model.enc.embed_domains([0, 2], train=True)
        rows.sum().backward()
        grad = model.params["domains"].grad
        assert np.all(grad[0] != 0.0) and np.all(grad[2] != 0.0)
        assert np.all(grad[1] == 0.0) and np.all(grad[3] == 0.0)

    def test_unseen_id_raises_during_training(self):
        model = RelativeRanker(small_config(), domains=[0, 1])
        with pytest.raises(KeyError):
            model.enc.embed_domains([0, 7], train=True)

    def test_unseen_id_deterministic_per_seed(self):
        model = RelativeRanker(small_config(), domains=[0, 1])
        first = model.enc.embed_domains([7], train=False, eval_seed=13)
        second = model.enc.embed_domains([7], train=False, eval_seed=13)
        other_seed = model.enc.embed_domains([7], train=False, eval_seed=14)
        other_id = model.enc.embed_domains([8], train=False, eval_seed=13)
        assert np.array_equal(first.value, second.value)
        assert not np.array_equal(first.value, other_seed.value)
        assert not np.array_equal(first.value, other_id.value)

    def test_eval_mixes_table_rows_with_fresh_vectors(self):
        model = RelativeRanker(small_config(), domains=[0, 1])
        mixed = model.enc.embed_domains([1, 7], train=False, eval_seed=3)
        assert np.array_equal(mixed.value[0], model.params["domains"].value[1])


class TestRelativeRanker:
    def test_distance_shapes_and_probability(self):
        rng = np.random.default_rng(20)
        batch = make_batch(rng)
        mean, sd = training_stats(batch)
        model = RelativeRanker(small_config(), domains=batch.domain_ids, arch_mean=mean,
                               arch_sd=sd)
        out = model.distance(batch)
        assert isinstance(out, DistanceOutput)
        assert out.delta.shape == (len(batch),)
        assert np.allclose(out.probability, pairwise_probability(out.delta.value))
        assert np.isfinite(out.reconstruction.value)

    def test_rejects_wrong_observed_length(self):
        rng = np.random.default_rng(21)
        batch = make_batch(rng, length=LENGTH + 1)
        model = RelativeRanker(small_config(), domains=batch.domain_ids)
        with pytest.raises(ValueError):
            model.distance(batch)

    def test_metadata_ablation_runs_on_curves_alone(self):
        rng = np.random.default_rng(22)
        batch = make_batch(rng)
        model = RelativeRanker(small_config(use_metadata=False), domains=[])
        out = model.distance(batch)
        assert out.reconstruction.value == 0.0
        assert "domains" not in model.params
        assert not any(name.startswith("arch_") for name in model.params)
        assert not any(name.startswith("hp_norm") for name in model.params)

    def test_act_front_end_integrates(self):
        rng = np.random.default_rng(23)
        batch = make_batch(rng)
        mean, sd = training_stats(batch)
        model = RelativeRanker(
            small_config(use_act=True, act_df=3), domains=batch.domain_ids,
            arch_mean=mean, arch_sd=sd,
        )
        out = model.distance(batch)
        assert np.all(np.isfinite(out.delta.value))
        assert any(name.startswith("act.") for name in model.params)

    def test_train_mode_requires_dropout_generator(self):
        rng = np.random.default_rng(24)
        batch = make_batch(rng)
        mean, sd = training_stats(batch)
        model = RelativeRanker(small_config(dropout=0.3), domains=batch.domain_ids,
                               arch_mean=mean, arch_sd=sd)
        with pytest.raises(ValueError):
            model.distance(batch, train=True, rng=None)

    def test_state_roundtrip_restores_eval_forward(self):
        # the state plumbing lives in the shared shell; check it for both kinds
        rng = np.random.default_rng(25)
        batch = make_batch(rng)
        mean, sd = training_stats(batch)
        for ranker in (RelativeRanker, SiameseRanker):
            model = ranker(small_config(kind=ranker.kind), domains=[0, 1, 2, 3],
                           arch_mean=mean, arch_sd=sd)
            model.distance(batch, train=True, rng=np.random.default_rng(0))
            saved = {k: v.copy() for k, v in model.state_arrays().items()}
            before = model.distance(batch).delta.value.copy()
            model.distance(make_batch(np.random.default_rng(26)), train=True,
                           rng=np.random.default_rng(0))
            assert not np.array_equal(model.distance(batch).delta.value, before)
            model.load_state(saved)
            after = model.distance(batch).delta.value
            assert np.array_equal(before, after), ranker.kind


class TestSiameseRanker:
    def test_exact_antisymmetry_eval(self):
        for trial in range(10):
            batch = make_batch(np.random.default_rng(100 + trial))
            mean, sd = training_stats(batch)
            model = SiameseRanker(small_config(kind="siamese"), domains=batch.domain_ids,
                                  arch_mean=mean, arch_sd=sd)
            forward = model.distance(batch)
            backward = model.distance(batch.swapped())
            assert np.array_equal(forward.delta.value, -backward.delta.value)

    def test_exact_antisymmetry_train_mode(self):
        batch = make_batch(np.random.default_rng(31))
        mean, sd = training_stats(batch)
        model = SiameseRanker(small_config(kind="siamese", dropout=0.3),
                              domains=batch.domain_ids, arch_mean=mean, arch_sd=sd)
        forward = model.distance(batch, train=True, rng=np.random.default_rng(5))
        backward = model.distance(batch.swapped(), train=True, rng=np.random.default_rng(5))
        assert np.array_equal(forward.delta.value, -backward.delta.value)

    def test_identical_records_tie_exactly(self):
        batch = make_batch(np.random.default_rng(32), identical_sides=True)
        mean, sd = training_stats(batch)
        model = SiameseRanker(small_config(kind="siamese", dropout=0.3),
                              domains=batch.domain_ids, arch_mean=mean, arch_sd=sd)
        eval_out = model.distance(batch)
        train_out = model.distance(batch, train=True, rng=np.random.default_rng(6))
        assert np.all(eval_out.delta.value == 0.0)
        assert np.all(train_out.delta.value == 0.0)
        assert np.all(eval_out.probability == 0.5)

    def test_metadata_ablation(self):
        batch = make_batch(np.random.default_rng(33))
        model = SiameseRanker(small_config(kind="siamese", use_metadata=False))
        out = model.distance(batch)
        assert out.reconstruction.value == 0.0
        assert np.array_equal(
            out.delta.value, -model.distance(batch.swapped()).delta.value
        )

    def test_act_front_end_antisymmetry(self):
        batch = make_batch(np.random.default_rng(34))
        mean, sd = training_stats(batch)
        model = SiameseRanker(
            small_config(kind="siamese", use_act=True, act_df=3),
            domains=batch.domain_ids, arch_mean=mean, arch_sd=sd,
        )
        forward = model.distance(batch)
        backward = model.distance(batch.swapped())
        assert np.array_equal(forward.delta.value, -backward.delta.value)


class TestGradients:
    def _loss_builder(self, model, batch, lam=0.1, seed=3):
        def build() -> Node:
            out = model.distance(batch, train=True, rng=np.random.default_rng(seed))
            return total_loss(ce_loss(out.delta, batch.labels), out.reconstruction, lam)

        return build

    def test_relative_ranker_gradients(self):
        batch = make_batch(np.random.default_rng(40), batch=3)
        mean, sd = training_stats(batch)
        model = RelativeRanker(small_config(dropout=0.3), domains=batch.domain_ids,
                               arch_mean=mean, arch_sd=sd)
        err = grad_check_params(
            self._loss_builder(model, batch), model.params, coords_per_param=2, seed=0
        )
        assert err < 1e-4

    def test_siamese_ranker_gradients(self):
        batch = make_batch(np.random.default_rng(41), batch=3)
        mean, sd = training_stats(batch)
        model = SiameseRanker(small_config(kind="siamese", dropout=0.3),
                              domains=batch.domain_ids, arch_mean=mean, arch_sd=sd)
        err = grad_check_params(
            self._loss_builder(model, batch), model.params, coords_per_param=2, seed=1
        )
        assert err < 1e-4

    def test_relative_ranker_with_act_gradients(self):
        batch = make_batch(np.random.default_rng(42), batch=2)
        mean, sd = training_stats(batch)
        model = RelativeRanker(
            small_config(use_act=True, act_df=3), domains=batch.domain_ids,
            arch_mean=mean, arch_sd=sd,
        )
        err = grad_check_params(
            self._loss_builder(model, batch), model.params, coords_per_param=2, seed=2
        )
        assert err < 1e-4

    def test_metadata_free_gradients(self):
        batch = make_batch(np.random.default_rng(43), batch=3)
        model = SiameseRanker(small_config(kind="siamese", use_metadata=False))
        err = grad_check_params(
            self._loss_builder(model, batch, lam=0.0), model.params,
            coords_per_param=3, seed=3,
        )
        assert err < 1e-4


def tape_nodes(root: Node) -> list[Node]:
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestTapeMemory:
    """A dropped step graph is freed by reference counting alone."""

    def model_and_batch(self):
        rng = np.random.default_rng(40)
        batch = make_batch(rng, batch=8)
        mean, sd = training_stats(batch)
        model = RelativeRanker(small_config(dropout=0.1), domains=batch.domain_ids,
                               arch_mean=mean, arch_sd=sd)
        return model, batch

    def test_training_step_leaves_no_cycle(self):
        model, batch = self.model_and_batch()
        gc.collect()
        gc.disable()
        try:
            out = model.distance(batch, train=True, rng=np.random.default_rng(0))
            loss = total_loss(ce_loss(out.delta, batch.labels), out.reconstruction, 0.5)
            nodes = tape_nodes(loss)
            reached = {id(n) for n in nodes}
            assert all(id(p) in reached for p in model.params.values())
            inner = [n for n in nodes if n._parents]
            assert all(n._grad is None for n in inner)  # the forward allocates no gradient
            del nodes, inner
            loss.backward()
            del out, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert any(np.any(p.grad != 0.0) for p in model.params.values())

    def test_eval_forward_leaves_no_cycle(self):
        model, batch = self.model_and_batch()
        gc.collect()
        gc.disable()
        try:
            out = model.distance(batch, train=False)
            assert all(n._grad is None for n in tape_nodes(out.delta))
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_untaped_eval_forward_leaves_no_tape_or_cycle(self):
        model, batch = self.model_and_batch()
        gc.collect()
        gc.disable()
        try:
            with no_grad():
                out = model.distance(batch)
            untaped = [out.delta, out.reconstruction]
            assert all(not n._parents and n._backward is None for n in untaped)
            del out, untaped
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_backward_releases_every_ruled_node(self):
        model, batch = self.model_and_batch()
        grads = []
        for release in (False, True):
            for p in model.params.values():
                p.grad = None
            out = model.distance(batch, train=True, rng=np.random.default_rng(0))
            loss = total_loss(ce_loss(out.delta, batch.labels), out.reconstruction, 0.5)
            ruled = [n for n in tape_nodes(loss) if n._backward is not None]
            if release:
                loss.backward()
            else:
                backward_keeping_tape(loss)
            grads.append({name: p.grad.copy() for name, p in model.params.items()})
        assert all(n._backward is None and not n._parents and n._grad is None for n in ruled)
        with pytest.raises(TapeReuseError):
            loss.backward()
        for name in model.params:
            np.testing.assert_array_equal(grads[1][name], grads[0][name])


def backward_keeping_tape(root: Node) -> None:
    """``Node.backward``'s walk and rule order without the release: the
    reference gradients."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    root._grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)


class TestNoGradForward:
    @pytest.mark.parametrize("kind", ["r2", "siamese"])
    @pytest.mark.parametrize("use_act", [False, True])
    def test_matches_the_taped_eval_forward_bitwise(self, kind, use_act):
        batch = make_batch(np.random.default_rng(44), batch=6)
        mean, sd = training_stats(batch)
        model = build_ranker(small_config(kind=kind, use_act=use_act, dropout=0.2),
                             domains=batch.domain_ids, arch_mean=mean, arch_sd=sd)
        model.distance(batch, train=True, rng=np.random.default_rng(1))  # move the statistics
        batch.domain_ids = batch.domain_ids[:-1] + [99]  # one domain unseen in training
        taped = model.distance(batch, eval_seed=5)
        with no_grad():
            untaped = model.distance(batch, eval_seed=5)
        assert taped.delta._backward is not None
        assert untaped.delta._backward is None and not untaped.delta._parents
        np.testing.assert_array_equal(untaped.delta.value, taped.delta.value)
        np.testing.assert_array_equal(untaped.probability, taped.probability)
