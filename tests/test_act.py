"""Window-transform layer tests.

The hard-index path (exact integer lookups plus the two-point window
identity from the curve module) is the oracle for every soft computation.
"""

from __future__ import annotations

import numpy as np
import pytest

from necurve.act import (
    MASK_LITERAL,
    MASK_STRICT,
    ActLayer,
    NumericGuardError,
    WindowVariables,
    admissible_rows,
    augmented_values,
    df1_variables,
    df2_count_mask,
    df2_indicator,
    df2_transform,
    df2_value_mask,
    df3_variables,
    export_indicator,
    hard_index_select,
    hard_indicator,
    soft_indicator,
    window_size_admissible,
    window_transform,
)
from necurve.autodiff import DomainError, Node, grad_check_params
from necurve.curves import LearningCurve, WindowSpec, wne_from_lne
from necurve.layers import LstmCell


def hardening_variables(rng, length, margin=0.3):
    """Random variables whose admissible argmax has a clear margin."""
    matrix = rng.uniform(0.01, 0.5, size=(length, length))
    for col in range(length):
        matrix[rng.integers(0, col + 1), col] = rng.uniform(0.5 + margin, 0.95)
    return matrix


class TestSoftIndicator:
    def test_gamma_one_unmasked_is_plain_softmax(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.01, 0.99, size=(6, 6))
        out = soft_indicator(a, gamma=1.0, mask=np.ones((6, 6))).matrix.value
        e = np.exp(a - a.max(axis=0))
        np.testing.assert_allclose(out, e / e.sum(axis=0), rtol=1e-12)

    def test_columns_stochastic_all_modes(self):
        rng = np.random.default_rng(2)
        for mode in (MASK_STRICT, MASK_LITERAL):
            for gamma in (1.0, 0.5, 0.05, 0.005):
                for _ in range(20):
                    length = int(rng.integers(2, 12))
                    a = rng.uniform(0.01, 0.99, size=(length, length))
                    k = soft_indicator(a, gamma, mode).matrix.value
                    np.testing.assert_allclose(k.sum(axis=0), np.ones(length), atol=1e-9)
                    assert np.all(k >= 0)

    def test_strict_mode_zeroes_inadmissible_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            length = int(rng.integers(2, 15))
            a = rng.uniform(0.01, 0.99, size=(length, length))
            k = soft_indicator(a, 0.05, MASK_STRICT).matrix.value
            for t in range(1, length + 1):
                assert np.all(k[t:, t - 1] == 0.0)

    def test_literal_mode_leaks_into_inadmissible_rows(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.01, 0.99, size=(8, 8))
        k = soft_indicator(a, 1.0, MASK_LITERAL).matrix.value
        assert k[3:, 0].sum() > 0.0  # rows at/after the position keep weight

    def test_hardening_to_one_hot(self):
        # per-column argmax margin >= 0.1 and gamma 1e-3: within 1e-6 of hard
        rng = np.random.default_rng(5)
        for _ in range(20):
            length = int(rng.integers(2, 12))
            a = hardening_variables(rng, length, margin=0.1)
            soft = soft_indicator(a, 1e-3, MASK_STRICT).matrix.value
            masked = np.where(admissible_rows(length) > 0, a, -np.inf)
            hard = np.zeros_like(a)
            hard[masked.argmax(axis=0), np.arange(length)] = 1.0
            assert np.max(np.abs(soft - hard)) <= 1e-6

    def test_entropy_monotone_in_gamma(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(0.01, 0.99, size=(10, 10))
            entropies = []
            for gamma in (0.5, 0.1, 0.05, 0.005):
                k = soft_indicator(a, gamma, MASK_STRICT).matrix.value
                with np.errstate(divide="ignore", invalid="ignore"):
                    h = -np.where(k > 0, k * np.log(k), 0.0).sum(axis=0)
                entropies.append(h.max())
            assert all(x >= y - 1e-12 for x, y in zip(entropies, entropies[1:]))

    def test_gamma_domain(self):
        a = np.full((3, 3), 0.5)
        for gamma in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                soft_indicator(a, gamma)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            soft_indicator(np.ones((2, 3)) * 0.5)
        with pytest.raises(ValueError):
            soft_indicator(np.full((3, 3), 0.5), mask_mode="other")


class TestWindowTransform:
    def test_mass_at_origin_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            length = int(rng.integers(2, 30))
            y = rng.uniform(0.2, 1.5, size=length)
            k = hard_indicator(length, np.zeros(length, dtype=int))
            z = window_transform(y, soft_indicator_from_matrix(k)).value
            np.testing.assert_allclose(z, y, rtol=1e-12)

    def test_mass_at_previous_position(self):
        y = np.array([0.6, 0.5, 0.4])
        k = hard_indicator(3, [0, 1, 2])
        z = window_transform(y, soft_indicator_from_matrix(k)).value
        np.testing.assert_allclose(z, [0.6, 0.4, 0.2], rtol=1e-12)

    def test_arbitrary_hard_index_matches_two_point_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            length = int(rng.integers(2, 25))
            y = rng.uniform(0.2, 1.5, size=length)
            curve = LearningCurve(values=y, example_counts=np.arange(1, length + 1))
            indices = np.array([rng.integers(0, t) for t in range(1, length + 1)])
            z = window_transform(
                y, soft_indicator_from_matrix(hard_indicator(length, indices))
            ).value
            for t in range(1, length + 1):
                k = int(indices[t - 1])
                expected = wne_from_lne(curve, WindowSpec(t=t, d=t - k))
                assert z[t - 1] == pytest.approx(expected, abs=1e-12)

    def test_soft_hard_consistency_when_concentrated(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            length = int(rng.integers(2, 12))
            y = rng.uniform(0.2, 1.5, size=length)
            a = hardening_variables(rng, length)
            indicator = soft_indicator(a, 1e-4, MASK_STRICT)
            k = indicator.matrix.value
            assert np.all(k.max(axis=0) >= 1 - 1e-9)
            hard_idx = k.argmax(axis=0)
            curve = LearningCurve(values=y, example_counts=np.arange(1, length + 1))
            soft_z = window_transform(y, indicator).value
            for t in range(1, length + 1):
                hard = wne_from_lne(curve, WindowSpec(t=t, d=t - int(hard_idx[t - 1])))
                assert soft_z[t - 1] == pytest.approx(hard, abs=1e-6)

    def test_causality_under_strict_mask(self):
        rng = np.random.default_rng(10)
        length = 12
        a = rng.uniform(0.01, 0.99, size=(length, length))
        indicator = soft_indicator(a, 0.05, MASK_STRICT)
        y = rng.uniform(0.2, 1.5, size=length)
        base = window_transform(y, indicator).value
        for t in range(1, length):
            bumped = y.copy()
            bumped[t:] += rng.uniform(0.1, 1.0, size=length - t)
            out = window_transform(bumped, soft_indicator(a, 0.05, MASK_STRICT)).value
            np.testing.assert_array_equal(out[:t], base[:t])

    def test_batch_matches_per_curve(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.01, 0.99, size=(9, 9))
        indicator = soft_indicator(a, 0.05)
        batch = rng.uniform(0.2, 1.5, size=(5, 9))
        z = window_transform(batch, indicator).value
        for b in range(5):
            single = window_transform(batch[b], soft_indicator(a, 0.05)).value
            np.testing.assert_allclose(z[b], single, rtol=1e-12)

    def test_numeric_guard_in_literal_mode(self):
        # at gamma 1 the leaked weight drags the soft index past the position
        rng = np.random.default_rng(12)
        a = rng.uniform(0.01, 0.99, size=(40, 40))
        indicator = soft_indicator(a, 1.0, MASK_LITERAL)
        with pytest.raises(NumericGuardError):
            window_transform(rng.uniform(0.2, 1.5, size=40), indicator)

    def test_length_mismatch(self):
        a = np.full((4, 4), 0.5)
        with pytest.raises(ValueError):
            window_transform(np.ones(5), soft_indicator(a))

    def test_gradient_reaches_variables(self):
        rng = np.random.default_rng(13)
        length = 6
        y = rng.uniform(0.2, 1.5, size=(3, length))
        w = rng.normal(size=(3, length))
        params = {"a": Node(rng.uniform(0.05, 0.95, size=(length, length)))}

        def build():
            return (window_transform(y, soft_indicator(params["a"], 0.1)) * w).sum()

        assert grad_check_params(build, params) <= 1e-4
        params["a"].grad = np.zeros_like(params["a"].value)
        params["a"]._spent = False
        build().backward()
        assert np.any(params["a"].grad != 0.0)


def soft_indicator_from_matrix(matrix: np.ndarray):
    """Wrap an exact indicator matrix without softmax reprocessing."""
    from necurve.act import SoftIndicator

    return SoftIndicator(matrix=Node(matrix), gamma=0.0, mask_mode=MASK_STRICT)


class TestHardIndexSelect:
    def test_identity_indices(self):
        y = np.array([0.9, 0.7, 0.5, 0.3])
        np.testing.assert_array_equal(hard_index_select(y, [1, 2, 3, 4]), y)

    def test_origin_indices(self):
        y = np.array([0.9, 0.7, 0.5])
        np.testing.assert_array_equal(hard_index_select(y, [0, 0, 0]), np.zeros(3))

    def test_frozen_example(self):
        np.testing.assert_array_equal(
            hard_index_select(np.array([0.6, 0.5, 0.4]), [0, 1, 1]), [0.0, 0.6, 0.6]
        )

    def test_matches_indicator_selection(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            length = int(rng.integers(2, 20))
            y = rng.uniform(0.2, 1.5, size=length)
            indices = np.array([rng.integers(0, t) for t in range(1, length + 1)])
            via_matrix = hard_indicator(length, indices).T @ augmented_values(y)
            np.testing.assert_allclose(
                hard_index_select(y, indices), via_matrix, rtol=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            hard_index_select(np.ones(3), [0, 3, 0])
        with pytest.raises(DomainError):
            hard_index_select(np.ones(3), [-1, 0, 0])


class TestDf1Variables:
    def test_min_window_peaks(self):
        v = df1_variables(10, "min-window", seed=0)
        assert v.tag == "DF1"
        masked = np.where(admissible_rows(10) > 0, v.matrix, -np.inf)
        np.testing.assert_array_equal(masked.argmax(axis=0), np.arange(10))

    def test_max_window_peaks(self):
        v = df1_variables(10, "max-window", seed=0)
        np.testing.assert_array_equal(v.matrix.argmax(axis=0), np.zeros(10))

    def test_margin_and_range(self):
        for seed in range(5):
            for mode in ("min-window", "max-window"):
                m = df1_variables(20, mode, seed).matrix
                assert np.all(m > 0) and np.all(m < 1)
                peaks = np.sort(m, axis=0)[-1]
                runners = np.sort(m, axis=0)[-2]
                assert np.all(peaks - runners >= 0.2 - 1e-12)

    def test_max_window_small_gamma_is_identity(self):
        v = df1_variables(8, "max-window", seed=1)
        y = np.linspace(1.0, 0.4, 8)
        z = window_transform(y, soft_indicator(v, 1e-3)).value
        np.testing.assert_allclose(z, y, atol=1e-6)

    def test_min_window_small_gamma_recovers_steps(self):
        v = df1_variables(3, "min-window", seed=2)
        z = window_transform(np.array([0.6, 0.5, 0.4]), soft_indicator(v, 1e-3)).value
        np.testing.assert_allclose(z, [0.6, 0.4, 0.2], atol=1e-6)

    def test_seed_determinism(self):
        a = df1_variables(12, "min-window", 7).matrix
        b = df1_variables(12, "min-window", 7).matrix
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            df1_variables(3, "other", 0)

    def test_window_variables_range_validation(self):
        with pytest.raises(ValueError):
            WindowVariables(matrix=np.array([[0.5, 1.0], [0.2, 0.3]]), tag="DF1")


class TestDf2:
    def test_count_mask_frozen(self):
        np.testing.assert_array_equal(
            df2_count_mask(3), [[0, 1, 2], [0, 0, 1], [0, 0, 0]]
        )

    def test_value_mask_frozen(self):
        y = np.array([0.6, 0.5, 0.4])
        np.testing.assert_array_equal(
            df2_value_mask(y), [[0, 0.6, 0.5], [0, 0, 0.6], [0, 0, 0]]
        )

    def test_hard_window_recovery_exhaustive(self):
        # every fixed window size, every length <= 6: mask algebra equals
        # the directly constructed left indices and selected values
        rng = np.random.default_rng(15)
        for length in range(1, 7):
            y = rng.uniform(0.2, 1.5, size=length)
            m_t, m_y = df2_count_mask(length), df2_value_mask(y)
            for j in range(1, length + 1):
                hard = np.zeros((length, length))
                for t in range(1, length + 1):
                    hard[min(j, t) - 1, t - 1] = 1.0  # clamp to the full prefix
                k_vec = (hard * m_t).sum(axis=0)
                y_vec = (hard * m_y).sum(axis=0)
                for t in range(1, length + 1):
                    expected_k = t - j if t >= j else 0
                    assert k_vec[t - 1] == expected_k
                    assert y_vec[t - 1] == (0.0 if expected_k == 0 else y[expected_k - 1])

    def test_columns_identical(self):
        alpha = Node(np.random.default_rng(16).uniform(0.1, 0.9, size=5))
        tiled = df2_indicator(alpha, gamma=1.0, mask_mode=MASK_LITERAL)
        # with the literal mask off the diagonal structure, check raw tiling
        # through the indicator of an all-admissible variant instead
        full = df2_indicator(alpha, gamma=1.0, mask_mode=MASK_STRICT).matrix.value
        assert tiled.matrix.shape == (5, 5)
        admissible = window_size_admissible(5)
        for t in range(5):
            on = admissible[:, t] > 0
            ref = np.exp(alpha.value[on])
            np.testing.assert_allclose(full[on, t], ref / ref.sum(), rtol=1e-9)

    def test_sharpened_window_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            length = int(rng.integers(2, 8))
            j = int(rng.integers(1, length + 1))
            alpha = rng.uniform(0.05, 0.45, size=length)
            alpha[j - 1] = rng.uniform(0.8, 0.95)
            y = rng.uniform(0.2, 1.5, size=length)
            z = df2_transform(y, Node(alpha), gamma=1e-4).value
            curve = LearningCurve(values=y, example_counts=np.arange(1, length + 1))
            for t in range(1, length + 1):
                # the admissible argmax: j once it fits, otherwise whichever
                # admissible entry of alpha is largest
                d = j if t >= j else int(alpha[:t].argmax()) + 1
                expected = wne_from_lne(curve, WindowSpec(t=t, d=d))
                assert z[t - 1] == pytest.approx(expected, abs=1e-6)

    def test_causality_given_fixed_variables(self):
        rng = np.random.default_rng(18)
        length = 10
        alpha = rng.uniform(0.1, 0.9, size=length)
        y = rng.uniform(0.2, 1.5, size=length)
        base = df2_transform(y, Node(alpha)).value
        for t in range(1, length):
            bumped = y.copy()
            bumped[t:] += 0.5
            out = df2_transform(bumped, Node(alpha)).value
            np.testing.assert_array_equal(out[:t], base[:t])


class TestDf3:
    def _cell(self, length, seed, zero=False):
        params = {}
        cell = LstmCell(params, "rnn", 1, length, np.random.default_rng(seed))
        if zero:
            for node in params.values():
                node.value = np.zeros_like(node.value)
        return cell, params

    def test_zero_weights_give_uniform_columns(self):
        length = 6
        cell, _ = self._cell(length, 0, zero=True)
        v = df3_variables(np.linspace(1.0, 0.5, length), cell)
        assert v.tag == "DF3"
        np.testing.assert_allclose(v.matrix, np.full((length, length), 0.5), rtol=1e-12)
        k = soft_indicator(v, 0.05).matrix.value
        for t in range(1, length + 1):
            np.testing.assert_allclose(k[:t, t - 1], np.full(t, 1.0 / t), rtol=1e-9)

    def test_causality_of_variables(self):
        length = 8
        cell, _ = self._cell(length, 1)
        y = np.random.default_rng(2).uniform(0.2, 1.5, size=length)
        base = df3_variables(y, cell).matrix
        for t in range(1, length):
            bumped = y.copy()
            bumped[t:] += 1.0
            out = df3_variables(bumped, cell).matrix
            np.testing.assert_array_equal(out[:, :t], base[:, :t])

    def test_hidden_size_must_match(self):
        cell, _ = self._cell(4, 0)
        with pytest.raises(ValueError):
            df3_variables(np.ones(6), cell)


class TestActLayer:
    def test_df1_batch_matches_manual_composition(self):
        rng = np.random.default_rng(19)
        params = {}
        layer = ActLayer(params, length=7, df=1, gamma=0.05, seed=3)
        curves = rng.uniform(0.2, 1.5, size=(4, 7))
        z = layer.transform(curves).value
        manual = window_transform(
            curves, soft_indicator(params["act.window"], 0.05)
        ).value
        np.testing.assert_allclose(z, manual, rtol=1e-12)

    def test_df3_batch_matches_per_curve_composition(self):
        rng = np.random.default_rng(20)
        params = {}
        layer = ActLayer(params, length=6, df=3, gamma=0.05, seed=4)
        curves = rng.uniform(0.2, 1.5, size=(5, 6))
        z = layer.transform(curves).value
        for b in range(5):
            variables = df3_variables(curves[b], layer.cell)
            single = window_transform(curves[b], soft_indicator(variables, 0.05)).value
            np.testing.assert_allclose(z[b], single, rtol=1e-9)

    def test_df2_batch_matches_per_curve_composition(self):
        rng = np.random.default_rng(21)
        params = {}
        layer = ActLayer(params, length=6, df=2, gamma=0.05, seed=5)
        curves = rng.uniform(0.2, 1.5, size=(5, 6))
        z = layer.transform(curves).value
        for b in range(5):
            alphas = layer._alphas(curves[b : b + 1])  # (L, 1, L)
            alpha = Node(alphas.value[-1, 0])
            single = df2_transform(curves[b], alpha, gamma=0.05).value
            np.testing.assert_allclose(z[b], single, rtol=1e-9)

    @pytest.mark.parametrize("df", [1, 2, 3])
    def test_gradients_flow_to_parameters(self, df):
        rng = np.random.default_rng(22)
        params = {}
        layer = ActLayer(params, length=5, df=df, gamma=0.1, seed=6)
        curves = rng.uniform(0.2, 1.5, size=(3, 5))
        w = rng.normal(size=(3, 5))

        def build():
            return (layer.transform(curves) * w).sum()

        assert grad_check_params(build, params, eps=1e-5) <= 1e-4
        for p in params.values():
            p.grad = np.zeros_like(p.value)
            p._spent = False
        build().backward()
        assert any(np.any(p.grad != 0.0) for p in params.values())

    def test_rejects_bad_df_and_shapes(self):
        with pytest.raises(ValueError):
            ActLayer({}, length=5, df=4)
        layer = ActLayer({}, length=5, df=1)
        with pytest.raises(ValueError):
            layer.transform(np.ones((2, 6)))

    def test_indicator_for_df_modes(self):
        rng = np.random.default_rng(23)
        curve = rng.uniform(0.2, 1.5, size=6)
        for df in (1, 2, 3):
            layer = ActLayer({}, length=6, df=df, seed=7)
            k = layer.indicator_for(curve)
            np.testing.assert_allclose(k.sum(axis=0), np.ones(6), atol=1e-9)
            assert np.all(np.tril(k, -1)[1:, :-1] >= 0)  # shape sanity
            for t in range(1, 7):
                assert np.all(k[t:, t - 1] == 0.0)


class TestExportIndicator:
    def test_max_init_argmax_row_zero(self):
        data = export_indicator(length=8, gamma=0.05, init_mode="max-window", seed=0)
        k = np.array(data["indicator"])
        np.testing.assert_array_equal(k.argmax(axis=0), np.zeros(8))
        assert np.array(data["variables"]).shape == (8, 8)

    def test_min_init_argmax_diagonal(self):
        data = export_indicator(length=8, gamma=0.05, init_mode="min-window", seed=0)
        k = np.array(data["indicator"])
        np.testing.assert_array_equal(k.argmax(axis=0), np.arange(8))
