"""Ranking model: scoring semantics, hand-rolled backprop, training loop,
and the model file format."""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_bytes
from oracles import example_backward, example_forward, train_per_example
from placelink.features import CandidateFeatures, ContextVectors
from placelink.ranker import (
    MODEL_MAGIC,
    ModelCorruptError,
    ModelDimensionError,
    ModelFileError,
    ModelVersionError,
    RankerConfig,
    RankerModel,
    RankingExample,
    TrainingDivergedError,
    _dropout_mask,
    _pack_candidates,
    _predicted_slots,
    _segment_log_softmax,
    _single_window,
    _window,
    _window_backward,
    _window_forward,
    gradient_check,
    load_model,
    save_model,
    score_candidates,
    train,
)


def feat(
    country="FR",
    fclass="P",
    exact=0,
    min_edit=0.5,
    avg_edit=0.6,
    alt_log=0.3,
    pop_log=3.0,
    is_adm1=0,
    has_parent=0,
    shared=0.0,
) -> CandidateFeatures:
    return CandidateFeatures(
        min_edit_distance=min_edit,
        avg_edit_distance=avg_edit,
        exact_match_flag=exact,
        alt_name_count_log=alt_log,
        population_log=pop_log,
        is_adm1_of_other_toponym=is_adm1,
        has_adm1_parent_in_doc=has_parent,
        shared_country_fraction=shared,
        candidate_country=country,
        candidate_feature_class=fclass,
    )


def random_context(dim: int, rng: np.random.Generator) -> ContextVectors:
    return ContextVectors(
        mention_vector=rng.normal(size=dim),
        other_mentions_vector=rng.normal(size=dim),
        document_vector=rng.normal(size=dim),
    )


def tiny_model(dim=16, e=4, h=5, seed=0, **cfg_overrides) -> RankerModel:
    cfg = RankerConfig(embedding_dim=e, hidden_dim=h, seed=seed, **cfg_overrides)
    return RankerModel.initialize(["FR", "US"], ["P", "A"], provider_dim=dim, config=cfg)


def one_segment_log_softmax(q: np.ndarray) -> np.ndarray:
    """The kernel's segmented log-softmax on one segment whose last value is
    the abstention slot."""
    rows, null = _segment_log_softmax(
        q[:-1], q[-1], np.zeros(1, dtype=np.intp), np.zeros(len(q) - 1, dtype=np.intp)
    )
    return np.append(rows, null)


def kernel_pass(model: RankerModel, example: RankingExample):
    """Forward and backward of the packed kernel on a one-example window:
    (probabilities with the abstention slot last, loss, gradients)."""
    w = _single_window(model, example)
    cache = _window_forward(model, w, None)
    losses, grads = _window_backward(model, w, cache)
    probs = np.append(np.exp(cache["log_probs"]), np.exp(cache["log_null"]))
    return probs, float(losses[0]), grads


def separable_dataset(n=50, dim=16, seed=0) -> list[RankingExample]:
    """Gold is always the unique exact-match candidate."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        k = int(rng.integers(2, 5))
        gold = int(rng.integers(0, k))
        feats = [
            feat(
                exact=1 if j == gold else 0,
                min_edit=0.0 if j == gold else 0.5,
                country="FR" if j % 2 else "US",
                pop_log=float(rng.uniform(0, 7)),
            )
            for j in range(k)
        ]
        examples.append(
            RankingExample(features=feats, context=random_context(dim, rng), gold_slot=gold)
        )
    return examples


class TestRankerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"learning_rate": -0.1},
            {"embedding_dim": 0},
            {"hidden_dim": 0},
            {"learning_rate": float("nan")},
            {"multitask_country_weight": -1.0},
            {"score_mode": "softmax"},
            {"learning_rate": float("inf")},
            {"multitask_country_weight": float("nan")},
            {"multitask_country_weight": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RankerConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_size": 1.5}, {"epochs": True}, {"seed": 2.0}, {"score_mode": 1}],
    )
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises(TypeError):
            RankerConfig(**kwargs)

    def test_zero_learning_rate_allowed(self):
        assert RankerConfig(learning_rate=0.0).learning_rate == 0.0

    def test_default_training_settings(self):
        cfg = RankerConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.dropout, cfg.learning_rate) == (15, 60, 0.3, 0.4)


class TestModelInitialize:
    def test_vocabulary_layout(self):
        model = RankerModel.initialize(
            ["US", "FR", "US", ""], ["P", "A"], provider_dim=16, config=RankerConfig()
        )
        assert model.countries == ["<OOV>", "FR", "US"]
        assert model.feature_classes == ["<OOV>", "A", "P"]

    def test_unknown_codes_map_to_row_zero(self):
        model = tiny_model()
        assert model.country_row("ZZ") == 0
        assert model.country_row("") == 0
        assert model.country_row("FR") == 1
        assert model.fclass_row("?") == 0

    def test_parameter_shapes(self):
        model = tiny_model(dim=16, e=4, h=5)
        p = model.params
        assert p["country_emb"].shape == (3, 4)
        assert p["fclass_emb"].shape == (3, 4)
        assert p["context_proj"].shape == (4, 16)
        assert p["hidden_w"].shape == (5, 14)
        assert p["hidden_b"].shape == (5,)
        assert p["out_w"].shape == (5,)
        assert p["out_b"].shape == (1,)
        assert np.array_equal(p["null_bias"], np.zeros(1))

    def test_initialization_bounds(self):
        model = tiny_model(dim=16, e=4, h=5)
        assert np.max(np.abs(model.params["context_proj"])) <= 1 / np.sqrt(16)
        assert np.max(np.abs(model.params["hidden_w"])) <= 1 / np.sqrt(14)

    def test_seed_determinism(self):
        a, b = tiny_model(seed=5), tiny_model(seed=5)
        c = tiny_model(seed=6)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert not np.array_equal(a.params["hidden_w"], c.params["hidden_w"])

    def test_bad_provider_dim(self):
        with pytest.raises(ValueError):
            RankerModel.initialize(["FR"], ["P"], provider_dim=0, config=RankerConfig())


class TestScoring:
    def test_equal_scores_split_evenly(self):
        model = tiny_model()
        model.params["out_w"][:] = 0.0
        model.params["out_b"][:] = 0.0
        ctx = random_context(16, np.random.default_rng(0))
        scored = score_candidates(model, [feat()], ctx)
        assert scored.probabilities == pytest.approx([0.5, 0.5])
        assert scored.predicted_slot == 0  # tie goes to the lowest slot

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        model = tiny_model(seed=2)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            feats = [feat(pop_log=float(rng.uniform(0, 7))) for _ in range(n)]
            scored = score_candidates(model, feats, random_context(16, rng))
            assert abs(float(np.sum(scored.probabilities)) - 1.0) < 1e-9
            assert np.all((scored.probabilities >= 0) & (scored.probabilities <= 1))
            assert len(scored.probabilities) == n + 1
            assert scored.null_slot == n
            assert scored.predicted_slot == int(np.argmax(scored.probabilities))

    def test_duplicate_rows_score_identically(self):
        model = tiny_model()
        ctx = random_context(16, np.random.default_rng(3))
        row = feat(exact=1, country="US")
        scored = score_candidates(model, [row, feat(), row], ctx)
        assert scored.probabilities[0] == scored.probabilities[2]

    def test_permutation_equivariance(self):
        model = tiny_model(seed=4)
        ctx = random_context(16, np.random.default_rng(5))
        feats = [
            feat(country="FR", pop_log=1.0),
            feat(country="US", exact=1),
            feat(country="ZZ", fclass="A", pop_log=6.0),
            feat(shared=1.0),
        ]
        base = score_candidates(model, feats, ctx)
        perm = [2, 0, 3, 1]
        permuted = score_candidates(model, [feats[i] for i in perm], ctx)
        for new_pos, old_pos in enumerate(perm):
            assert permuted.probabilities[new_pos] == pytest.approx(
                base.probabilities[old_pos], abs=1e-12
            )
        assert permuted.probabilities[-1] == pytest.approx(base.probabilities[-1], abs=1e-12)

    def test_logit_shift_leaves_argmax_alone(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            q = rng.normal(size=int(rng.integers(2, 8)))
            shifted = one_segment_log_softmax(q + float(rng.uniform(-50, 50)))
            base = one_segment_log_softmax(q)
            assert int(np.argmax(shifted)) == int(np.argmax(base))

    def test_unseen_codes_share_the_oov_row(self):
        model = tiny_model()
        ctx = random_context(16, np.random.default_rng(7))
        a = score_candidates(model, [feat(country="ZZ", fclass="X")], ctx)
        b = score_candidates(model, [feat(country="QQ", fclass="Y")], ctx)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            score_candidates(tiny_model(), [], random_context(16, np.random.default_rng(0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelDimensionError):
            score_candidates(tiny_model(dim=16), [feat()], random_context(17, np.random.default_rng(0)))

    def test_non_finite_feature_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            score_candidates(model, [feat(pop_log=float("nan"))], random_context(16, np.random.default_rng(0)))

    def test_non_finite_parameter_rejected(self):
        # a NaN would otherwise give score = nan and an argmax of slot 0
        model = tiny_model()
        model.params["hidden_w"][0, 0] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            score_candidates(
                model, [feat(), feat(country="US")], random_context(16, np.random.default_rng(0))
            )

    def test_abstention_prediction(self):
        model = tiny_model()
        model.params["out_w"][:] = 0.0
        model.params["out_b"][:] = -5.0
        model.params["null_bias"][:] = 5.0
        scored = score_candidates(model, [feat(), feat(country="US")], random_context(16, np.random.default_rng(8)))
        assert scored.predicted_slot == scored.null_slot == 2
        assert scored.abstained

    def test_logit_mode_normalized(self):
        model = tiny_model(score_mode="logit")
        scored = score_candidates(model, [feat(), feat(exact=1)], random_context(16, np.random.default_rng(9)))
        assert float(np.sum(scored.probabilities)) == pytest.approx(1.0, abs=1e-9)


class TestPackedKernel:
    """The window kernel against the per-example oracle in tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        score_mode=st.sampled_from(["sigmoid", "logit"]),
        multitask=st.sampled_from([0.0, 0.5]),
        dropout=st.sampled_from([0.0, 0.3]),
        zero_oov_country=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_window_matches_per_example_oracle(
        self, counts, score_mode, multitask, dropout, zero_oov_country, seed, data
    ):
        model = tiny_model(
            dim=8,
            e=4,
            h=5,
            seed=seed,
            score_mode=score_mode,
            multitask_country_weight=multitask,
            dropout=dropout,
        )
        if zero_oov_country:
            model.params["country_emb"][0] = 0.0  # zero-norm embedding rows
        rng = np.random.default_rng(seed)
        examples = []
        for n in counts:
            feats = [
                feat(
                    country=str(rng.choice(["FR", "US", "ZZ"])),
                    fclass=str(rng.choice(["P", "A", "X"])),
                    exact=int(rng.integers(0, 2)),
                    min_edit=float(rng.uniform(0, 1)),
                    pop_log=float(rng.uniform(0, 7)),
                    shared=float(rng.uniform(0, 1)),
                )
                for _ in range(n)
            ]
            zero = data.draw(
                st.tuples(st.booleans(), st.booleans(), st.booleans()), label="zero context"
            )
            context = ContextVectors(*(np.zeros(8) if z else rng.normal(size=8) for z in zero))
            examples.append(
                RankingExample(
                    feats,
                    context,
                    gold_slot=data.draw(st.integers(0, n), label="gold slot"),
                    gold_country=data.draw(
                        st.sampled_from(["", "FR", "US", "ZZ"]), label="gold country"
                    ),
                )
            )
        order = data.draw(st.permutations(range(len(examples))), label="window order")

        oracle_rng = np.random.default_rng(seed + 1)
        oracle_losses, oracle_probs = [], []
        oracle_grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
        for i in order:
            ex = examples[i]
            cache = example_forward(model, ex.features, ex.context, training=True, rng=oracle_rng)
            loss, grads = example_backward(model, cache, ex.gold_slot, ex.gold_country)
            oracle_losses.append(loss)
            oracle_probs.append(cache["probs"])
            for name in oracle_grads:
                oracle_grads[name] += grads[name]

        w = _window(model, _pack_candidates(model, examples), examples, np.array(order))
        mask = _dropout_mask(model, np.random.default_rng(seed + 1), len(w.segment))
        cache = _window_forward(model, w, mask)
        losses, grads = _window_backward(model, w, cache)
        probs = np.split(np.exp(cache["log_probs"]), w.starts[1:])
        null_probs = np.exp(cache["log_null"])

        np.testing.assert_allclose(losses, oracle_losses, rtol=0, atol=1e-12)
        for b, expected in enumerate(oracle_probs):
            np.testing.assert_allclose(
                np.append(probs[b], null_probs[b]), expected, rtol=0, atol=1e-12
            )
        for name, expected in oracle_grads.items():
            np.testing.assert_allclose(grads[name], expected, rtol=0, atol=1e-12, err_msg=name)

    def test_argmax_ties_go_to_lowest_slot(self):
        model = tiny_model()
        model.params["out_w"][:] = 0.0
        model.params["out_b"][:] = 0.0
        ctx = random_context(16, np.random.default_rng(0))
        examples = [RankingExample([feat()] * n, ctx, gold_slot=0) for n in (3, 1, 2)]
        w = _window(model, _pack_candidates(model, examples), examples, np.arange(3))
        cache = _window_forward(model, w, None)
        # every candidate and the abstention slot score 0.5: all slots tie
        slots = _predicted_slots(np.exp(cache["log_probs"]), np.exp(cache["log_null"]), w)
        assert slots.tolist() == [0, 0, 0]
        # two candidates tie; a candidate ties the abstention slot; a NaN wins
        probs = np.array([0.2, 0.4, 0.4, 0.5, 0.1, float("nan")])
        null_probs = np.array([0.0, 0.5, 0.8])
        assert _predicted_slots(probs, null_probs, w).tolist() == [1, 0, 1]
        expected = [
            int(np.argmax(np.append(seg, null)))
            for seg, null in zip(np.split(probs, w.starts[1:]), null_probs)
        ]
        assert expected == [1, 0, 1]


class TestRankingExample:
    def test_gold_slot_bounds(self):
        ctx = random_context(16, np.random.default_rng(0))
        RankingExample(features=[feat()], context=ctx, gold_slot=1)  # null slot OK
        with pytest.raises(ValueError):
            RankingExample(features=[feat()], context=ctx, gold_slot=2)
        with pytest.raises(ValueError):
            RankingExample(features=[feat()], context=ctx, gold_slot=-1)

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            RankingExample(features=[], context=random_context(16, np.random.default_rng(0)), gold_slot=0)


class TestTraining:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_model(), [])

    def test_zero_learning_rate_is_a_noop(self):
        model = tiny_model(learning_rate=0.0, epochs=2)
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, separable_dataset(10))
        for name, arr in model.params.items():
            assert np.array_equal(arr, before[name])

    def test_same_seed_bitwise_identical(self):
        data = separable_dataset(30)
        a, _ = train(tiny_model(seed=1, epochs=4), data)
        b, _ = train(tiny_model(seed=1, epochs=4), data)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_separable_set_reaches_full_accuracy(self):
        data = separable_dataset(50)
        model, history = train(tiny_model(dim=16, e=8, h=16), data)
        assert len(history) == 15
        # history reads dropout-time accuracy, so score again without dropout
        slots = [score_candidates(model, ex.features, ex.context).predicted_slot for ex in data]
        assert slots == [ex.gold_slot for ex in data]

    def test_loss_non_increasing_after_warmup(self):
        data = separable_dataset(50)
        _, history = train(tiny_model(dim=16, e=8, h=16, dropout=0.0), data)
        losses = [s.train_loss for s in history]
        for prev, cur in zip(losses[3:], losses[4:]):
            assert cur <= prev + 1e-9

    def test_history_bookkeeping(self):
        _, history = train(tiny_model(epochs=3), separable_dataset(20))
        assert [s.epoch for s in history] == [1, 2, 3]
        for s in history:
            assert np.isfinite(s.train_loss) and s.train_loss > 0
            assert 0.0 <= s.train_accuracy <= 1.0

    def test_returns_the_same_object(self):
        model = tiny_model(epochs=1)
        trained, _ = train(model, separable_dataset(5))
        assert trained is model

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_loss_aborts(self):
        model = tiny_model(score_mode="logit", epochs=1)
        model.params["out_b"][0] = float("inf")
        with pytest.raises(TrainingDivergedError):
            train(model, separable_dataset(5))

    def test_dimension_mismatch_rejected(self):
        bad = separable_dataset(5, dim=17)
        with pytest.raises(ModelDimensionError):
            train(tiny_model(dim=16), bad)

    def test_trailing_partial_batch_still_updates(self):
        # 5 examples in batches of 2: the last window of each epoch holds one
        data = separable_dataset(5)
        packed, _ = train(tiny_model(seed=4, epochs=2, batch_size=2), data)
        oracle = tiny_model(seed=4, epochs=2, batch_size=2)
        train_per_example(oracle, data)
        for name in packed.params:
            np.testing.assert_allclose(
                packed.params[name], oracle.params[name], rtol=0, atol=1e-12, err_msg=name
            )

    def test_dropout_training_matches_per_example_loop(self):
        data = [
            RankingExample(
                ex.features,
                ex.context,
                gold_slot=len(ex.features) if i % 5 == 0 else ex.gold_slot,
                gold_country="FR" if i % 3 else "",
            )
            for i, ex in enumerate(separable_dataset(23))
        ]
        settings_ = dict(
            seed=7,
            epochs=2,
            dropout=0.3,
            batch_size=8,
            multitask_country_weight=0.3,
        )
        packed, history = train(tiny_model(**settings_), data)
        oracle = tiny_model(**settings_)
        oracle_losses, oracle_accuracies = train_per_example(oracle, data)
        for name in packed.params:
            np.testing.assert_allclose(
                packed.params[name], oracle.params[name], rtol=0, atol=1e-12, err_msg=name
            )
        assert [s.train_loss for s in history] == pytest.approx(oracle_losses, rel=0, abs=1e-12)
        assert [s.train_accuracy for s in history] == oracle_accuracies

    def test_multitask_head_changes_training(self):
        rng = np.random.default_rng(11)
        data = [
            RankingExample(
                features=[feat(country="FR"), feat(country="US")],
                context=random_context(16, rng),
                gold_slot=int(rng.integers(0, 2)),
                gold_country="FR",
            )
            for _ in range(12)
        ]
        plain, _ = train(tiny_model(seed=5, epochs=2), data)
        multi, history = train(
            tiny_model(seed=5, epochs=2, multitask_country_weight=0.5), data
        )
        assert all(np.isfinite(s.train_loss) for s in history)
        assert not np.array_equal(plain.params["country_emb"], multi.params["country_emb"])


class TestGradientCheck:
    def test_epsilon_bounds(self):
        model = tiny_model()
        example = RankingExample([feat()], random_context(16, np.random.default_rng(0)), 0)
        for eps in (1e-7, 1e-2):
            with pytest.raises(ValueError):
                gradient_check(model, example, epsilon=eps)

    @pytest.mark.parametrize(
        "e,h,cfg",
        [
            (4, 5, {}),
            (4, 5, {"score_mode": "logit"}),
            (4, 5, {"multitask_country_weight": 0.5}),
            (4, 5, {"score_mode": "logit", "multitask_country_weight": 0.5}),
            (7, 3, {}),
        ],
    )
    def test_analytic_matches_finite_differences(self, e, h, cfg):
        rng = np.random.default_rng(13)
        model = tiny_model(dim=8, e=e, h=h, seed=13, **cfg)
        feats = [feat(country="FR", exact=1), feat(country="US", fclass="A"), feat(country="ZZ")]
        example = RankingExample(
            features=feats,
            context=random_context(8, rng),
            gold_slot=1,
            gold_country="US",
        )
        assert gradient_check(model, example) < 1e-4

    def test_gold_null_slot(self):
        model = tiny_model(dim=8, e=4, h=5, seed=14)
        example = RankingExample(
            [feat(), feat(country="US")], random_context(8, np.random.default_rng(14)), gold_slot=2
        )
        assert gradient_check(model, example) < 1e-4

    def test_zero_context_vectors(self):
        # zero-norm cosines take the masked gradient path
        model = tiny_model(dim=8, e=4, h=5, seed=15)
        ctx = ContextVectors(np.zeros(8), np.zeros(8), np.zeros(8))
        example = RankingExample([feat(), feat(exact=1)], ctx, gold_slot=0)
        assert gradient_check(model, example) < 1e-4

    def test_null_bias_gradient_sign(self):
        model = tiny_model(dim=8, e=4, h=5)
        example = RankingExample(
            [feat()], random_context(8, np.random.default_rng(16)), gold_slot=1
        )
        probs, _, grads = kernel_pass(model, example)
        assert probs[1] < 1.0
        assert grads["null_bias"][0] < 0.0

    def test_saturated_example_has_vanishing_gradients(self):
        model = tiny_model(dim=8, e=4, h=5, score_mode="logit")
        model.params["out_w"][:] = 0.0
        model.params["out_b"][0] = 30.0
        example = RankingExample(
            [feat()], random_context(8, np.random.default_rng(17)), gold_slot=0
        )
        _, loss, grads = kernel_pass(model, example)
        assert loss < 1e-12
        assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-8


class TestModelFile:
    def make_trained(self, tmp_path):
        model, _ = train(tiny_model(epochs=2, seed=21), separable_dataset(10))
        model.metadata["provider_seed"] = 7
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        return model, path

    def test_round_trip_exact(self, tmp_path):
        model, path = self.make_trained(tmp_path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.countries == model.countries
        assert loaded.feature_classes == model.feature_classes
        assert loaded.provider_dim == model.provider_dim
        assert loaded.metadata == model.metadata
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_round_trip_scores_exactly(self, tmp_path):
        model, path = self.make_trained(tmp_path)
        loaded = load_model(path)
        ctx = random_context(16, np.random.default_rng(22))
        feats = [feat(exact=1), feat(country="US")]
        assert np.array_equal(
            score_candidates(model, feats, ctx).probabilities,
            score_candidates(loaded, feats, ctx).probabilities,
        )

    def test_save_is_deterministic(self, tmp_path):
        model, path = self.make_trained(tmp_path)
        other = str(tmp_path / "again.bin")
        save_model(model, other)
        assert open(path, "rb").read() == open(other, "rb").read()

    def test_truncated_file(self, tmp_path):
        _, path = self.make_trained(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ModelCorruptError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ModelCorruptError):
            load_model(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ModelCorruptError):
            load_model(str(path))

    @staticmethod
    def rewrite(path, edit_header=None, edit_payload=None):
        """Rewrite a model file with its JSON header and/or its parameter
        payload edited in place, keeping the file well-formed otherwise: the
        header padding, header length and checksum are recomputed."""
        blob = open(path, "rb").read()
        prefix = len(MODEL_MAGIC) + 12
        (header_len,) = struct.unpack_from("<I", blob, len(MODEL_MAGIC) + 4)
        header = json.loads(blob[prefix : prefix + header_len])
        payload = bytearray(blob[prefix + header_len :])
        if edit_header is not None:
            edit_header(header)
        if edit_payload is not None:
            edit_payload(payload)
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        header_bytes += b" " * (-(prefix + len(header_bytes)) % 8)
        body = header_bytes + bytes(payload)
        with open(path, "wb") as fh:
            fh.write(blob[: len(MODEL_MAGIC) + 4])
            fh.write(struct.pack("<II", len(header_bytes), zlib.crc32(body)))
            fh.write(body)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.__setitem__("provider_dim", h["provider_dim"] + 1),
            lambda h: h["countries"].append("XX"),
            lambda h: h["feature_classes"].pop(),
            lambda h: h["config"].__setitem__("embedding_dim", h["config"]["embedding_dim"] + 1),
            lambda h: h["config"].__setitem__("hidden_dim", h["config"]["hidden_dim"] - 1),
            lambda h: h["countries"].__setitem__(0, "AA"),
        ],
        ids=[
            "provider_dim",
            "extra-country",
            "missing-feature-class",
            "embedding_dim",
            "hidden_dim",
            "no-oov-row",
        ],
    )
    def test_header_disagrees_with_parameters(self, tmp_path, edit):
        _, path = self.make_trained(tmp_path)
        self.rewrite(path, edit_header=edit)
        with pytest.raises(ModelCorruptError):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", float("nan")),
            ("multitask_country_weight", float("inf")),
            ("batch_size", 1.5),
            ("epochs", True),
        ],
    )
    def test_header_config_value_refused(self, tmp_path, key, value):
        _, path = self.make_trained(tmp_path)
        self.rewrite(path, edit_header=lambda h: h["config"].__setitem__(key, value))
        with pytest.raises(ModelCorruptError):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            # json.loads reads both Infinity and 1e400 as float("inf")
            lambda h: h.__setitem__("provider_dim", float("inf")),
            lambda h: h.__setitem__("provider_dim", -float("inf")),
            lambda h: h.__setitem__("provider_dim", 16.5),
            lambda h: h["arrays"]["context_proj"].__setitem__("length", float("inf")),
            lambda h: h["arrays"]["country_emb"].__setitem__("length", 10**30),
        ],
        ids=["provider_dim-inf", "provider_dim-neg-inf", "provider_dim-float", "dim-inf", "dim-huge"],
    )
    def test_header_dimension_out_of_range(self, tmp_path, edit):
        _, path = self.make_trained(tmp_path)
        self.rewrite(path, edit_header=edit)
        with pytest.raises(ModelCorruptError):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("offset", [0, -8], ids=["first", "last"])
    def test_non_finite_parameter(self, tmp_path, value, offset):
        _, path = self.make_trained(tmp_path)

        def poison(payload):
            struct.pack_into("<d", payload, offset % len(payload), value)

        self.rewrite(path, edit_payload=poison)
        with pytest.raises(ModelCorruptError):
            load_model(path)

    @pytest.mark.parametrize("key", ["countries", "feature_classes"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_vocabulary_entry_not_a_string(self, tmp_path, key, value):
        # the vocabulary keeps its length, so only the type check can catch it
        _, path = self.make_trained(tmp_path)
        self.rewrite(path, edit_header=lambda h: h[key].__setitem__(-1, value))
        with pytest.raises(ModelCorruptError, match=key):
            load_model(path)

    @pytest.mark.parametrize("key", ["countries", "feature_classes"])
    def test_vocabulary_entry_repeated(self, tmp_path, key):
        # a repeated entry keeps the length, so the shapes still agree; the
        # last row would be unreachable and its twin scored with it
        _, path = self.make_trained(tmp_path)
        self.rewrite(path, edit_header=lambda h: h[key].__setitem__(-1, h[key][-2]))
        with pytest.raises(ModelCorruptError, match="distinct"):
            load_model(path)

    def test_version_two_file_is_refused(self, tmp_path):
        model, path = self.make_trained(tmp_path)
        # the version-2 layout: an unpadded header with a parameter manifest
        header = {
            "format_version": 2,
            "config": {**asdict(model.config), "use_population_feature": True},
            "provider_dim": model.provider_dim,
            "countries": model.countries,
            "feature_classes": model.feature_classes,
            "metadata": model.metadata,
            "params": [[name, list(array.shape)] for name, array in model.params.items()],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        payload = b"".join(array.astype("<f8").tobytes() for array in model.params.values())
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC + struct.pack("<III", 2, len(head), zlib.crc32(head + payload)))
            fh.write(head + payload)
        with pytest.raises(ModelVersionError, match="version 2"):
            load_model(path)

    def test_bumped_version(self, tmp_path):
        _, path = self.make_trained(tmp_path)
        data = bytearray(open(path, "rb").read())
        struct.pack_into("<I", data, len(MODEL_MAGIC), 999)
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelVersionError):
            load_model(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    model, _ = train(tiny_model(epochs=2, seed=21), separable_dataset(10))
    model.metadata["provider_seed"] = 7
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, str(path))
    return model, path.read_bytes()


def _same_model(a: RankerModel, b: RankerModel) -> bool:
    return (
        (a.config, a.provider_dim, a.countries, a.feature_classes, a.metadata)
        == (b.config, b.provider_dim, b.countries, b.feature_classes, b.metadata)
        and a.params.keys() == b.params.keys()
        and all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_model_loads_equal_or_raises(tmp_path_factory, saved_model, data):
    model, blob = saved_model
    path = tmp_path_factory.mktemp("flip") / "model.bin"
    path.write_bytes(damage_bytes(data, blob))
    try:
        loaded = load_model(str(path))
    except ModelFileError:
        return
    assert _same_model(loaded, model)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damage_behind_a_valid_checksum_raises_only_model_errors(
    tmp_path_factory, saved_model, data
):
    """With the checksum recomputed, damage reaches the header parser and the
    parameter checks: the file loads to a model or raises a ModelFileError
    subclass, never a bare exception."""
    _, blob = saved_model
    start = len(MODEL_MAGIC) + 12
    damaged = bytearray(blob[:start] + damage_bytes(data, blob[start:]))
    struct.pack_into("<I", damaged, len(MODEL_MAGIC) + 8, zlib.crc32(damaged[start:]))
    path = tmp_path_factory.mktemp("flip") / "model.bin"
    path.write_bytes(bytes(damaged))
    try:
        loaded = load_model(str(path))
    except ModelFileError:
        return
    assert isinstance(loaded, RankerModel)
