"""Feature computation: edit distances, string/coherence features, context
vectors, and the hashed bag-of-words provider."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry_store, make_entry
from oracles import banded_edit_distance, coherence_features, dp_edit_distance
from placelink.features import (
    CandidateFeatures,
    ContextVectors,
    bounded_edit_distance,
    candidate_features,
    edit_distance,
    hashed_bow_provider,
    string_features,
    summarize_candidates,
)
from placelink.index import query

_text = st.text(max_size=12)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("paris", "paris") == 0

    def test_known_pairs(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("springfield", "springfeild") == 2

    def test_empty_sides(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3
        assert edit_distance("", "") == 0

    @given(_text, _text)
    def test_matches_full_matrix_oracle(self, a, b):
        assert edit_distance(a, b) == dp_edit_distance(a, b)

    @given(_text, _text)
    def test_symmetric_and_zero_iff_equal(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert (d == 0) == (a == b)

    @given(_text, _text, _text)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestBoundedEditDistance:
    @given(_text, _text, st.integers(min_value=0, max_value=4))
    def test_agrees_with_unbounded_within_bound(self, a, b, bound):
        true = dp_edit_distance(a, b)
        got = bounded_edit_distance(a, b, bound)
        if true <= bound:
            assert got == true
        else:
            assert got is None

    def test_length_difference_pruning(self):
        assert bounded_edit_distance("ab", "abcdefgh", 2) is None

    def test_zero_bound(self):
        assert bounded_edit_distance("same", "same", 0) == 0
        assert bounded_edit_distance("same", "sane", 0) is None


_ALPHABET = "abcdeéèüß -"


@st.composite
def _near_pairs(draw):
    """A string (short, or beyond one 64-bit word) and a copy of it with up to
    four random edits, or an unrelated string."""
    a = draw(st.one_of(st.text(_ALPHABET, max_size=8), st.text(_ALPHABET, min_size=60, max_size=100)))
    if draw(st.booleans()):
        return a, draw(st.text(_ALPHABET, max_size=len(a) + 3))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("sub", "ins", "del")))
        pos = draw(st.integers(0, len(b)))
        ch = draw(st.sampled_from(_ALPHABET))
        if op == "ins":
            b.insert(pos, ch)
        elif b:
            pos = min(pos, len(b) - 1)
            if op == "sub":
                b[pos] = ch
            else:
                del b[pos]
    return a, "".join(b)


class TestBitParallelKernel:
    @settings(max_examples=300, deadline=None)
    @given(pair=_near_pairs(), bound=st.integers(min_value=0, max_value=3))
    def test_both_functions_match_full_matrix_oracle(self, pair, bound):
        for a, b in (pair, pair[::-1]):
            true = dp_edit_distance(a, b)
            assert edit_distance(a, b) == true
            want = true if true <= bound else None
            assert bounded_edit_distance(a, b, bound) == want
            assert banded_edit_distance(a, b, bound) == want

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_empty_strings(self, bound):
        assert bounded_edit_distance("", "", bound) == 0
        assert bounded_edit_distance("", "abc", bound) == (3 if bound >= 3 else None)
        assert bounded_edit_distance("ab", "", bound) == (2 if bound >= 2 else None)
        assert edit_distance("", "ßé") == 2

    def test_across_the_word_boundary(self):
        a = "é" * 64 + "paris"
        assert edit_distance(a, a[:-1]) == 1
        assert bounded_edit_distance(a, "e" + a[1:], 1) == 1
        assert bounded_edit_distance(a, "ee" + a[2:] + "x", 2) is None
        assert edit_distance(a, "") == 69


class TestStringFeatures:
    def test_exact_single_name(self):
        entry = make_entry(1, "Paris")
        assert string_features("paris", entry) == (0.0, 0.0, 1)

    def test_exact_with_distant_alternate(self):
        entry = make_entry(1, "Paris", alternates=("Lutetia",))
        d = dp_edit_distance("paris", "lutetia")
        min_e, avg_e, exact = string_features("paris", entry)
        assert exact == 1
        assert min_e == 0.0
        assert avg_e == pytest.approx((0.0 + d / 7) / 2)

    def test_total_mismatch(self):
        entry = make_entry(1, "y")
        assert string_features("x", entry) == (1.0, 1.0, 0)

    def test_no_usable_names(self):
        entry = make_entry(1, "", ascii_name="")
        assert string_features("paris", entry) == (1.0, 1.0, 0)

    def test_normalization_applied_to_names(self):
        entry = make_entry(1, "  PARIS  ")
        assert string_features("paris", entry)[2] == 1

    @given(
        st.text(alphabet="abcdefg ", min_size=1, max_size=10),
        st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=10), min_size=1, max_size=4),
    )
    def test_min_never_exceeds_avg(self, query_text, names):
        entry = make_entry(1, names[0], alternates=tuple(names[1:]))
        min_e, avg_e, _ = string_features(query_text.strip() or "a", entry)
        assert min_e <= avg_e + 1e-12
        assert 0.0 <= min_e <= 1.0


class TestCoherenceFeatures:
    def test_adm1_parent_detected(self, mini_index, mini_tables):
        austin = entry_store(mini_index)[7]
        others = [query(mini_index, "Texas")]
        is_adm1, has_parent, shared = coherence_features(austin, others, mini_tables)
        assert has_parent == 1
        assert is_adm1 == 0
        assert shared == 1.0  # the Texas set has US candidates

    def test_adm1_of_other_detected(self, mini_index, mini_tables):
        texas = entry_store(mini_index)[5]
        others = [query(mini_index, "Austin")]
        is_adm1, has_parent, _ = coherence_features(texas, others, mini_tables)
        assert is_adm1 == 1

    def test_containment_is_proper(self, mini_index, mini_tables):
        # the other toponym's only (US, TX) candidate is the ADM1 entry itself
        texas = entry_store(mini_index)[5]
        others = [query(mini_index, "Texas")]
        is_adm1, _, _ = coherence_features(texas, others, mini_tables)
        assert is_adm1 == 0

    def test_single_toponym_document(self, mini_index, mini_tables):
        paris = entry_store(mini_index)[2]
        assert coherence_features(paris, [], mini_tables) == (0, 0, 0.0)

    def test_shared_country_fraction_counting(self, mini_index, mini_tables):
        washington = entry_store(mini_index)[8]
        others = [
            query(mini_index, "Austin"),      # US candidates
            query(mini_index, "Springfield"), # US candidates
            query(mini_index, "France"),      # no US candidate
        ]
        _, _, shared = coherence_features(washington, others, mini_tables)
        assert shared == pytest.approx(2 / 3)

    @settings(max_examples=30)
    @given(st.permutations(["Austin", "Springfield", "France", "Paris"]))
    def test_invariant_to_other_set_order(self, mini_index, mini_tables, order):
        washington = entry_store(mini_index)[8]
        others = [query(mini_index, name) for name in order]
        baseline = [query(mini_index, name) for name in sorted(order)]
        assert coherence_features(washington, others, mini_tables) == coherence_features(
            washington, baseline, mini_tables
        )


class TestCandidateFeaturesAssembly:
    def test_field_arithmetic(self, mini_index, mini_tables):
        paris_fr = entry_store(mini_index)[2]
        summaries = [summarize_candidates(query(mini_index, "France"))]
        feats = candidate_features("paris", paris_fr, summaries, mini_tables)
        assert isinstance(feats, CandidateFeatures)
        assert feats.exact_match_flag == 1
        assert feats.alt_name_count_log == pytest.approx(np.log10(2))
        assert feats.population_log == pytest.approx(np.log10(2_138_551 + 1))
        assert feats.candidate_country == "FR"
        assert feats.candidate_feature_class == "P"
        assert feats.shared_country_fraction == 1.0

    def test_fractions_and_flags_in_range(self, mini_index, mini_tables):
        summaries = [summarize_candidates(query(mini_index, "Texas"))]
        for entry in mini_index.entries():
            feats = candidate_features("paris", entry, summaries, mini_tables)
            assert 0.0 <= feats.min_edit_distance <= 1.0
            assert 0.0 <= feats.avg_edit_distance <= 1.0
            assert feats.exact_match_flag in (0, 1)
            assert feats.is_adm1_of_other_toponym in (0, 1)
            assert feats.has_adm1_parent_in_doc in (0, 1)
            assert 0.0 <= feats.shared_country_fraction <= 1.0


class TestContextVectors:
    def test_dimension_property(self):
        v = np.zeros(16)
        ctx = ContextVectors(v, v.copy(), v.copy())
        assert ctx.dimension == 16

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ContextVectors(np.zeros(16), np.zeros(17), np.zeros(16))

    def test_non_finite_rejected(self):
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            ContextVectors(np.zeros(16), bad, np.zeros(16))

    def test_matrix_rejected(self):
        with pytest.raises(ValueError):
            ContextVectors(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))


class TestHashedBowProvider:
    def test_minimum_dimension_enforced(self):
        with pytest.raises(ValueError):
            hashed_bow_provider(8, seed=0)
        assert hashed_bow_provider(16, seed=0).dimension == 16

    def test_deterministic_across_instances(self):
        a = hashed_bow_provider(64, seed=3)
        b = hashed_bow_provider(64, seed=3)
        text = "The war in Ukraine reached Donetsk."
        assert np.array_equal(a.embed_document(text), b.embed_document(text))
        assert np.array_equal(a.embed_span(text, (23, 30)), b.embed_span(text, (23, 30)))

    def test_seed_changes_vectors(self):
        text = "ukraine war donetsk luhansk kyiv"
        a = hashed_bow_provider(64, seed=0).embed_document(text)
        b = hashed_bow_provider(64, seed=1).embed_document(text)
        assert not np.array_equal(a, b)

    def test_empty_document_is_zero_vector(self):
        provider = hashed_bow_provider(32, seed=0)
        assert np.array_equal(provider.embed_document(""), np.zeros(32))
        assert np.array_equal(provider.embed_document("   ..."), np.zeros(32))

    def test_nonempty_vectors_unit_norm(self):
        provider = hashed_bow_provider(32, seed=0)
        for text in ("paris", "paris texas", "a b c d e f g"):
            assert np.linalg.norm(provider.embed_document(text)) == pytest.approx(1.0)

    def test_case_insensitive(self):
        provider = hashed_bow_provider(64, seed=0)
        assert np.array_equal(
            provider.embed_document("PARIS France"), provider.embed_document("paris france")
        )

    def test_span_vector_includes_character_ngrams(self):
        provider = hashed_bow_provider(256, seed=0)
        text = "Paris"
        span_vec = provider.embed_span(text, (0, 5))
        doc_vec = provider.embed_document(text)
        assert not np.array_equal(span_vec, doc_vec)

    def test_topically_close_documents_score_higher(self):
        provider = hashed_bow_provider(256, seed=0)
        anchor = provider.embed_document("ukraine war donetsk")
        near = provider.embed_document("ukraine war luhansk")
        far = provider.embed_document("texas county fair")
        assert float(anchor @ near) > float(anchor @ far)
