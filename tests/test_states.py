import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catteleport.errors import ConsistencyError, NullState
from catteleport.states import (
    AtomLevel,
    CatSpec,
    TermState,
    cat_norm,
    cat_term_state,
    merge_terms,
    normalized,
    overlap,
    project_atom,
    state_overlap,
    term_norm,
)

from conftest import fock_overlap

amps = st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False)


class TestOverlap:
    def test_self_overlap_is_one(self):
        assert overlap(1.3 + 0.4j, 1.3 + 0.4j) == pytest.approx(1.0)

    def test_vacuum_self_overlap(self):
        assert overlap(0, 0) == pytest.approx(1.0)

    def test_opposite_unit_amplitudes(self):
        # frozen from the Fock-series oracle: <1|-1> = e^-2
        assert overlap(1, -1) == pytest.approx(math.exp(-2.0), abs=1e-14)
        assert fock_overlap(1, -1) == pytest.approx(math.exp(-2.0), abs=1e-13)

    @given(a=amps, b=amps)
    @settings(max_examples=200)
    def test_matches_fock_series_oracle(self, a, b):
        assert overlap(a, b) == pytest.approx(fock_overlap(a, b), abs=1e-10)

    @given(a=amps, b=amps)
    def test_conjugate_symmetry(self, a, b):
        assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate(), abs=1e-12)

    @given(a=amps, b=amps)
    def test_cauchy_schwarz(self, a, b):
        mag = abs(overlap(a, b))
        assert mag <= 1.0 + 1e-12
        if abs(a - b) > 1e-6:
            assert mag < 1.0


class TestCatNorm:
    def test_balanced_even_cat(self):
        spec = CatSpec(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0, 1)
        # sqrt(1 + e^-2), cross-checked against the Fock oracle
        expected = math.sqrt(1.0 + fock_overlap(1, -1).real)
        assert cat_norm(spec) == pytest.approx(expected, abs=1e-12)
        assert cat_norm(spec) == pytest.approx(1.0655211, abs=1e-6)

    def test_single_coherent_state(self):
        assert cat_norm(CatSpec(1.0, 0.0, 2.3 - 0.7j, 1)) == pytest.approx(1.0)

    def test_odd_vacuum_cat_is_null(self):
        with pytest.raises(NullState):
            cat_norm(CatSpec(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, -1))

    def test_coefficient_normalization_enforced(self):
        with pytest.raises(ValueError):
            CatSpec(1.0, 1.0, 1.0, 1)


class TestTermNorm:
    def test_single_term(self):
        state = TermState.from_tuples([(1.0, "g", 0.8, -0.3j)])
        assert term_norm(state) == pytest.approx(1.0)

    def test_normalized_cat_state_has_unit_norm(self):
        spec = CatSpec(1 / math.sqrt(2), 1 / math.sqrt(2), 1.7, 1)
        state = cat_term_state(spec, mode1_amp=0.9)
        assert term_norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_terms_sum_coherently(self):
        state = TermState.from_tuples(
            [(0.5, "g", 1.1, 0.2), (0.5, "g", 1.1, 0.2)]
        )
        assert term_norm(state) == pytest.approx(1.0, abs=1e-12)

    @given(data=st.lists(st.tuples(amps, st.sampled_from("ge"), amps, amps),
                         min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_permutation_invariance(self, data):
        state = TermState.from_tuples(data)
        rev = TermState.from_tuples(list(reversed(data)))
        assert term_norm(state) == pytest.approx(term_norm(rev), abs=1e-10)

    def test_merge_preserves_norm(self):
        data = [(0.3, "g", 1.0, 0.0), (0.4, "g", 1.0, 0.0), (0.2j, "e", -1.0, 0.5)]
        state = TermState.from_tuples(data)
        merged = merge_terms(state)
        assert len(merged.terms) == 2
        assert term_norm(merged) == pytest.approx(term_norm(state), abs=1e-12)

    def test_imaginary_residue_detection(self):
        # state_overlap of a state with itself is real by construction, so a
        # deliberately inconsistent bra/ket pair must not slip through term_norm
        good = TermState.from_tuples([(1.0, "g", 1.0, 0.0), (1j, "g", -1.0, 0.0)])
        n = term_norm(good)  # must not raise
        assert n > 0.0


class TestProjectAtom:
    def test_pure_ground_projection(self):
        state = TermState.from_tuples([(1.0, "g", 0.5, 0.1)])
        post, prob = project_atom(state, AtomLevel.G)
        assert prob == pytest.approx(1.0)
        assert term_norm(post) == pytest.approx(1.0)

    def test_balanced_atomic_superposition(self):
        inv = 1 / math.sqrt(2)
        state = TermState.from_tuples(
            [(inv, "g", 0.7, 0.0), (inv, "e", 0.7, 0.0)]
        )
        _, prob = project_atom(state, AtomLevel.E)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_missing_branch_raises(self):
        state = TermState.from_tuples([(1.0, "g", 0.0, 0.0)])
        with pytest.raises(NullState):
            project_atom(state, AtomLevel.E)

    def test_branch_within_rounding_noise_of_its_terms_is_null(self):
        # the e-branch of the protocol at phi + pi = 1.3e-10: its terms nearly
        # cancel, so the true n^2 is about 1e-20 and the computed one, 2.2e-16,
        # is rounding noise far above NULL_NORM_TOL^2
        w, v = 0.35065964635037467, -0.35065964635037467 + 4.294342134931292e-17j
        a, b = 1.5 + 1.8849540313011343e-10j, 1.3999999999623007 + 0.30000000017592904j
        state = TermState.from_tuples([(v, "e", 1.5, 1.4 + 0.3j), (w, "e", a, b),
                                       (v, "e", 1.5, -1.4 - 0.3j), (w, "e", a, -b),
                                       (1.0, "g", 1.5, 0.0)])
        with pytest.raises(NullState, match="'e' has zero norm"):
            project_atom(state, AtomLevel.E)

    @pytest.mark.parametrize("weight", [1e-6, 1e-13])
    def test_small_branch_above_its_rounding_noise_is_kept(self, weight):
        state = TermState.from_tuples([(weight, "e", 0.7, 1.0), (1.0, "g", 0.7, 1.0)])
        post, prob = project_atom(state, AtomLevel.E)
        assert prob == pytest.approx(weight ** 2, rel=1e-12)
        assert term_norm(post) == pytest.approx(1.0)

    @given(data=st.lists(st.tuples(amps, st.sampled_from("ge"), amps, amps),
                         min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_probabilities_sum_to_one(self, data):
        state = TermState.from_tuples(data)
        try:
            state = normalized(state)
        except NullState:
            return
        total = 0.0
        for outcome in (AtomLevel.G, AtomLevel.E):
            try:
                _, p = project_atom(state, outcome)
                total += p
            except NullState:
                pass
        assert total == pytest.approx(1.0, abs=1e-12)


def test_state_overlap_hermitian():
    a = TermState.from_tuples([(0.6, "g", 1.0, 0.0), (0.8, "e", 0.0, 1.0)])
    b = TermState.from_tuples([(1.0, "g", -1.0, 0.3)])
    assert state_overlap(a, b) == pytest.approx(state_overlap(b, a).conjugate())
