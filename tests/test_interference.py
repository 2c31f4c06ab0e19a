import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bornlab.interference import (
    BORN,
    ProbabilityRule,
    ProbabilityVector,
    interference_terms,
    sorkin,
    sorkin_curves,
)
from conftest import combination_probabilities, random_triple
from oracles import brute_force_interference, union_recursion_interference

finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def vector(rule, amps, background=0.0):
    """ProbabilityVector of one amplitude triple."""
    return ProbabilityVector.from_array(
        combination_probabilities(rule, amps, background)[:, 0])


class TestSubsetProbabilities:
    # column m - 1 of interference_terms' probabilities holds the subset
    # of bitmask m: 3 = AB, 5 = AC, 7 = ABC
    def test_equal_amplitudes_pair(self):
        assert interference_terms(BORN, [[1, 1, 1]])[1][0, 2] == 4.0

    def test_orthogonal_pair(self):
        assert interference_terms(BORN, [[1, 1j, 0]])[1][0, 2] == 2.0

    def test_cubic_all_open(self):
        rule = ProbabilityRule(alpha=0.01)
        expected = 3.0**2 + 0.01 * 3.0**3
        got = interference_terms(rule, [[1, 1, 1]])[1][0, 6]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_cubic_nonnegative_for_positive_alpha(self, rng):
        z = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        assert np.all(interference_terms(ProbabilityRule(alpha=0.3), z)[1] >= 0.0)


class TestTypes:
    def test_born_is_cubic_with_zero_alpha(self):
        assert BORN == ProbabilityRule(0.0)
        assert BORN.is_quadratic

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="pAB must be >= 0"):
            ProbabilityVector(0, 1, 1, 1, -0.5, 4, 4, 9)

    def test_probability_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="pABC must be finite"):
            ProbabilityVector(0, 1, 1, 1, 4, 4, 4, math.inf)

    def test_from_array_roundtrip(self):
        pv = ProbabilityVector(0, 1, 2, 3, 4, 5, 6, 7)
        assert ProbabilityVector.from_array(pv.array) == pv


class TestInterferenceTerms:
    def test_pair_in_phase(self):
        assert interference_terms(BORN, [[1, 1]])[0][0] == 2.0

    def test_pair_out_of_phase(self):
        assert interference_terms(BORN, [[1, -1]])[0][0] == -2.0

    def test_order_one_is_single_path_probability(self):
        assert interference_terms(BORN, [[3j]])[0][0] == 9.0

    def test_order_three_null(self, rng):
        z = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        terms, probs = interference_terms(BORN, z)
        assert np.all(np.abs(terms) <= 1e-12 * np.maximum(1.0, probs[:, 6]))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_brute_force_oracle(self, rng, k):
        z = rng.standard_normal((40, k)) + 1j * rng.standard_normal((40, k))
        for got, row in zip(interference_terms(BORN, z)[0], z):
            want = brute_force_interference(row)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_union_recursion_oracle(self, rng, k):
        alpha = 0.05  # nonzero so the term itself is nonzero
        z = rng.standard_normal((25, k)) + 1j * rng.standard_normal((25, k))
        for got, row in zip(interference_terms(ProbabilityRule(alpha), z)[0], z):
            assert got == pytest.approx(union_recursion_interference(row, alpha), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_rows_match_one_set_at_a_time(self, rng, alpha):
        rule = ProbabilityRule(alpha)
        z = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        terms, probs = interference_terms(rule, z)
        assert terms.shape == (30,) and probs.shape == (30, 15)
        for row, term, p in zip(z, terms, probs):
            alone_terms, alone_probs = interference_terms(rule, row[None])
            assert alone_terms[0] == term
            assert np.array_equal(alone_probs[0], p)
            # column m - 1 holds the subset of bitmask m: 5 = A and C
            assert p[4] == rule.probability(row[0] + row[2])
        with pytest.raises(ValueError, match="shape"):
            interference_terms(rule, z[0])

    @pytest.mark.parametrize("k", [3, 4, 5])
    @seed(20240811)
    @settings(max_examples=300, deadline=None)
    @given(paths=st.lists(
        st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi)),
        min_size=5, max_size=5))
    def test_born_sum_rule_property(self, k, paths):
        # the order-k term of the quadratic rule is zero up to rounding at
        # the scale of the largest subset probability P, for path
        # magnitudes 10**-6 .. 10**6; the bound 2**k ulp was fixed before
        # sampling.  Rounding argument, with u = eps / 2 and "ulp" meaning
        # eps * P: the exact sum is 0.  A subset's paths are added in path
        # order, so each partial amplitude sum is a subset's amplitude, of
        # modulus <= sqrt(P), and each addition is off by <= u sqrt(P);
        # re*re + im*im adds <= 2 u P.  So p_S is off by <= 2 |S| u P to
        # first order, k 2**(k-1) ulp over all subsets, plus one rounding
        # per accumulated term at the scale of a partial sum (after the
        # subsets of the first j paths, their order-j term).  That worst
        # case (12, 32, 80 ulp for k = 3, 4, 5) is above the bound: the
        # bound rests on the terms' errors having unrelated signs, which
        # add like a random walk.  Measured: 200,000 uniform draws per k
        # gave at most 4.1, 7.2 and 9.4 ulp, and a hill climb from 4,000
        # starts per k at most 4.7, 7.9 and 10.6, so 2**k ulp (8, 16, 32)
        # keeps a margin of 1.7x or more
        z = np.array([10.0**e * complex(math.cos(t), math.sin(t))
                      for e, t in paths[:k]])
        total, probs = interference_terms(BORN, z.reshape(1, k))
        assert abs(total[0]) <= 2**k * np.finfo(float).eps * np.max(probs)

    def test_order_bound(self):
        assert interference_terms(BORN, np.ones((1, 8)))[0][0] == 0.0
        for k in (0, 9):
            with pytest.raises(ValueError, match=r"order must lie in \[1, 8\]"):
                interference_terms(BORN, np.ones((1, k)))


class TestEpsilon:
    def test_born_null(self):
        assert sorkin(vector(BORN, [1, 1, 1])).epsilon == 0.0

    def test_background_cancels_exactly(self):
        assert sorkin(vector(BORN, [1, 1, 1], 0.5)).epsilon == 0.0

    def test_cubic_violation(self):
        expected = 9.27 - 3 * 4.08 + 3 * 1.01  # direct arithmetic
        got = sorkin(vector(ProbabilityRule(0.01), [1, 1, 1])).epsilon
        assert got == pytest.approx(expected, abs=1e-13)

    @given(st.lists(finite_complex, min_size=3, max_size=3))
    @example([0j, 976.62 + 0j, -966 + 0j])
    @settings(max_examples=300, deadline=None)
    def test_born_null_property(self, triple):
        # epsilon rounds at the scale M = max(1, largest probability), which
        # can be far above pABC when the paths cancel each other.  With
        # u = 2**-53: every partial sum of a subset's amplitudes is itself
        # a subset's amplitude, of modulus <= sqrt(M), so its two additions
        # err by <= 2u sqrt(M) and re**2 + im**2 by <= 4uM + 2uM; the
        # seven additions of epsilon, whose partial sums stay within 3M,
        # add <= 21uM.  Exact epsilon is 0, so |epsilon| <= 7 * 6uM + 21uM
        # < 1e-14 M to first order, over 100x below the bound.
        p = combination_probabilities(BORN, triple)
        assert abs(sorkin_curves(p).epsilon[0]) <= 1e-12 * max(1.0, *p[:, 0])

    @given(
        st.lists(finite_complex, min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @example([0j, 65j, -64j], 0.5299999999999998)
    @settings(max_examples=200, deadline=None)
    def test_background_cancellation_property(self, triple, b):
        # the pairwise terms round at the scale S = max(1, b, largest
        # probability), which can be far above pABC when the paths cancel
        # each other.  With u = 2**-53: the coefficients of epsilon and of
        # each i_xy sum to 0, so b cancels exactly and only rounding is
        # left.  Each shifted entry errs by <= 2uS, and partial sums stay
        # within 6S: epsilon differs by <= 8 * 2uS + 7 * 6uS + 21uS (the
        # unshifted error, see test_born_null_property) < 9e-15 S, each
        # i_xy by <= 4 * 2uS + 3 * 4uS + 3 * 2uS, and delta, their three
        # moduli summed twice, by <= 3 * 26uS + 4 * 6uS < 1.2e-14 S to
        # first order: about 90x below the bound.
        p = combination_probabilities(BORN, triple)
        scale = max(1.0, b, *p[:, 0])
        r0, r1 = sorkin_curves(p), sorkin_curves(p + b)
        for attr in ("epsilon", "i_ab", "i_bc", "i_ca", "delta"):
            assert abs(getattr(r1, attr)[0] - getattr(r0, attr)[0]) <= 1e-12 * scale

    @given(
        st.lists(finite_complex, min_size=3, max_size=3),
        st.lists(finite_complex, min_size=3, max_size=3),
    )
    @example([0j, 512.3098030755565j, -510.85933937923056j],
             [0.33 - 1.3j, 0.91 + 0.45j, -0.54 + 0.58j])
    @settings(max_examples=200, deadline=None)
    def test_linearity_property(self, t1, t2):
        # epsilon is linear, so only rounding is left: the eight sums of
        # entries and the seven additions of each epsilon round at the scale
        # M of the largest entry of either vector, which can be far above
        # both pABC when the paths cancel each other; together they err by
        # less than 300 * 2**-53 * M
        p1 = combination_probabilities(BORN, t1)
        p2 = combination_probabilities(BORN, t2)
        scale = max(1.0, *p1[:, 0], *p2[:, 0])
        eps1, eps2, eps12 = (sorkin_curves(p).epsilon[0] for p in (p1, p2, p1 + p2))
        assert abs(eps12 - (eps1 + eps2)) <= 1e-12 * scale


class TestSorkin:
    def test_equal_amplitudes(self):
        res = sorkin(vector(BORN, [1, 1, 1]))
        assert res.delta == 6.0
        assert res.epsilon == 0.0
        assert res.rho == 0.0
        assert res.rho_defined
        assert (res.s_ab, res.s_bc, res.s_ca) == (1, 1, 1)

    def test_mixed_phase_amplitudes(self):
        res = sorkin(vector(BORN, [1, 1j, 1]))
        assert (res.i_ab, res.i_bc, res.i_ca) == (0.0, 0.0, 2.0)
        assert res.delta == 2.0
        assert (res.s_ab, res.s_bc, res.s_ca) == (0, 0, 1)

    def test_cubic_rho(self):
        res = sorkin(vector(ProbabilityRule(0.01), [1, 1, 1]))
        assert res.rho == pytest.approx(0.06 / 6.18, rel=1e-12)

    def test_delta_is_abs_sum(self, rng):
        for _ in range(100):
            res = sorkin(vector(BORN, random_triple(rng)))
            assert res.delta == abs(res.i_ab) + abs(res.i_bc) + abs(res.i_ca)
            assert res.s_ab == np.sign(res.i_ab)

    def test_guard_flags_exactly_small_delta(self):
        # delta = 0: all entries equal
        res = sorkin(ProbabilityVector.from_array([1.0] * 8))
        assert not res.rho_defined
        assert math.isnan(res.rho)
        # at the guard boundary rho is defined
        pv = ProbabilityVector(0, 1, 1, 1, 2 + 0.5e-9, 2 + 0.5e-9, 2, 9)
        res2 = sorkin(pv, guard=1e-9)
        assert res2.rho_defined == (res2.delta >= 1e-9)
        assert res2.rho_defined
        # 0 < delta < guard with epsilon far from 0: no huge ratio
        res3 = sorkin(ProbabilityVector(0, 1, 1, 1, 2 + 0.25e-9, 2, 2, 9), guard=1e-9)
        assert 0.0 < res3.delta < 1e-9 and res3.epsilon > 5.0
        assert not res3.rho_defined
        assert math.isnan(res3.rho)

    def test_guard_must_be_positive(self):
        pv = ProbabilityVector.from_array([1.0] * 8)
        with pytest.raises(ValueError, match="guard"):
            sorkin(pv, guard=0.0)

    def test_rho_monotone_in_alpha(self):
        rhos = []
        for alpha in (1e-4, 1e-3, 1e-2):
            res = sorkin(vector(ProbabilityRule(alpha), [1, 1, 1]))
            # direct arithmetic oracle
            p1 = 1 + alpha
            p2 = 4 + 8 * alpha
            p3 = 9 + 27 * alpha
            eps = p3 - 3 * p2 + 3 * p1
            delta = 3 * (p2 - 2 * p1)
            assert res.rho == pytest.approx(eps / delta, rel=1e-12)
            assert res.epsilon != 0.0
            rhos.append(res.rho)
        assert rhos[0] < rhos[1] < rhos[2]


class TestSorkinCurves:
    def test_matches_scalar_exactly(self, rng):
        stack = rng.uniform(0.0, 5.0, size=(8, 64))
        curves = sorkin_curves(stack, guard=1e-9)
        for i in range(stack.shape[1]):
            res = sorkin(ProbabilityVector.from_array(stack[:, i]), guard=1e-9)
            # Python scalars, which the manifest's JSON writer encodes as numbers
            types = [type(getattr(res, f)) for f in ("epsilon", "rho_defined", "s_ab")]
            assert types == [float, bool, int]
            assert curves.epsilon[i] == res.epsilon
            assert curves.delta[i] == res.delta
            assert curves.i_ab[i] == res.i_ab
            assert curves.i_bc[i] == res.i_bc
            assert curves.i_ca[i] == res.i_ca
            assert curves.rho_defined[i] == res.rho_defined
            if res.rho_defined:
                assert curves.rho[i] == res.rho
            else:
                assert math.isnan(curves.rho[i])

    def test_scalar_epsilon_of_integer_fields(self):
        # ints are summed as floats, as the kernel sums them: exact integer
        # sums would give 2**53 + 2 here
        got = sorkin(ProbabilityVector(0, 2**53, 1, 1, 0, 0, 0, 0)).epsilon
        assert type(got) is float
        assert got == 2.0**53

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            sorkin_curves(np.zeros((7, 4)))
        with pytest.raises(ValueError, match="guard"):
            sorkin_curves(np.zeros((8, 4)), guard=-1.0)
