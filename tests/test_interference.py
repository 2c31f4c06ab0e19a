import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bornlab.interference import (
    BORN,
    COMBINATIONS,
    PathAmplitudes,
    ProbabilityRule,
    ProbabilityVector,
    epsilon,
    interference_term,
    interference_terms,
    rule_probability,
    sorkin,
    sorkin_curves,
)
from conftest import random_triple
from oracles import brute_force_interference, union_recursion_interference

finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestRuleProbability:
    def test_equal_amplitudes_pair(self):
        amps = PathAmplitudes([1, 1, 1])
        assert rule_probability(BORN, amps, "AB") == 4.0

    def test_orthogonal_pair(self):
        amps = PathAmplitudes([1, 1j, 0])
        assert rule_probability(BORN, amps, "AB") == 2.0

    def test_cubic_all_open(self):
        rule = ProbabilityRule(alpha=0.01)
        amps = PathAmplitudes([1, 1, 1])
        expected = 3.0**2 + 0.01 * 3.0**3
        assert rule_probability(rule, amps, "ABC") == pytest.approx(expected, rel=1e-14)

    def test_empty_subset_is_zero(self):
        assert rule_probability(BORN, PathAmplitudes([1, 2]), "") == 0.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule_probability(BORN, PathAmplitudes([1, 1]), "AA")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown path label"):
            rule_probability(BORN, PathAmplitudes([1, 1]), "C")

    def test_cubic_nonnegative_for_positive_alpha(self, rng):
        rule = ProbabilityRule(alpha=0.3)
        for _ in range(50):
            amps = PathAmplitudes(random_triple(rng))
            for combo in COMBINATIONS:
                subset = combo if combo != "0" else ""
                assert rule_probability(rule, amps, subset) >= 0.0


class TestTypes:
    def test_born_is_cubic_with_zero_alpha(self):
        assert BORN == ProbabilityRule(0.0)
        assert BORN.is_quadratic

    def test_amplitudes_need_two_paths(self):
        with pytest.raises(ValueError, match="between 2 and 8"):
            PathAmplitudes([1.0])

    def test_amplitudes_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PathAmplitudes([1.0, complex("nan")])

    def test_probability_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="pAB must be >= 0"):
            ProbabilityVector(0, 1, 1, 1, -0.5, 4, 4, 9)

    def test_probability_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="pABC must be finite"):
            ProbabilityVector(0, 1, 1, 1, 4, 4, 4, math.inf)

    def test_from_array_roundtrip(self):
        pv = ProbabilityVector(0, 1, 2, 3, 4, 5, 6, 7)
        assert ProbabilityVector.from_array(pv.array) == pv


class TestInterferenceTerm:
    def test_pair_in_phase(self):
        assert interference_term(BORN, PathAmplitudes([1, 1]), "AB") == 2.0

    def test_pair_out_of_phase(self):
        assert interference_term(BORN, PathAmplitudes([1, -1]), "AB") == -2.0

    def test_order_one_is_single_path_probability(self):
        amps = PathAmplitudes([2, 3j])
        assert interference_term(BORN, amps, "B") == 9.0

    def test_order_three_null(self, rng):
        for _ in range(200):
            amps = PathAmplitudes(random_triple(rng))
            scale = max(1.0, rule_probability(BORN, amps, "ABC"))
            assert abs(interference_term(BORN, amps, "ABC")) <= 1e-12 * scale

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_brute_force_oracle(self, rng, k):
        for _ in range(40):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            amps = PathAmplitudes([complex(v) for v in z])
            got = interference_term(BORN, amps, "ABCDE"[:k])
            want = brute_force_interference(z)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_union_recursion_oracle(self, rng, k):
        alpha = 0.05  # nonzero so the term itself is nonzero
        rule = ProbabilityRule(alpha)
        for _ in range(25):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            amps = PathAmplitudes([complex(v) for v in z])
            got = interference_term(rule, amps, "ABCD"[:k])
            want = union_recursion_interference(z, alpha)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_rows_match_one_set_at_a_time(self, rng, alpha):
        rule = ProbabilityRule(alpha)
        z = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        terms, probs = interference_terms(rule, z)
        assert terms.shape == (30,) and probs.shape == (30, 15)
        for row, term, p in zip(z, terms, probs):
            amps = PathAmplitudes([complex(v) for v in row])
            assert interference_term(rule, amps, "ABCD") == term
            # column m - 1 holds the subset of bitmask m: 5 = A and C
            assert p[4] == rule_probability(rule, amps, "AC")
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

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            interference_term(BORN, PathAmplitudes([1, 1, 1]), "ABA")

    def test_order_bound(self):
        amps = PathAmplitudes([1] * 8)
        with pytest.raises(ValueError, match="limited to 8"):
            interference_term(BORN, amps, "ABCDEFGHX"[:9])
        with pytest.raises(ValueError, match="at least one"):
            interference_term(BORN, amps, "")


class TestEpsilon:
    def test_born_null(self):
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes([1, 1, 1]))
        assert epsilon(pv) == 0.0

    def test_background_cancels_exactly(self):
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes([1, 1, 1]))
        assert epsilon(pv.shifted(0.5)) == 0.0

    def test_cubic_violation(self):
        pv = ProbabilityVector.from_rule(
            ProbabilityRule(0.01), PathAmplitudes([1, 1, 1])
        )
        expected = 9.27 - 3 * 4.08 + 3 * 1.01  # direct arithmetic
        assert epsilon(pv) == pytest.approx(expected, abs=1e-13)

    @given(st.lists(finite_complex, min_size=3, max_size=3))
    @example([0j, 976.62 + 0j, -966 + 0j])
    @settings(max_examples=300, deadline=None)
    def test_born_null_property(self, triple):
        # epsilon rounds at the scale of the largest probability, which
        # can be far above pABC when the paths cancel each other
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes(triple))
        assert abs(epsilon(pv)) <= 1e-12 * max(1.0, *pv.array)

    @given(
        st.lists(finite_complex, min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @example([0j, 65j, -64j], 0.5299999999999998)
    @settings(max_examples=200, deadline=None)
    def test_background_cancellation_property(self, triple, b):
        # the pairwise terms round at the scale of the largest probability,
        # which can be far above pABC when the paths cancel each other
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes(triple))
        shifted = pv.shifted(b)
        scale = max(1.0, b, *pv.array)
        assert abs(epsilon(shifted) - epsilon(pv)) <= 1e-12 * scale
        r0, r1 = sorkin(pv), sorkin(shifted)
        for attr in ("i_ab", "i_bc", "i_ca", "delta"):
            assert abs(getattr(r1, attr) - getattr(r0, attr)) <= 1e-12 * scale

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
        pv1 = ProbabilityVector.from_rule(BORN, PathAmplitudes(t1))
        pv2 = ProbabilityVector.from_rule(BORN, PathAmplitudes(t2))
        scale = max(1.0, *pv1.array, *pv2.array)
        assert abs(epsilon(pv1 + pv2) - (epsilon(pv1) + epsilon(pv2))) <= 1e-12 * scale


class TestSorkin:
    def test_equal_amplitudes(self):
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes([1, 1, 1]))
        res = sorkin(pv)
        assert res.delta == 6.0
        assert res.epsilon == 0.0
        assert res.rho == 0.0
        assert res.rho_defined
        assert (res.s_ab, res.s_bc, res.s_ca) == (1, 1, 1)

    def test_mixed_phase_amplitudes(self):
        pv = ProbabilityVector.from_rule(BORN, PathAmplitudes([1, 1j, 1]))
        res = sorkin(pv)
        assert (res.i_ab, res.i_bc, res.i_ca) == (0.0, 0.0, 2.0)
        assert res.delta == 2.0
        assert (res.s_ab, res.s_bc, res.s_ca) == (0, 0, 1)

    def test_cubic_rho(self):
        pv = ProbabilityVector.from_rule(
            ProbabilityRule(0.01), PathAmplitudes([1, 1, 1])
        )
        res = sorkin(pv)
        assert res.rho == pytest.approx(0.06 / 6.18, rel=1e-12)

    def test_delta_is_abs_sum(self, rng):
        for _ in range(100):
            pv = ProbabilityVector.from_rule(BORN, PathAmplitudes(random_triple(rng)))
            res = sorkin(pv)
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
        amps = PathAmplitudes([1, 1, 1])
        rhos = []
        for alpha in (1e-4, 1e-3, 1e-2):
            pv = ProbabilityVector.from_rule(ProbabilityRule(alpha), amps)
            res = sorkin(pv)
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

    def test_scalar_epsilon_matches_kernel_bitwise(self, rng):
        # magnitudes over 24 decades, so every partial sum rounds
        stack = 10.0 ** rng.uniform(-12.0, 12.0, size=(8, 20000))
        stack[:, :100] = np.round(stack[:, :100])  # some exact integers and zeros
        kernel = sorkin_curves(stack).epsilon
        scalar = np.array([epsilon(ProbabilityVector(*col)) for col in stack.T.tolist()])
        assert np.array_equal(scalar.view(np.int64), kernel.view(np.int64))

    def test_scalar_epsilon_of_integer_fields(self):
        # ints are summed as floats, as the kernel sums them: exact integer
        # sums would give 2**53 + 2 here
        pv = ProbabilityVector(0, 2**53, 1, 1, 0, 0, 0, 0)
        got = epsilon(pv)
        assert type(got) is float
        assert got == sorkin(pv).epsilon == 2.0**53

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            sorkin_curves(np.zeros((7, 4)))
        with pytest.raises(ValueError, match="guard"):
            sorkin_curves(np.zeros((8, 4)), guard=-1.0)
