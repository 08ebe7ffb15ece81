"""Certification module: inequalities, combinatorics, fuzzing."""

import itertools
import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest

from privsel.core import (
    RECURSION_SPLIT, LossInstance, MechanismConstants, generate_instance, loss_scale,
)
from privsel.queries import eval_expr
from privsel.verify import (
    Verdict, appendix_grid, check_good_subset_rate, derived_rounds_ceil_log,
    point_checks, sensitivity_fuzz, subset_event_mc, subset_event_probability,
    subset_event_probability_dp, subset_event_probability_enum,
    _random_family_expr,
)

SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)


def dominance_ratio(result) -> float:
    """The lhs/rhs ratio of the two scale values, read from the result's note."""
    key, _, value = result.note.partition("=")
    assert key == "ratio"
    return float(value)


class TestScaleDominance:
    def test_holds_at_corner(self):
        res = point_checks(1000, 1.0, 0.001)[0]
        assert res.verdict is Verdict.PASS
        assert 36 < dominance_ratio(res) < 45
        # margin = 1 - 36 / ratio, so the same window reads (0, 0.2)
        assert 0 < res.margin < 0.2

    def test_holds_far_inside(self):
        assert point_checks(10**6, 0.01, 1e-9)[0].verdict is Verdict.PASS

    def test_ratio_independent_of_rho(self):
        ratios = [dominance_ratio(point_checks(1000, rho, 5e-4)[0])
                  for rho in (0.01, 1.0, 100.0)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)

    def test_domain_errors(self):
        for bad in ((999, 1.0, 0.001), (1000, 1.0, 0.002), (1000, 1.0, 0.0),
                    (1000, 0.0, 0.001)):
            with pytest.raises(ValueError):
                point_checks(*bad)

    def test_order_of_the_three_checks(self):
        assert [r.claim for r in point_checks(1000, 1.0, 1e-3)] == \
            ["scale_dominance", "error_recursion", "gap_margin"]


class TestRecursionInequalities:
    def test_error_recursion_points(self):
        assert point_checks(1000, 1.0, 0.0005)[1].verdict is Verdict.PASS
        assert point_checks(4096, 1.0, 1e-6)[1].verdict is Verdict.PASS

    def test_gap_margin_points(self):
        assert point_checks(1000, 1.0, 0.0005)[2].verdict is Verdict.PASS
        assert point_checks(10**5, 10.0, 1e-4)[2].verdict is Verdict.PASS

    def test_gap_margin_left_side_positive(self):
        # implied by the 36x dominance slack
        for k in (1000, 5000, 10**5):
            res = point_checks(k, 1.0, 1e-3)[2]
            assert res.verdict is Verdict.PASS and res.margin > 0

    def test_integer_k_required(self):
        # a real K, as in the scale function's own domain, is not a grid point
        for k in (1000.5, 1234.5, 1000.0):
            with pytest.raises(ValueError, match="integer"):
                point_checks(k, 1.0, 0.0005)

    def test_log_space_matches_exact_t_materialization(self):
        # materialize T = ceil(2**(3*sqrt(K)-1)) exactly and take its ceil-log
        for k in (1000, 1100, 1200):
            with mpmath.workprec(400):
                x = 3 * mpmath.sqrt(k) - 1
                t_exact = int(mpmath.ceil(mpmath.power(2, x)))
            direct = max(t_exact - 1, 0).bit_length()  # ceil(log2(t_exact))
            assert derived_rounds_ceil_log(k)[0] == direct

    def test_float_split_is_the_certified_rational(self):
        # the grid's mpmath splits are the exact 4/5 and 1/5, the mechanism's a float
        assert RECURSION_SPLIT == 4 / 5
        assert 1.0 - RECURSION_SPLIT == 0.19999999999999996

    def test_exact_integer_exponent_flagged(self):
        # perfect squares make 3*sqrt(K) - 1 an exact integer
        value, flagged = derived_rounds_ceil_log(10**6)
        assert (value, flagged) == (2999, True)
        value, flagged = derived_rounds_ceil_log(1024)
        assert (value, flagged) == (95, True)
        value, flagged = derived_rounds_ceil_log(1000)
        assert (value, flagged) == (94, False)


class TestAppendixGrid:
    def test_small_slice_all_pass(self):
        results = appendix_grid(ks=(1000, 10**4), betas=(1e-3, 1e-5), rhos=(1.0,))
        assert len(results) == 12
        assert all(r.verdict is Verdict.PASS for r in results)

    def test_deterministic(self):
        a = appendix_grid(ks=(2000,), betas=(1e-4,), rhos=(0.01, 100.0))
        b = appendix_grid(ks=(2000,), betas=(1e-4,), rhos=(0.01, 100.0))
        assert a == b

    @pytest.mark.parametrize("consts", [MechanismConstants(), SCALED,
                                        MechanismConstants(c_xi=50.0, p_xi=3)])
    def test_matches_per_point_checks(self, consts):
        # 1024 = 32**2 makes the round-count exponent an exact integer
        ks, betas, rhos = (1000, 1024, 10**5), (1e-3, 3.2768e-4, 1e-9), (1e-2, 1.0, 1e2)
        expected = []
        for k in ks:
            for beta in betas:
                for rho in rhos:
                    expected.extend(point_checks(k, rho, beta, consts))
        got = appendix_grid(consts, ks=ks, betas=betas, rhos=rhos)
        assert len(got) == len(expected) == 81
        for g, e in zip(got, expected):
            assert (g.claim, g.params, g.verdict, g.note) == \
                (e.claim, e.params, e.verdict, e.note)
            assert g.margin == e.margin


def enum_per_element(k, i_star, k_star):
    """Reference enumeration: classify every subset element by element."""
    n, size = 1 << k, 1 << (k - k_star)
    top, blocked_hi = 1 << i_star, 1 << k_star
    hits = 0
    for subset in itertools.combinations(range(n), size):
        top_hits = 0
        ok = True
        for y in subset:
            if y < top:
                top_hits += 1
                if top_hits > 1:
                    ok = False
                    break
            elif y < blocked_hi:
                ok = False
                break
        if ok and top_hits == 1:
            hits += 1
    return Fraction(hits, comb(n, size))


class TestSubsetEventProbability:
    def test_worked_value(self):
        assert subset_event_probability(4, 1, 3) == Fraction(16, 120)

    def test_single_draw_hits_top_block(self):
        for k in (3, 5, 8):
            for i_star in range(k):
                assert subset_event_probability(k, i_star, k) == \
                    Fraction(2**i_star, 2**k)

    def test_dp_matches_closed_form_small(self):
        for k in range(1, 5):
            for k_star in range(1, k + 1):
                for i_star in range(k_star):
                    assert subset_event_probability(k, i_star, k_star) == \
                        subset_event_probability_dp(k, i_star, k_star)

    def test_enumeration_matches(self):
        assert subset_event_probability_enum(6, 2, 4) == subset_event_probability(6, 2, 4)
        assert subset_event_probability_enum(4, 1, 3) == Fraction(16, 120)

    def test_enumeration_matches_per_element_reference(self):
        cases = [(k, i_star, k_star) for k in range(1, 17) for k_star in range(1, k + 1)
                 if comb(1 << k, 1 << (k - k_star)) <= 10**5
                 for i_star in range(k_star)]
        assert (16, 0, 16) in cases and (1, 0, 1) in cases and (8, 3, 7) in cases
        for case in cases:
            assert subset_event_probability_enum(*case) == enum_per_element(*case), case

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            subset_event_probability_enum(6, 0, 1)  # C(64, 32) subsets

    def test_beyond_exact_limit_raises(self):
        assert isinstance(subset_event_probability(20, 3, 8), Fraction)
        for k in (21, 22):
            with pytest.raises(ValueError, match="k <= 20"):
                subset_event_probability(k, 3, 8)

    def test_monte_carlo_agrees(self):
        target = float(subset_event_probability(16, 2, 6))
        draws = 10**5
        freq = subset_event_mc(16, 2, 6, draws, seed=11)
        se = math.sqrt(target * (1 - target) / draws)
        assert abs(freq - target) <= 3 * se

    def test_domain(self):
        for bad in ((4, 3, 3), (4, -1, 2), (4, 1, 5), (0, 0, 1)):
            with pytest.raises(ValueError):
                subset_event_probability(*bad)


class TestGoodSubsetRate:
    def test_gapped_instance_rate_is_optimum_hit_rate(self):
        # huge gap, small scale unit: the event is exactly "subset contains
        # the optimum", whose probability is (1 - 2**-K)/K
        k = 8
        inst = generate_instance("gapped", 1 << k, 1e9, seed=0)
        emp, bound = check_good_subset_rate(k, inst, SCALED, rho=1.0, beta=0.1,
                                            trials=10**5, seed=2)
        expect = (1 - 2.0**-k) / k
        se = math.sqrt(expect * (1 - expect) / 10**5)
        assert emp == pytest.approx(expect, abs=3 * se)
        assert emp >= bound - 3 * se

    def test_forced_k_isolates_single_draw_case(self):
        # top block of 8 at loss 0, all others above K*xi: with the subset
        # size forced to 1, the event is exactly a top-block hit
        k = 8
        xi_value = loss_scale(k, 1.0, 0.1, SCALED)
        losses = np.full(1 << k, math.ceil(k * xi_value) + 100.0)
        losses[:8] = 0.0
        emp, _ = check_good_subset_rate(k, LossInstance(losses), SCALED, rho=1.0,
                                        beta=0.1, trials=10**5, seed=3, force_k=k)
        expect = 8 / (1 << k)
        se = math.sqrt(expect * (1 - expect) / 10**5)
        assert emp == pytest.approx(expect, abs=3 * se)

    def test_layered_instance_beats_analytic_bound(self):
        trials = 10**6
        inst = generate_instance("layered", 1 << 16, 3.0, seed=0)
        emp, bound = check_good_subset_rate(16, inst, SCALED, rho=1.0, beta=0.1,
                                            trials=trials, seed=4)
        se = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        assert emp >= bound - 3 * se

    def test_deterministic_given_seed(self):
        inst = generate_instance("layered", 64, 2.0, seed=1)
        a = check_good_subset_rate(6, inst, SCALED, trials=2000, seed=9)
        b = check_good_subset_rate(6, inst, SCALED, trials=2000, seed=9)
        assert a == b

    def test_many_level_fallback_path(self):
        # a uniform instance has ~2**k distinct levels, forcing per-trial sampling
        k = 7
        inst = generate_instance("uniform", 1 << k, 50.0, seed=5)
        emp, bound = check_good_subset_rate(k, inst, SCALED, trials=2000, seed=6)
        assert 0.0 <= emp <= 1.0

    def test_validation(self):
        inst = generate_instance("constant", 64, 1.0, seed=0)
        with pytest.raises(ValueError):
            check_good_subset_rate(5, inst, SCALED)  # size mismatch
        with pytest.raises(ValueError):
            check_good_subset_rate(6, inst, SCALED, force_k=7)


class TestSensitivityFuzz:
    def test_no_violations_quick(self):
        report = sensitivity_fuzz(2000, seed=0)
        assert report.violations == 0
        assert report.max_ratio <= 1 + 1e-9
        assert report.evaluated > 0

    def test_identity_perturbation_changes_nothing(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            family = ("bintree", "tilde", "random")[int(rng.integers(3))]
            expr = _random_family_expr(rng, family, n)
            inst = LossInstance(rng.uniform(-10, 10, n))
            assert eval_expr(expr, inst) == eval_expr(expr, inst)

    def test_deterministic_given_seed(self):
        assert sensitivity_fuzz(500, seed=3) == sensitivity_fuzz(500, seed=3)
