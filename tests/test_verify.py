"""Certification module: inequalities, combinatorics, fuzzing."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest

import privsel
from privsel import verify
from privsel.core import (
    RECURSION_SPLIT, LossInstance, MechanismConstants, derived_rounds_ceil_log,
    generate_instance, loss_scale,
)
from privsel.queries import eval_expr
from privsel.verify import (
    Verdict, appendix_grid, check_good_subset_rate, gap_threshold_hp, loss_scale_hp,
    point_checks, sensitivity_fuzz, subset_event_mc, subset_event_probability,
    subset_event_probability_dp, subset_event_probability_enum,
    _random_family_expr,
)

from fixed_subset_size import fix_subset_size

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
        # the mpmath twins' own domains: k > 0 and c_xi * (k + 1) / beta > 1;
        # ceil_log_m > 0 and ceil_log_m / beta > 1
        for twin, args, message in (
                (loss_scale_hp, (0, 1.0, 0.5), "k must be positive"),
                (loss_scale_hp, (1, 1.0, 1.0, MechanismConstants(c_xi=0.5)),
                 "log argument must exceed 1"),
                (gap_threshold_hp, (0, 1.0, 0.5), "ceil_log_m must be positive"),
                (gap_threshold_hp, (1, 1.0, 1.0), "need ceil_log_m / beta > 1")):
            with pytest.raises(ValueError, match=message):
                twin(*args)

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
        # materialize T = ceil(2**(3*sqrt(K)-1)) exactly and take its ceil-log;
        # 1024 and 10**6 are perfect squares, where the exponent is an integer
        for k in (*range(1000, 1101), 1200, 1024, 10**6):
            with mpmath.workprec(400):
                x = 3 * mpmath.sqrt(k) - 1
                t_exact = int(mpmath.ceil(mpmath.power(2, x)))
            direct = max(t_exact - 1, 0).bit_length()  # ceil(log2(t_exact))
            assert derived_rounds_ceil_log(k) == direct

    def test_float_split_is_the_certified_rational(self):
        # the grid's mpmath splits are the exact 4/5 and 1/5, the mechanism's a float
        assert RECURSION_SPLIT == 4 / 5
        assert 1.0 - RECURSION_SPLIT == 0.19999999999999996

    def test_exact_integer_exponent_flagged(self):
        # perfect squares make 3*sqrt(K) - 1 an exact integer
        for k, value, flagged in ((10**6, 2999, True), (1024, 95, True), (1000, 94, False)):
            assert derived_rounds_ceil_log(k) == value
            notes = [r.note for r in point_checks(k, 1.0, 1e-3)[1:]]
            assert notes == ["t-exponent-integer" if flagged else ""] * 2


class TestAppendixGrid:
    def test_small_slice_all_pass(self):
        results = appendix_grid(ks=(1000, 10**4), betas=(1e-3, 1e-5), rhos=(1.0,))
        assert len(results) == 12
        assert all(r.verdict is Verdict.PASS and r.passed for r in results)
        for verdict in (Verdict.FAIL, Verdict.INCONCLUSIVE):
            assert not dataclasses.replace(results[0], verdict=verdict).passed

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

    def test_forced_k_isolates_single_draw_case(self, monkeypatch):
        # top block of 8 at loss 0, all others above K*xi: with the subset
        # size forced to 1, the event is exactly a top-block hit
        k = 8
        xi_value = loss_scale(k, 1.0, 0.1, SCALED)
        losses = np.full(1 << k, math.ceil(k * xi_value) + 100.0)
        losses[:8] = 0.0
        fix_subset_size(monkeypatch, k)
        emp, _ = check_good_subset_rate(k, LossInstance(losses), SCALED, rho=1.0,
                                        beta=0.1, trials=10**5, seed=3)
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

    def test_many_level_fallback_path(self, monkeypatch):
        # more than _MATRIX_MAX_VALUES distinct losses: every subset of two or
        # more is drawn per trial, and the blocked matrix draw is never made
        def no_blocks(*args):
            raise AssertionError("the matrix branch ran")
        k = 11
        inst = generate_instance("uniform", 1 << k, 50.0, seed=5)
        assert len(np.unique(inst.as_array())) == 2048
        monkeypatch.setattr(verify, "_hypergeometric_blocks", no_blocks)
        emp, bound = check_good_subset_rate(k, inst, SCALED, trials=2000, seed=6)
        assert (emp, bound) == (0.088, 2.0 ** (-2.0 * math.sqrt(k)))

    def test_levels_up_to_the_cutoff_take_the_matrix_path(self, monkeypatch):
        # 2**10 losses with d distinct values: up to the cutoff every subset
        # size above 1 is one blocked matrix draw, one past it none is
        sizes = []
        def counted(rng, colors, nsample, draws):
            sizes.append(nsample)
            return blocks(rng, colors, nsample, draws)
        blocks = verify._hypergeometric_blocks
        monkeypatch.setattr(verify, "_hypergeometric_blocks", counted)
        cutoff = verify._MATRIX_MAX_VALUES
        for distinct, expect in ((cutoff, [1 << j for j in range(1, 10)]), (cutoff + 1, [])):
            inst = LossInstance(np.arange(1 << 10) % distinct * 50.0)
            assert len(np.unique(inst.as_array())) == distinct
            sizes.clear()
            check_good_subset_rate(10, inst, SCALED, trials=2000, seed=6)
            assert sorted(sizes) == expect, distinct

    def test_validation(self):
        inst = generate_instance("constant", 64, 1.0, seed=0)
        with pytest.raises(ValueError):
            check_good_subset_rate(5, inst, SCALED)  # size mismatch


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

    def test_reports_violations_of_a_shrunken_bound(self, monkeypatch):
        # a calculus claiming a quarter of each bound is caught: the fuzzer can fail
        bound = verify.sensitivity_bound
        monkeypatch.setattr(verify, "sensitivity_bound", lambda expr: 0.25 * bound(expr))
        report = sensitivity_fuzz(200)
        assert report.violations > 0 and report.max_ratio > 1 + 1e-9


class TestVerdict:
    @pytest.mark.parametrize("scale, verdict", [
        (1 - 1e-6, Verdict.INCONCLUSIVE), (1 + 1e-6, None)])
    def test_dead_zone_edges(self, scale, verdict):
        # margin m is (favored - other) / max(|favored|, |other|): exactly m
        # for (1, 1 - m) when m > 0 and for (1 + m, 1) when m < 0
        with mpmath.workdps(verify._DPS):
            for sign, outside in ((1, Verdict.PASS), (-1, Verdict.FAIL)):
                m = mpmath.mpf(sign * scale) * verify.INCONCLUSIVE_REL
                pair = (1, 1 - m) if m > 0 else (1 + m, 1)
                got, margin = verify._verdict(*map(mpmath.mpf, pair))
                assert got is (verdict or outside)
                assert margin == pytest.approx(float(m), rel=1e-12)


def traced_peak(run, count: int) -> int:
    """Peak bytes tracemalloc sees while run(count) runs.  An untraced run(1)
    goes first: np.unique imports numpy.ma on its first call."""
    run(1)
    tracemalloc.start()
    try:
        run(count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedDraws:
    """The Monte Carlo checks draw in blocks of at most verify._BLOCK_CELLS cells."""

    def test_subset_event_mc_equals_one_draw_of_all_rows(self):
        k, i_star, k_star = 16, 2, 6
        top, mid = 1 << i_star, (1 << k_star) - (1 << i_star)
        b = verify._BLOCK_CELLS // 3  # rows in one block of the three-colour draw
        for draws in (1, b - 1, b, b + 1, 3 * b + 7):
            counts = np.random.default_rng(draws).multivariate_hypergeometric(
                [top, mid, (1 << k) - top - mid], 1 << (k - k_star), size=draws)
            one_shot = float(((counts[:, 0] == 1) & (counts[:, 1] == 0)).mean())
            assert subset_event_mc(k, i_star, k_star, draws, seed=draws) == one_shot

    @pytest.mark.parametrize("sixty_fourths", [1, 63, 64, 65, 199])
    def test_good_subset_rate_equals_one_draw_of_all_rows(self, sixty_fourths, monkeypatch):
        # 128 distinct losses make a block 512 rows; the trials, in 64ths of a
        # block, end just short of, at and just past one block, and in the
        # fourth.  With the subset size fixed every trial has one size, so the
        # reference is one draw of all rows, scored here row by row.
        k, kt = 7, 3
        inst = generate_instance("uniform", 1 << k, 1e3, seed=5)
        vals, counts = np.unique(inst.as_array(), return_counts=True)
        assert len(vals) == 128 <= verify._MATRIX_MAX_VALUES
        trials = sixty_fourths * (verify._BLOCK_CELLS // len(vals)) // 64
        xi_value = loss_scale(k, 1.0, 0.1, SCALED)
        offset, threshold = (k + math.sqrt(k)) * xi_value, -math.sqrt(k) * xi_value
        mat = np.random.default_rng(8).multivariate_hypergeometric(
            counts, 1 << (k - kt), size=trials)
        events = 0
        for row in mat:
            first, *rest = np.flatnonzero(row)
            gap = 0.0 if row[first] >= 2 else (vals[rest[0]] - vals[first] if rest else math.inf)
            events += bool(max(vals[first] - vals[0] - offset, -gap) <= threshold)
        if trials > 1:
            assert 0 < events < trials
        fix_subset_size(monkeypatch, kt)
        emp, _ = check_good_subset_rate(k, inst, SCALED, trials=trials, seed=8)
        assert emp == events / trials

    def test_subset_event_mc_memory_is_one_block(self):
        # one draw of all rows peaks at 9.9 MiB traced, blocks at 1.0 MiB
        assert traced_peak(lambda draws: subset_event_mc(16, 2, 6, draws), 400_000) < 2 * 2**20

    def test_good_subset_rate_memory_is_one_block(self, monkeypatch):
        # 128 distinct losses: one draw of all rows peaks at 11.7 MiB traced,
        # blocks at 1.2 MiB
        inst = generate_instance("uniform", 1 << 7, 1e3, seed=5)
        fix_subset_size(monkeypatch, 2)
        run = lambda trials: check_good_subset_rate(  # noqa: E731
            7, inst, SCALED, trials=trials, seed=8)
        assert traced_peak(run, 10_000) < 2 * 2**20


class TestSampleCounts:
    @pytest.mark.parametrize("bad", [True, False, 0, -3, 2.0, 2.5, "3", None])
    def test_rejected_before_any_draw(self, bad, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("a generator was made")
        inst = generate_instance("layered", 64, 2.0, seed=1)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        calls = (lambda: subset_event_mc(4, 1, 3, bad),
                 lambda: check_good_subset_rate(6, inst, SCALED, trials=bad),
                 lambda: sensitivity_fuzz(bad))
        for call in calls:
            with pytest.raises(ValueError, match=r"must be an integer >= 1, got "):
                call()

    def test_numpy_integers_are_counts(self):
        inst = generate_instance("layered", 64, 2.0, seed=1)
        freq = subset_event_mc(4, 1, 3, np.int64(500), seed=1)
        assert type(freq) is float and freq == subset_event_mc(4, 1, 3, 500, seed=1)
        assert check_good_subset_rate(6, inst, SCALED, trials=np.int32(300), seed=2) == \
            check_good_subset_rate(6, inst, SCALED, trials=300, seed=2)
        report = sensitivity_fuzz(np.int64(20), seed=4)
        assert type(report.trials) is int and report == sensitivity_fuzz(20, seed=4)


def _fresh_stdout(code: str) -> str:
    # a fresh interpreter, since this one has imported mpmath already
    src = os.path.dirname(os.path.dirname(privsel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_only_certification_imports_mpmath():
    code = ("import sys, privsel, privsel.cli, privsel.experiments; "
            "print('mpmath' in sys.modules)")
    assert _fresh_stdout(code) == "False\n"


def test_sampler_checks_do_not_import_mpmath():
    # privsel verify runs these checks on a worker thread while the main
    # thread sets mpmath's precision, which is process-global: so they must
    # not use mpmath at all
    code = ("import sys\n"
            "from privsel.core import MechanismConstants, generate_instance\n"
            "from privsel.verify import (check_good_subset_rate, subset_event_mc,\n"
            "                            subset_event_probability)\n"
            "subset_event_probability(16, 2, 6)\n"
            "subset_event_mc(16, 2, 6, 100, seed=0)\n"
            "inst = generate_instance('layered', 1 << 10, scale=1.0, seed=0)\n"
            "check_good_subset_rate(10, inst, MechanismConstants(c_xi=1.0, p_xi=1,\n"
            "                       base_threshold_log=6), trials=10, seed=0)\n"
            "print('mpmath' in sys.modules)")
    assert _fresh_stdout(code) == "False\n"
