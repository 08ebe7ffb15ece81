"""End-to-end acceptance suite.

Each test exercises one headline guarantee at full scale and prints a
PASS line with its runtime; the stated runtime limits are asserted.
"""

import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from privsel.core import (
    LossInstance, MechanismConstants, ceil_log2, error_scale, gap_threshold,
    generate_instance, loss_scale,
)
from privsel.mechanisms import (
    binary_tree_select, exponential_mechanism, query_all_baseline,
    recursive_gap_select,
)
from privsel.oracle import BudgetOracle, EqualBudgetAdapter, plan_equal_budget
from privsel.queries import Base, BaseBatch, build_tilde_loss, sensitivity_bound
from privsel.verify import (
    Verdict, appendix_grid, error_scale_from_log_hp, gap_threshold_hp,
    loss_scale_hp, sensitivity_fuzz, subset_event_mc, subset_event_probability,
    subset_event_probability_dp, subset_event_probability_enum,
)
from zero_noise import ExactOracle

SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)


def _finish(name: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name}: {elapsed:.2f}s exceeded the {limit}s limit"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / limit {limit:.0f}s, "
          f"headroom {limit / elapsed:.1f}x)")


def test_closed_form_certification():
    """tau/xi/gamma match a high-precision oracle to 1e-12 on random points."""
    t0 = time.perf_counter()
    assert loss_scale(1, 1, 0.9765625) == 11000.0
    assert error_scale(2, 1, 0.9765625) == 22000.0
    # frozen from the 40-digit evaluation of the defining formula
    assert gap_threshold(1024, 1, 0.1) == pytest.approx(16.301970665873160, rel=1e-13)

    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        m = int(rng.integers(2, 10**9))
        rho = float(10.0 ** rng.uniform(-3, 3))
        beta = float(rng.uniform(1e-9, 0.499))
        k = ceil_log2(m)
        assert gap_threshold(m, rho, beta) == pytest.approx(
            float(gap_threshold_hp(k, rho, beta)), rel=1e-12)
        kx = int(rng.integers(1, 10**6))
        beta_x = float(rng.uniform(1e-9, 0.999))
        assert loss_scale(kx, rho, beta_x) == pytest.approx(
            float(loss_scale_hp(kx, rho, beta_x)), rel=1e-12)
        assert error_scale(m, rho, beta_x) == pytest.approx(
            float(error_scale_from_log_hp(k, rho, beta_x)), rel=1e-12)
    _finish("closed-form certification", t0, 1.0)


def test_gap_instance_recovery():
    """At gap exactly gap_threshold(1024, 1, 0.1), failure rate stays below 0.1."""
    t0 = time.perf_counter()
    gap = gap_threshold(1024, 1.0, 0.1)
    inst = generate_instance("gapped", 1024, gap, seed=0)
    trials = 10**4
    failures = 0
    for t in range(trials):
        oracle = BudgetOracle(inst, 1.0, np.random.SeedSequence([101, t]),
                              record_log=False)
        failures += binary_tree_select(oracle, 1.0).winner != 0
    assert failures / trials <= 0.1
    _finish(f"gap-instance recovery (failures {failures}/{trials})", t0, 10.0)


def test_noise_calibration_and_equal_budget_adapter():
    """Answer variance is 1/(2*rho_i); the equal-budget simulation matches it."""
    t0 = time.perf_counter()
    n = 10**5
    inst = LossInstance((2.5, 7.0))

    oracle = BudgetOracle(inst, total_budget=0.5 * n * 1.01, seed=42, record_log=False)
    direct = oracle.noisy_query_batch(BaseBatch(np.zeros(n, dtype=np.int64)), 0.5)
    se_var = math.sqrt(2.0 / (n - 1))
    assert direct.var(ddof=1) == pytest.approx(1.0, abs=3 * se_var)

    # same per-query plan as (m_bound=5, rho=1): repeats 3, top-up 1/6
    adapter = EqualBudgetAdapter(inst, m_bound=5 * n, rho=float(n), seed=43,
                                 record_log=False)
    simulated = np.asarray([adapter.noisy_query(Base(0), 0.5) for _ in range(n)])
    assert adapter.plans[0].per_query_repeats == 3
    assert adapter.plans[0].topup_variance == pytest.approx(1 / 6)
    mean_se = math.sqrt(direct.var(ddof=1) / n + simulated.var(ddof=1) / n)
    assert abs(direct.mean() - simulated.mean()) <= 3 * mean_se
    var_se = math.sqrt(2 * direct.var(ddof=1) ** 2 / (n - 1)
                       + 2 * simulated.var(ddof=1) ** 2 / (n - 1))
    assert abs(direct.var(ddof=1) - simulated.var(ddof=1)) <= 3 * var_se

    rng = np.random.default_rng(7)
    for _ in range(10**4):
        rho = float(10.0 ** rng.uniform(-2, 2))
        m_bound = int(rng.integers(1, 50))
        parts = rng.dirichlet(np.ones(int(rng.integers(1, 8)))) * rho
        for rho_i in parts:
            if rho_i > 0:
                assert plan_equal_budget(float(rho_i), m_bound, rho).topup_variance >= 0
    _finish("noise calibration + equal-budget adapter", t0, 10.0)


def test_inequality_grid():
    """All three closed-form inequalities hold at every declared grid point."""
    t0 = time.perf_counter()
    results = appendix_grid()
    points = len(results) // 3
    assert points >= 500
    assert all(r.verdict is Verdict.PASS for r in results)
    assert not any(r.verdict is Verdict.INCONCLUSIVE for r in results)
    _finish(f"inequality grid ({points} points)", t0, 5.0)


def test_subset_combinatorics():
    """Closed-form subset-event probability vs exact oracles and Monte Carlo."""
    t0 = time.perf_counter()
    assert subset_event_probability(4, 1, 3) == Fraction(16, 120)

    # exact sequential-draw DP for every (K <= 6, 0 <= i* < k* <= K)
    for k in range(1, 7):
        for k_star in range(1, k + 1):
            for i_star in range(k_star):
                assert subset_event_probability(k, i_star, k_star) == \
                    subset_event_probability_dp(k, i_star, k_star)

    # literal subset enumeration wherever the subset count is tractable
    enumerated = 0
    for k in range(1, 7):
        for k_star in range(1, k + 1):
            if comb(1 << k, 1 << (k - k_star)) > 2_000_000:
                continue
            for i_star in range(k_star):
                assert subset_event_probability(k, i_star, k_star) == \
                    subset_event_probability_enum(k, i_star, k_star)
                enumerated += 1
    assert enumerated >= 40

    draws = 10**6
    target = float(subset_event_probability(16, 2, 6))
    freq = subset_event_mc(16, 2, 6, draws, seed=5)
    se = math.sqrt(target * (1 - target) / draws)
    assert abs(freq - target) <= 3 * se
    _finish(f"subset combinatorics ({enumerated} enumerated cases)", t0, 60.0)


def test_sensitivity_calculus_soundness():
    """1e4 random expressions never exceed the structural bound; derived-loss
    expressions have bound exactly 1."""
    t0 = time.perf_counter()
    report = sensitivity_fuzz(10**4, seed=0)
    assert report.violations == 0
    assert report.max_ratio <= 1 + 1e-9
    assert report.evaluated >= 9000

    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, n + 1))
        expr = build_tilde_loss(rng.choice(n, size=m, replace=False),
                                int(rng.integers(1, 12)),
                                float(rng.uniform(0.01, 20)), range(n))
        assert sensitivity_bound(expr) == 1.0
    _finish(f"sensitivity soundness (max ratio {report.max_ratio:.6f})", t0, 30.0)


def test_structural_equivalence():
    """Un-scaled constants reduce the recursive mechanism to the tournament;
    scaled constants actually recurse within budget."""
    t0 = time.perf_counter()
    for size in (1000, 1 << 16, 1 << 20):
        inst = generate_instance("uniform", size, 100.0, seed=size % 97)
        for seed in (0, 1):
            o1 = BudgetOracle(inst, 1.0, seed=seed)
            o2 = BudgetOracle(inst, 1.0, seed=seed)
            r1 = binary_tree_select(o1, 1.0)
            r2 = recursive_gap_select(o2, 1.0, 0.1)
            assert r1.winner == r2.winner
            assert [q.answer for q in o1.log] == [q.answer for q in o2.log]
            assert r2.recursion_depth == 0

    inst = generate_instance("layered", 1 << 16, 2.0, seed=1)
    oracle = BudgetOracle(inst, 1.0, seed=5, record_log=False)
    result = recursive_gap_select(oracle, 1.0, 0.01, SCALED)
    assert result.recursion_depth >= 1
    assert oracle.spent <= 1.0 * (1 + 1e-9)
    assert 0 <= result.winner < (1 << 16)
    _finish(f"structural equivalence (scaled depth {result.recursion_depth})", t0, 60.0)


def test_zero_noise_exhaustive_recovery():
    """On the zero-noise fake, the tournament finds the exact argmin on every
    instance with <= 10 candidates, integer losses in [0, 3], unique min."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        total = 4**n
        powers = 4 ** np.arange(n, dtype=np.int64)
        digits = (np.arange(total, dtype=np.int64)[:, None] // powers[None, :]) % 4
        mins = digits.min(axis=1)
        unique = (digits == mins[:, None]).sum(axis=1) == 1
        mat = digits[unique].astype(np.float64)
        argmins = mat.argmin(axis=1)
        chunk = 8000
        for start in range(0, len(mat), chunk):
            sub = mat[start:start + chunk]
            inst = LossInstance(sub.ravel())
            oracle = ExactOracle(inst, total_budget=2.0 * len(sub), record_log=False)
            for b in range(len(sub)):
                winner = oracle.noisy_tournament(range(b * n, (b + 1) * n), 1.0)
                assert winner == argmins[start + b]
                checked += 1
    assert checked == 289756  # all unique-minimum vectors in {0..3}^(1..10)
    _finish(f"zero-noise exhaustive recovery ({checked} instances)", t0, 10.0)


def test_baseline_error_ordering():
    """Exponential mechanism < tournament < query-all in mean error, with
    pairwise separations of at least 3 standard errors."""
    t0 = time.perf_counter()
    trials = 10**4
    n = 4096
    errors = {"exponential": np.empty(trials), "binary_tree": np.empty(trials),
              "query_all": np.empty(trials)}
    for t in range(trials):
        seed = int(np.random.SeedSequence([909, t]).generate_state(1)[0])
        inst = generate_instance("uniform", n, 1000.0, seed=seed)
        best = inst.min_loss()
        rng = np.random.default_rng(np.random.SeedSequence([909, t, 1]))
        r = exponential_mechanism(inst, 1.0, rng)
        errors["exponential"][t] = inst.losses[r.winner] - best
        oracle = BudgetOracle(inst, 1.0, np.random.SeedSequence([909, t, 2]),
                              record_log=False)
        r = binary_tree_select(oracle, 1.0)
        errors["binary_tree"][t] = inst.losses[r.winner] - best
        oracle = BudgetOracle(inst, 1.0, np.random.SeedSequence([909, t, 3]),
                              record_log=False)
        r = query_all_baseline(oracle, 1.0)
        errors["query_all"][t] = inst.losses[r.winner] - best

    means = {k: v.mean() for k, v in errors.items()}
    assert means["exponential"] < means["binary_tree"] < means["query_all"]
    for lo, hi in (("exponential", "binary_tree"), ("binary_tree", "query_all")):
        diff = errors[hi] - errors[lo]
        se = diff.std(ddof=1) / math.sqrt(trials)
        assert diff.mean() >= 3 * se
    _finish("baseline error ordering "
            f"({means['exponential']:.2f} < {means['binary_tree']:.2f} "
            f"< {means['query_all']:.2f})", t0, 120.0)
