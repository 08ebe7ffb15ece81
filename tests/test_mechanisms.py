"""Selection mechanisms: structure, budget safety, recovery behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from privsel.core import (
    DEFAULT_CONSTANTS, INSTANCE_FAMILIES, LossInstance, MechanismConstants, ceil_log2,
    generate_instance, recursion_schedule,
)
from privsel.mechanisms import (
    InfeasibleConfigError, binary_tree_select, combined_select,
    combined_round_bound, exponential_mechanism, query_all_baseline,
    recursive_gap_round_bound, recursive_gap_select,
)
from privsel import oracle as oracle_module
from privsel.mechanisms import _draw_subsets
from privsel.oracle import BudgetOracle
from privsel.queries import BaseBatch, Level
from zero_noise import ExactOracle, ZeroNoise

SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)


def _oracle(losses, rho, seed=0, exact=False):
    """A BudgetOracle, or its zero-noise fake if exact."""
    return (ExactOracle if exact else BudgetOracle)(LossInstance(losses), rho, seed)


class TestBinaryTree:
    def test_exact_query_count_and_budget(self):
        oracle = _oracle(np.zeros(1024), 1.0, seed=0)
        result = binary_tree_select(oracle, 1.0)
        assert result.rounds_used == 10
        assert all(rec.rho_i == pytest.approx(0.1) for rec in oracle.log)
        assert result.budget_spent == pytest.approx(1.0)
        assert result.recursion_depth == 0

    def test_singleton_spends_nothing(self):
        oracle = _oracle([3.0], 1.0)
        result = binary_tree_select(oracle, 1.0)
        assert (result.winner, result.rounds_used, result.budget_spent) == (0, 0, 0.0)

    def test_high_budget_recovers_clear_minimum(self):
        # noise std per round is ~7e-4 against a margin of 5
        for seed in range(50):
            oracle = _oracle([0.0, 10.0], 1e6, seed=seed)
            assert binary_tree_select(oracle, 1e6).winner == 0

    def test_zero_noise_exact_on_unique_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            losses = rng.integers(0, 4, n).astype(float)
            losses[rng.integers(n)] = -1.0  # unique minimum somewhere
            oracle = _oracle(losses, 1.0, exact=True)
            assert binary_tree_select(oracle, 1.0).winner == int(np.argmin(losses))

    def test_ties_resolve_left_at_zero_noise(self):
        oracle = _oracle([2.0, 2.0, 2.0, 2.0], 1.0, exact=True)
        assert binary_tree_select(oracle, 1.0).winner == 0

    @staticmethod
    def _recording(monkeypatch):
        """An oracle class recording, per tournament, (members type, level, rounds).

        A round is its span query as (indices, split), read from the round
        evaluator the oracle picks once per tournament and calls once per round.
        """
        tournaments = []
        span_source = oracle_module._span_source

        def recording_source(members, split, level, instance, memo):
            value = span_source(members, split, level, instance, memo)
            rounds = tournaments[-1][2]

            def recording_value(lo, mid, hi):
                rounds.append((list(members[lo:hi]), mid - lo))
                return value(lo, mid, hi)

            return recording_value

        monkeypatch.setattr(oracle_module, "_span_source", recording_source)

        class Recording(BudgetOracle):
            def noisy_tournament(self, members, rho, level=None):
                tournaments.append((type(members), level, []))
                return super().noisy_tournament(members, rho, level)

        return Recording, tournaments

    def test_each_round_is_one_comparison_of_adjacent_halves(self, monkeypatch):
        Recording, tournaments = self._recording(monkeypatch)
        losses = [5.0, 4.0, 3.0, 9.0, 0.0, 7.0, 8.0]
        class ExactRecording(ZeroNoise, Recording):
            pass

        oracle = ExactRecording(LossInstance(losses), 1.0)
        assert oracle.noisy_tournament(range(1, 7), 1.0) == 3
        # members 1..6 -> right half 4..6 -> left half 4..5 -> left half 4, at position 3
        assert tournaments == [(range, None, [
            ([1, 2, 3, 4, 5, 6], 3),
            ([4, 5, 6], 2),
            ([4, 5], 1)])]
        assert oracle.rounds_used == 3

    def test_range_rounds_answer_as_array_rounds(self):
        class AsArrays(BudgetOracle):
            def noisy_tournament(self, members, rho, level=None):
                assert type(members) is range and level is None
                return super().noisy_tournament(np.asarray(members), rho, level)

        n = 1000
        zeros = LossInstance(np.random.default_rng(0).choice([-0.0, 0.0, 1.0], n))
        class ExactAsArrays(ZeroNoise, AsArrays):
            pass

        # on the zero-noise fake, the log shows the sign of a zero answer
        for inst, makes in ((generate_instance("uniform", n, 5.0, seed=4),
                             (BudgetOracle, AsArrays)), (zeros, (ExactOracle, ExactAsArrays))):
            runs = []
            for make in makes:
                oracle = make(inst, 1.0, seed=11)
                runs.append((binary_tree_select(oracle, 1.0), oracle.log_csv()))
            assert runs[0] == runs[1]


class TestRecursiveGap:
    def test_default_constants_reduce_to_binary_tree(self):
        for size in (2, 17, 1000, 4096):
            inst = generate_instance("uniform", size, 50.0, seed=size)
            o1 = BudgetOracle(inst, 1.0, seed=42)
            o2 = BudgetOracle(inst, 1.0, seed=42)
            r1 = binary_tree_select(o1, 1.0)
            r2 = recursive_gap_select(o2, 1.0, 0.1)
            assert r1.winner == r2.winner
            assert [q.answer for q in o1.log] == [q.answer for q in o2.log]
            assert r2.recursion_depth == 0

    def test_small_beta_clause_delegates(self):
        n = 256
        k = ceil_log2(n)
        oracle = _oracle(np.arange(n).astype(float), 1.0, seed=0)
        result = recursive_gap_select(oracle, 1.0, beta=2.0 ** (-k - 1), consts=SCALED)
        assert result.recursion_depth == 0
        assert result.rounds_used == k

    def test_scaled_constants_recurse(self):
        inst = generate_instance("layered", 1024, 3.0, seed=0)
        oracle = BudgetOracle(inst, 1.0, seed=7, record_log=False)
        result = recursive_gap_select(oracle, 1.0, 0.05, SCALED)
        assert result.recursion_depth >= 1
        assert 0 <= result.winner < 1024
        assert oracle.spent <= 1.0 * (1 + 1e-9)
        assert result.budget_spent == oracle.spent

    def test_derived_losses_route_through_oracle(self):
        inst = generate_instance("layered", 256, 2.0, seed=1)
        oracle = BudgetOracle(inst, 1.0, seed=3)
        result = recursive_gap_select(oracle, 1.0, 0.05, SCALED)
        assert result.recursion_depth >= 1
        assert result.rounds_used == len(oracle.log)
        assert all(rec.sensitivity_bound <= 1.0 for rec in oracle.log)

    def test_level_ranges_are_kept_as_given(self, monkeypatch):
        # level 0 is range(n) itself, and the base-case tournament over the
        # deepest level admits range(len(level)) as given: the recursion hands
        # the queries layer no index array it did not draw
        levels, admitted = [], []
        post_init, span_source = Level.__post_init__, oracle_module._span_source

        def spy_level(self):
            post_init(self)
            levels.append(self)

        def spy_source(members, split, level, instance, memo):
            admitted.append((members, level))
            return span_source(members, split, level, instance, memo)

        monkeypatch.setattr(Level, "__post_init__", spy_level)
        monkeypatch.setattr(oracle_module, "_span_source", spy_source)
        n = 256
        oracle = BudgetOracle(generate_instance("layered", n, 2.0, seed=1), 1.0, seed=3)
        result = recursive_gap_select(oracle, 1.0, 0.05, SCALED)
        assert result.recursion_depth == len(levels) >= 1
        assert type(levels[0].prev) is range and levels[0].prev == range(n)
        assert all(above.prev is below for below, above in zip(levels, levels[1:]))
        members, level = admitted[0]
        assert level is levels[-1]
        assert type(members) is range and members == range(len(level))

    def test_infeasible_work_cap(self):
        # the first level on 2**19 candidates needs 2**30.1 index slots
        oracle = BudgetOracle(generate_instance("uniform", 1 << 19, 1.0, seed=0), 1.0, seed=0)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(InfeasibleConfigError, match="exceeds cap"):
            recursive_gap_select(oracle, 1.0, 0.05, SCALED, rng)
        assert (oracle.spent, oracle.rounds_used) == (0, 0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("c_xi", [1e304, 2e304])
    def test_schedule_errors_come_before_any_draw(self, c_xi):
        # the loss scale first overflows on a K = 8 level several levels down,
        # below levels that could have drawn their subsets already
        oracle = BudgetOracle(generate_instance("uniform", 1024, 1.0, seed=0), 1.0, seed=0)
        consts = MechanismConstants(c_xi=c_xi, p_xi=1, base_threshold_log=6)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="loss scale overflows at k=8"):
            recursive_gap_select(oracle, 1.0, 0.1, consts, rng)
        assert (oracle.spent, oracle.rounds_used) == (0, 0)
        assert rng.bit_generator.state == state

    def test_overflowing_loss_scale_spends_nothing(self):
        # failed with an IndexError inside the query layer before
        oracle = _oracle(np.zeros(1024), 1.0, seed=0)
        consts = MechanismConstants(c_xi=1e307, p_xi=1, base_threshold_log=6)
        with pytest.raises(ValueError, match="overflows"):
            recursive_gap_select(oracle, 1.0, 0.05, consts)
        assert oracle.spent == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c_xi", [1e303, 3e303])
    def test_overflowing_derived_losses_spend_nothing(self, c_xi):
        # the loss scale is finite, but the derived losses overflow a few levels
        # down; at 3e303 a nan level below made the next level's derivation fail
        # with an IndexError before
        oracle = BudgetOracle(generate_instance("uniform", 1024, 1.0, seed=0), 1.0, seed=0)
        consts = MechanismConstants(c_xi=c_xi, p_xi=1, base_threshold_log=6)
        with pytest.raises(oracle_module.NonFiniteQueryError):
            recursive_gap_select(oracle, 1.0, 0.1, consts)
        assert (oracle.spent, oracle.rounds_used) == (0, 0)

    def test_beta_validation(self):
        oracle = _oracle([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            recursive_gap_select(oracle, 1.0, beta=0.0)
        with pytest.raises(ValueError):
            recursive_gap_select(oracle, 1.0, beta=1.5)

    def test_bench_recursive_setting_schedule(self):
        # layered 2**12 with the scaled constants: K <= 8 maps to itself or
        # above (7 -> 7, 8 -> 8), so the recursion stays at K = 8 until beta_j
        # falls to 2**-8
        n = 1 << 12
        levels = recursion_schedule(n, 1.0, 0.1, SCALED)
        assert [k for k, _, _, _ in levels] == [12, 10, 9] + [8] * 13
        assert recursive_gap_round_bound(n, 0.1, SCALED) == 135
        # combined's first stage runs at beta = 1/K
        assert len(recursion_schedule(n, 1.0, 1.0 / 12, SCALED)) - 1 == 14
        assert recursive_gap_round_bound(n, 1.0 / 12, SCALED) == 127
        inst = generate_instance("layered", n, 1.0, seed=0)
        for seed in range(3):
            oracle = BudgetOracle(inst, 1.0, seed=seed, record_log=False)
            result = recursive_gap_select(oracle, 1.0, 0.1, SCALED)
            assert result.recursion_depth == len(levels) - 1

    @pytest.mark.parametrize("consts", [DEFAULT_CONSTANTS, SCALED], ids=["default", "scaled"])
    def test_round_bound_sums_the_schedules_exponents(self, consts):
        for n in range(1, 4097):
            for beta in (0.9, 0.1, 1e-3, 2.0 ** -9):
                levels = recursion_schedule(n, 1.0, beta, consts)
                assert recursive_gap_round_bound(n, beta, consts) == \
                    max(sum(k for k, _, _, _ in levels), 1)

    @pytest.mark.parametrize("seed", [7, 64, 1 << 14])
    @pytest.mark.parametrize("n, t_rounds", [(1000, 50), (4096, 300)])
    def test_draws_are_the_sorted_one_by_one_draws(self, n, t_rounds, seed):
        # the reference makes the same Generator calls in the same order and
        # sorts each draw on its own
        k = ceil_log2(n)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [np.sort(ref_rng.choice(n, size=1 << (k - int(ref_rng.integers(1, k + 1))),
                                        replace=False)) for _ in range(t_rounds)]
        indptr, indices = _draw_subsets(rng, n, k, t_rounds)
        assert indptr.tolist() == [0] + np.cumsum([d.size for d in draws]).tolist()
        assert np.array_equal(indices, np.concatenate(draws))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_recursive_trial_peak_memory(self):
        # a level holds ~230k index slots here (1.8 MiB as int64); sorting each
        # subset as drawn and deriving in blocks keeps a call's traced peak near
        # twice that, where full-length temporaries took it to 7-9 MiB
        inst = generate_instance("layered", 1 << 12, 1.0, seed=0)
        for seed in (0, 1, 2):
            oracle = BudgetOracle(inst, 1.0, seed=seed, record_log=False)
            tracemalloc.start()
            try:
                recursive_gap_select(oracle, 1.0, 0.1, SCALED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * 2**20

    def test_round_bound_is_conservative(self):
        for n, beta in ((1024, 0.05), (256, 0.2)):
            inst = generate_instance("layered", n, 3.0, seed=0)
            bound = recursive_gap_round_bound(n, beta, SCALED)
            for seed in range(3):
                oracle = BudgetOracle(inst, 1.0, seed=seed, record_log=False)
                result = recursive_gap_select(oracle, 1.0, beta, SCALED)
                assert result.rounds_used <= bound


class TestCombined:
    def test_equal_stage_winners_return_that_index(self):
        oracle = _oracle([0.0, 10.0], 1.0, exact=True)
        result = combined_select(oracle, 1.0)
        assert result.winner == 0  # both stages find 0; tie comparison goes left
        last = oracle.log[-1]  # MinCompare([0, 0], 1)
        assert (last.sensitivity_bound, last.answer) == (1.0, 0.0)

    def test_three_equal_budget_stages(self):
        n = 64
        oracle = _oracle(np.arange(n).astype(float), 1.0, seed=5)
        result = combined_select(oracle, 1.0)
        k = ceil_log2(n)
        # stage 1 and 2 are tournaments of k rounds each, then one comparison
        assert result.rounds_used == 2 * k + 1
        stage1 = sum(r.rho_i for r in oracle.log[:k])
        stage2 = sum(r.rho_i for r in oracle.log[k:2 * k])
        stage3 = oracle.log[-1].rho_i
        third = 1.0 / 3.0
        assert stage1 == pytest.approx(third)
        assert stage2 == pytest.approx(third)
        assert stage3 == pytest.approx(third)
        assert oracle.spent == pytest.approx(1.0)

    def test_winner_within_comparison_noise_of_stage_winners(self):
        inst = generate_instance("uniform", 128, 30.0, seed=2)
        for seed in range(100):
            oracle = BudgetOracle(inst, 1.0, seed=seed)
            result = combined_select(oracle, 1.0)
            # replay the two stages on an identical stream to recover them
            replay = BudgetOracle(inst, 1.0, seed=seed)
            rng = replay.spawn_rng()
            first = recursive_gap_select(replay, 1.0 / 3.0, 1.0 / 7, rng=rng)
            second = binary_tree_select(replay, 1.0 / 3.0)
            l1 = inst.losses[first.winner]
            l2 = inst.losses[second.winner]
            q = 0.5 * (l1 - l2)
            z = oracle.log[-1].answer - q
            assert inst.losses[result.winner] <= min(l1, l2) + 2 * abs(z) + 1e-9

    def test_needs_two_candidates(self):
        with pytest.raises(ValueError):
            combined_select(_oracle([1.0], 1.0), 1.0)

    def test_two_candidates_beta_is_one(self):
        # K = 1 makes the internal failure budget 1.0; must still run
        oracle = _oracle([4.0, 0.0], 1e6, seed=0)
        assert combined_select(oracle, 1e6).winner == 1

    def test_high_budget_recovers_clear_minimum(self):
        # all three stages have noise std well below the margin of 100
        for seed in range(100):
            oracle = _oracle([0.0, 100.0], 1e4, seed=seed)
            assert combined_select(oracle, 1e4).winner == 0


class TestExponentialMechanism:
    def test_symmetric_pair(self):
        rng = np.random.default_rng(0)
        inst = LossInstance((0.0, 0.0))
        wins = sum(exponential_mechanism(inst, 1.0, rng).winner == 0
                   for _ in range(40000))
        se = math.sqrt(0.25 / 40000)
        assert wins / 40000 == pytest.approx(0.5, abs=3 * se)

    def test_closed_form_two_point(self):
        # eps = 2 (rho = 2): P(0) = 1 / (1 + exp(-1))
        rng = np.random.default_rng(1)
        inst = LossInstance((0.0, 1.0))
        n = 40000
        wins = sum(exponential_mechanism(inst, 2.0, rng).winner == 0 for _ in range(n))
        target = 1 / (1 + math.exp(-1))
        se = math.sqrt(target * (1 - target) / n)
        assert wins / n == pytest.approx(target, abs=3 * se)

    def test_extreme_loss_never_wins(self):
        rng = np.random.default_rng(2)
        inst = LossInstance((0.0, 1e6))
        assert all(exponential_mechanism(inst, 1.0, rng).winner == 0
                   for _ in range(2000))

    @staticmethod
    def _out_of_place_probs(instance, rho):
        """The reference formula: every step into a new array."""
        eps = math.sqrt(2.0 * rho)
        logits = -0.5 * eps * instance.as_array()
        logits = logits - logits.max()
        weights = np.exp(logits)
        return weights / weights.sum()

    @pytest.mark.parametrize("rho", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("family", INSTANCE_FAMILIES)
    def test_probabilities_are_the_out_of_place_formula_bit_for_bit(self, family, rho):
        class Probe:  # stands in for the Generator: its one uniform is u
            def random(self):
                return u

        # an odd size reaches the vector loops' tails; at scale 1e5 every
        # family but the constant one has weights that underflow to 0
        for scale in (1.0, 1e5):
            inst = generate_instance(family, 4099, scale, 7)
            expected = self._out_of_place_probs(inst, rho)
            assert (scale == 1e5 and family != "constant") == (expected == 0).any()
            cdf = np.cumsum(expected)
            cdf /= cdf[-1]
            # the mechanism's cdf is nondecreasing, so the winners at every
            # step of the reference cdf and one ulp below it fix its bits
            steps = np.unique(cdf)
            for u in np.concatenate([steps, np.nextafter(steps, -np.inf)]).tolist():
                winner = exponential_mechanism(inst, rho, Probe()).winner
                assert winner == cdf.searchsorted(u, side="right")
            for seed in range(10):
                reference = np.random.default_rng(seed)
                expected_winner = int(reference.choice(expected.size, p=expected))
                rng = np.random.default_rng(seed)
                assert exponential_mechanism(inst, rho, rng).winner == expected_winner
                assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
    def test_overflowing_logits_raise_before_any_draw(self):
        # eps * 1e308 / 2 overflows at rho = 100: the weights' total is nan
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            exponential_mechanism(LossInstance((-1e308, 1e308)), 100.0, rng)
        assert rng.bit_generator.state == state

    def test_result_fields(self):
        rng = np.random.default_rng(3)
        result = exponential_mechanism(LossInstance((0.0, 1.0)), 1.0, rng)
        assert result.rounds_used == 0
        assert result.budget_spent == 1.0
        assert result.to_json() == {
            "winner": result.winner, "rounds_used": 0,
            "budget_spent": 1.0, "recursion_depth": 0}


class TestQueryAllBaseline:
    def test_per_query_noise_scale(self):
        n, rho = 64, 0.5
        variances = []
        inst = LossInstance(np.zeros(n))
        for seed in range(300):
            oracle = BudgetOracle(inst, rho, seed=seed, record_log=False)
            answers = oracle.noisy_query_batch(BaseBatch(np.arange(n)), rho / n)
            variances.append(answers.var(ddof=1))
        expected = n / (2 * rho)  # std sqrt(n / (2 rho)) per query
        assert np.mean(variances) == pytest.approx(expected, rel=0.05)

    def test_recovers_clear_minimum(self):
        for seed in range(50):
            oracle = _oracle([10.0, 0.0], 1e6, seed=seed)
            assert query_all_baseline(oracle, 1e6).winner == 1

    def test_tie_breaks_low_index_noiseless(self):
        oracle = _oracle([1.0, 1.0, 1.0], 1.0, exact=True)
        assert query_all_baseline(oracle, 1.0).winner == 0

    def test_budget_split_evenly(self):
        oracle = _oracle(np.zeros(8), 1.0, seed=0)
        result = query_all_baseline(oracle, 1.0)
        assert result.rounds_used == 8
        assert result.budget_spent == pytest.approx(1.0)
        assert all(rec.rho_i == pytest.approx(1 / 8) for rec in oracle.log)


def test_budget_safety_over_random_configurations():
    """No mechanism ever trips the accountant, and spent stays within rho."""
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 65))
        rho = float(rng.uniform(0.01, 100.0))
        beta = float(rng.uniform(0.001, 0.999))
        inst = LossInstance(rng.uniform(-5, 5, n))
        oracle = BudgetOracle(inst, rho, seed=trial, record_log=False)
        kind = trial % 4
        if kind == 0:
            result = binary_tree_select(oracle, rho)
        elif kind == 1:
            result = recursive_gap_select(oracle, rho, beta, SCALED)
        elif kind == 2 and n >= 2:
            result = combined_select(oracle, rho)
        else:
            result = query_all_baseline(oracle, rho)
        assert 0 <= result.winner < n
        assert oracle.spent <= rho * (1 + 1e-9)
        assert result.budget_spent == oracle.spent


def test_combined_round_bound_holds():
    inst = generate_instance("uniform", 200, 10.0, seed=0)
    bound = combined_round_bound(200)
    for seed in range(5):
        oracle = BudgetOracle(inst, 1.0, seed=seed, record_log=False)
        assert combined_select(oracle, 1.0).rounds_used <= bound


@pytest.mark.parametrize("trial, ceiling", [
    (lambda inst, t: exponential_mechanism(inst, 1.0, np.random.default_rng(t)), 1.1),
    (lambda inst, t: query_all_baseline(
        BudgetOracle(inst, 1.0, seed=t, record_log=False), 1.0), 1.1),
], ids=["exponential", "query_all"])
def test_full_vector_trial_allocation_ceiling(trial, ceiling):
    # traced peak of one warmed trial, in n-float buffers: the exponential
    # mechanism keeps one buffer that holds its logits, weights and cdf in
    # turn, query_all one noise buffer that becomes its answers
    n = 1 << 16
    inst = generate_instance("uniform", n, 1.0, 0)
    trial(inst, 0)
    tracemalloc.start()
    try:
        trial(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling * 8 * n
