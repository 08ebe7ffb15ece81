"""Budgeted oracle: noise calibration, enforcement, logging, equal-budget adapter."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsel import queries
from privsel.core import LossInstance, MechanismConstants, generate_instance
from privsel.oracle import (
    BudgetExceededError, BudgetOracle, EqualBudgetAdapter, NonFiniteQueryError,
    EqualBudgetPlan, RoundsExceededError, SensitivityViolationError, equal_budget_simulate,
    plan_equal_budget, LOG_CSV_HEADER,
)
from privsel.queries import (
    Base, BaseBatch, Const, GapOver, Level, MinCompare, Scale, Sub, eval_expr,
    sensitivity_bound,
)
from privsel.mechanisms import binary_tree_select, combined_select, query_all_baseline
from zero_noise import ExactAdapter, ExactOracle


INST = LossInstance((2.0, 5.0, 1.0, 7.0))


class TestNoisyQuery:
    def test_noise_std_is_one_at_half_budget(self):
        # 1/(2 * 0.5) = 1; 20k samples, fixed stream
        oracle = BudgetOracle(INST, total_budget=2e4, seed=0, record_log=False)
        answers = oracle.noisy_query_batch(BaseBatch(np.zeros(20000, dtype=np.int64)), 0.5)
        assert answers.mean() == pytest.approx(2.0, abs=3 * 1.0 / math.sqrt(20000))
        assert answers.var(ddof=1) == pytest.approx(1.0, abs=3 * math.sqrt(2 / 19999))

    def test_unhalved_gap_is_rejected(self):
        oracle = BudgetOracle(INST, 1.0, seed=0)
        with pytest.raises(SensitivityViolationError):
            oracle.noisy_query(GapOver((Base(0), Base(1))), 0.5)
        assert (oracle.spent, oracle.log) == (0.0, [])
        # the halved version passes
        oracle.noisy_query(Scale(0.5, GapOver((Base(0), Base(1)))), 0.5)
        assert oracle.log[0].sensitivity_bound == 1.0

    def test_trial_leaves_no_reference_cycle(self):
        # with the collector off, only reference counting frees the oracle's
        # memo and the levels it pins; a cycle through it would keep them
        # alive after the trial.  Tournaments build no nodes, so after the
        # trial a tree query and a MinCompare over the trial's last level go
        # through noisy_query too, and are freed as soon as they are answered.
        submitted, levels, tournaments = [], [], []

        class Recording(BudgetOracle):
            def noisy_query(self, expr, rho_i):
                submitted.append(weakref.ref(expr))
                return super().noisy_query(expr, rho_i)

            def noisy_tournament(self, members, rho, level=None):
                tournaments.append(len(members))
                if level is not None:
                    levels.append(weakref.ref(level))
                return super().noisy_tournament(members, rho, level)

        scaled = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
        gc.collect()
        gc.disable()
        try:
            oracle = Recording(generate_instance("layered", 256, 1.0, 0), 2.0, seed=3)
            assert combined_select(oracle, 1.0, scaled).recursion_depth > 0
            # the final comparison is a tournament of the two winners
            assert tournaments[-1] == 2 and levels and not submitted
            oracle.noisy_query(MinCompare(range(2), 1, levels[-1]()), 0.5)
            oracle.noisy_query(Scale(0.5, Sub(Base(0), Base(1))), 0.5)
            assert len(submitted) == 2 and all(ref() is None for ref in submitted)
            pinned = [node for node, _ in oracle._level_memo.values()]
            assert set(map(type, pinned)) == {Level}
            pinned = [weakref.ref(node) for node in pinned]
            owner = weakref.ref(oracle)
            del oracle
            assert owner() is None
            assert all(ref() is None for ref in submitted + levels + pinned)
        finally:
            gc.enable()

    def test_answered_trees_are_not_kept(self):
        # a tree is memoised only while noisy_query evaluates it: a few
        # thousand fresh trees leave the oracle's memo empty and its memory
        # where it was (it held about 1 KiB per tree when the memo kept them)
        oracle = BudgetOracle(generate_instance("uniform", 1000, 10.0, 0), 1e4,
                              seed=0, record_log=False)
        oracle.noisy_query(Scale(0.5, Sub(Base(0), Base(1))), 1.0)  # makes the generator
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q in range(3000):
                oracle.noisy_query(Scale(0.5, Sub(Base(q % 1000), Base(7 * q % 1000))), 1.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 64 * 2**10
        trees = [Scale(0.5, Sub(Base(i), Base(i + 1))) for i in range(20)]
        refs = [weakref.ref(tree) for tree in trees]
        for tree in trees:
            oracle.noisy_query(tree, 1.0)
        del trees, tree
        assert all(ref() is None for ref in refs)
        assert oracle._level_memo == {}

    def test_level_query_derives_its_chain_once(self, monkeypatch):
        derived = []

        def spy(values, level):
            derived.append(level)
            return derive(values, level)
        derive = queries._derive
        monkeypatch.setattr(queries, "_derive", spy)
        below = Level(np.arange(4), [0, 2, 4], [0, 1, 2, 3], 1.0)
        level = Level(below, [0, 1, 2], [0, 1], 1.0)
        oracle = BudgetOracle(INST, 1.0, seed=0)
        query = MinCompare([0, 1], 1, level)
        first, second = (oracle.noisy_query(query, 0.25) for _ in range(2))
        assert len(derived) == 2 and derived[0] is below and derived[1] is level
        assert oracle.rounds_used == 2 and first != second

    def test_out_of_range_candidate_range_draws_nothing(self):
        # a range is admitted by its ends alone; one past either end is refused
        fresh = BudgetOracle(INST, 1.0, seed=3).noisy_query(Base(0), 0.5)
        for bad in (range(-1, 3), range(0, len(INST) + 1)):
            oracle = BudgetOracle(INST, 1.0, seed=3)
            with pytest.raises(IndexError):
                oracle.noisy_query(MinCompare(bad, 1), 0.1)
            assert (oracle.spent, oracle.rounds_used, oracle.log) == (0.0, 0, [])
            assert oracle.noisy_query(Base(0), 0.5) == fresh

    def test_scalar_query_reads_losses_without_building_the_tuple(self):
        # the tree walker reads single losses from the array, so the 2**16
        # floats' tuple stays unbuilt; the answer's bits are those it gave
        # when it read the tuple
        instance = generate_instance("uniform", 2**16, 1000.0, 0)
        answer = BudgetOracle(instance, 1.0, seed=0).noisy_query(Base(5), 1.0)
        assert answer.hex() == "0x1.c86c17fc34de8p+9"
        two = np.sort(instance.as_array()[[3, 5, 9]])[:2]
        assert eval_expr(GapOver((Base(3), Base(5), Base(9))), instance) == two[1] - two[0]
        assert "losses" not in vars(instance)

    def test_nan_bound_is_rejected_before_any_charge_or_draw(self):
        # node constructors refuse a NaN or infinite factor, so each factor
        # is set after construction: nan * 1 and inf * 0 both make the bound
        # NaN.  Either tree is 5.0 on these losses but 11.0 on the neighbour
        # (0, 4, 9), so answering it at sensitivity 1 would break the privacy.
        def scale(factor, child):
            node = Scale(1.0, child)
            object.__setattr__(node, "factor", factor)
            return node

        inst = LossInstance((0.0, 3.0, 10.0))
        fresh = BudgetOracle(inst, 1.0, seed=3).noisy_query(Base(0), 0.5)
        for lead in (scale(math.nan, Base(0)), scale(math.inf, Const(0.0))):
            query = GapOver((lead, Scale(5.0, Base(1)), Base(2)))
            assert math.isnan(sensitivity_bound(query)) and eval_expr(query, inst) == 5.0
            oracle = BudgetOracle(inst, 1.0, seed=3)
            with pytest.raises(SensitivityViolationError):
                oracle.noisy_query(query, 0.5)
            assert (oracle.spent, oracle.rounds_used, oracle.log) == (0.0, 0, [])
            assert oracle.noisy_query(Base(0), 0.5) == fresh

    def test_nonfinite_query_rejected(self):
        oracle = BudgetOracle(INST, 1.0, seed=0)
        with pytest.raises(NonFiniteQueryError):
            oracle.noisy_query(GapOver((Base(2),)), 0.5)  # singleton gap evaluates to +inf
        with pytest.raises(NonFiniteQueryError):
            oracle.noisy_query(Const(-math.inf), 0.5)

    def test_budget_enforced(self):
        oracle = BudgetOracle(INST, 1.0, seed=0)
        oracle.noisy_query(Base(0), 0.6)
        with pytest.raises(BudgetExceededError):
            oracle.noisy_query(Base(0), 0.6)
        # failed query neither spends nor logs
        assert oracle.spent == 0.6
        assert len(oracle.log) == 1

    def test_budget_slack_allows_float_split_recombination(self):
        rho = 0.1 + 0.7  # not exactly representable sums
        oracle = BudgetOracle(INST, rho, seed=0)
        for part in (4 * rho / 5, rho / 5):
            oracle.noisy_query(Base(0), part)
        assert oracle.spent == pytest.approx(rho, rel=1e-12)

    def test_rho_must_be_positive(self):
        oracle = BudgetOracle(INST, 1.0, seed=0)
        with pytest.raises(ValueError):
            oracle.noisy_query(Base(0), 0.0)

    @pytest.mark.parametrize("total", [0.0, -1.0, math.inf, math.nan])
    def test_total_budget_must_be_positive_and_finite(self, total):
        # an infinite budget let any query through and reported inf spent
        with pytest.raises(ValueError, match="total_budget"):
            BudgetOracle(INST, total)
        with pytest.raises(ValueError, match="^rho must"):  # the adapter's own name
            EqualBudgetAdapter(INST, 4, total)

    def test_instance_must_be_a_loss_instance(self):
        for make in (lambda x: BudgetOracle(x, 1.0), lambda x: EqualBudgetAdapter(x, 4, 1.0)):
            with pytest.raises(TypeError, match="^instance must be a LossInstance$"):
                make(INST.losses)

    def test_log_matches_spending(self):
        oracle = BudgetOracle(INST, 10.0, seed=1)
        rhos = [0.5, 1.25, 0.125, 2.0]
        for r in rhos:
            oracle.noisy_query(Scale(0.5, Sub(Base(0), Base(1))), r / 2)
        assert [rec.round_index for rec in oracle.log] == [0, 1, 2, 3]
        assert sum(rec.rho_i for rec in oracle.log) == oracle.spent
        assert all(rec.sensitivity_bound <= 1.0 for rec in oracle.log)
        assert oracle.rounds_used == 4

    def test_log_csv_round_trips(self):
        oracle = BudgetOracle(INST, 10.0, seed=1)
        oracle.noisy_query(Base(0), 1 / 3)
        oracle.noisy_query(Base(1), 0.25)
        text = oracle.log_csv()
        lines = text.strip().split("\n")
        assert lines[0] == LOG_CSV_HEADER
        for line, rec in zip(lines[1:], oracle.log):
            fields = line.split(",")
            assert int(fields[0]) == rec.round_index
            assert float(fields[1]) == rec.rho_i  # shortest repr round-trips
            assert float(fields[2]) == rec.sensitivity_bound
            assert float(fields[3]) == rec.answer

    def test_determinism_same_seed_same_log(self):
        def run():
            oracle = BudgetOracle(INST, 10.0, seed=123)
            for r in (0.5, 0.25, 1.0):
                oracle.noisy_query(Scale(0.5, Sub(Base(2), Base(3))), r)
            return [rec.answer for rec in oracle.log]
        assert run() == run()

    def test_noiseless_hook(self):
        oracle = ExactOracle(INST, 1.0)
        assert oracle.noisy_query(Base(3), 0.5) == 7.0
        assert oracle.spent == 0.5

    def test_batch_matches_values_and_budget(self):
        oracle = ExactOracle(INST, 10.0)
        answers = oracle.noisy_query_batch(BaseBatch(np.arange(4)), 0.25)
        assert answers.tolist() == [2.0, 5.0, 1.0, 7.0]
        assert oracle.spent == 1.0
        assert oracle.rounds_used == 4
        with pytest.raises(IndexError):
            oracle.noisy_query_batch(BaseBatch([4]), 0.25)

    def test_spawned_streams_deterministic(self):
        a = BudgetOracle(INST, 1.0, seed=9).spawn_rng().normal(size=3)
        b = BudgetOracle(INST, 1.0, seed=9).spawn_rng().normal(size=3)
        assert a.tolist() == b.tolist()


class TestBaseBatch:
    """The vectorised batch path against the scalar queries it stands for."""

    INST = generate_instance("uniform", 50, 3.0, 0)

    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_list_and_scalar_queries_agree(self, exact):
        idx = np.random.default_rng(1).integers(0, 50, 200)
        runs = []
        for submit in (lambda o: o.noisy_query_batch(BaseBatch(idx), 0.01),
                       lambda o: np.array([o.noisy_query(Base(i), 0.01)
                                           for i in idx.tolist()])):
            oracle = (ExactOracle if exact else BudgetOracle)(self.INST, 2.0, seed=5)
            answers = submit(oracle)
            runs.append((answers.tobytes(), oracle.log_csv(), oracle.spent,
                         oracle.rounds_used))
        # one normal(size=K) draw gives the values of K scalar draws; the
        # scalar calls sum K charges where the batch charges K * rho once
        assert runs[1][:2] == runs[0][:2] and runs[1][3] == runs[0][3] == 200
        assert runs[1][2] == pytest.approx(runs[0][2])

    def test_sliced_batch_is_answered_as_a_fresh_one(self):
        idx = np.random.default_rng(2).integers(0, 50, 30)
        runs = []
        for batch in (BaseBatch(np.append(idx, 7))[:-1], BaseBatch(idx[::-1])[::-1],
                      BaseBatch(idx)):
            oracle = BudgetOracle(self.INST, 1.0, seed=4)
            answers = oracle.noisy_query_batch(batch, 0.01)
            runs.append((answers.tobytes(), oracle.log_csv(), oracle.spent))
        assert runs == [runs[2]] * 3

    def test_empty_batch_charges_nothing(self):
        for empty in (np.empty(0, dtype=np.int64), range(0), range(9, 9)):
            oracle = BudgetOracle(self.INST, 1.0, seed=0)
            answers = oracle.noisy_query_batch(BaseBatch(empty), 0.5)
            assert type(answers) is np.ndarray and answers.shape == (0,)
            assert (oracle.spent, oracle.rounds_used, oracle.log) == (0.0, 0, [])

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("adapter", [False, True])
    def test_range_batch_is_its_index_array_bit_for_bit(self, adapter, exact):
        # a step-1 range is read as a slice, any other range as an array
        for seed, (a, b, step) in enumerate(((0, 50, 1), (7, 31, 1), (49, 50, 1),
                                             (1, 50, 3), (40, 2, -5))):
            runs = []
            for idx in (range(a, b, step), np.arange(a, b, step)):
                if adapter:
                    make = ExactAdapter if exact else EqualBudgetAdapter
                    oracle = make(self.INST, 64, 1.0, seed=seed)
                else:
                    oracle = (ExactOracle if exact else BudgetOracle)(self.INST, 1.0, seed=seed)
                answers = oracle.noisy_query_batch(BaseBatch(idx), 0.01)
                following = oracle.noisy_query(Base(0), 0.01)
                runs.append((answers.tobytes(), oracle.spent, oracle.rounds_used,
                             oracle.log_csv(), following))
            assert runs[0] == runs[1]

    def test_noiseless_answers_are_a_fresh_array(self):
        for idx in (range(50), range(3, 9), np.arange(50)):
            answers = ExactOracle(self.INST, 1.0).noisy_query_batch(
                BaseBatch(idx), 0.01)
            assert answers.flags.writeable
            assert not np.shares_memory(answers, self.INST.as_array())

    def _first_answer_after(self, failing_call):
        oracle = BudgetOracle(self.INST, 1.0, seed=3)
        failing_call(oracle)
        assert (oracle.spent, oracle.rounds_used, oracle.log) == (0.0, 0, [])
        return oracle.noisy_query(Base(0), 0.5)

    def test_rejected_batches_draw_nothing(self):
        fresh = BudgetOracle(self.INST, 1.0, seed=3).noisy_query(Base(0), 0.5)
        for bad in ([0, 50], [-1, 0], range(-1, 3), range(48, 51)):
            def out_of_range(oracle, bad=bad):
                with pytest.raises(IndexError):
                    oracle.noisy_query_batch(BaseBatch(bad), 0.1)
            assert self._first_answer_after(out_of_range) == fresh

        def over_budget(oracle):
            with pytest.raises(BudgetExceededError):
                oracle.noisy_query_batch(BaseBatch(np.arange(11)), 0.1)
        assert self._first_answer_after(over_budget) == fresh

        # as on the scalar path, Base(1.5) is not truncated to candidate 1
        def float_index(oracle):
            with pytest.raises(TypeError):
                oracle.noisy_query_batch(BaseBatch([0, 1.5]), 0.1)
            with pytest.raises(TypeError):
                oracle.noisy_query(Base(1.5), 0.1)
        assert self._first_answer_after(float_index) == fresh

        # as on the batch path, Base(True) is not candidate 1
        def bool_index(oracle):
            for bad in (True, np.True_):
                with pytest.raises(TypeError):
                    oracle.noisy_query_batch(BaseBatch([bad]), 0.1)
                with pytest.raises(TypeError):
                    oracle.noisy_query(Base(bad), 0.1)
        assert self._first_answer_after(bool_index) == fresh

    def test_only_a_base_batch_is_a_batch(self):
        # any other input is refused whole, before a charge, draw or log row
        fresh = BudgetOracle(self.INST, 1.0, seed=3).noisy_query(Base(0), 0.5)
        for make in (lambda: [Base(0), Base(1)], lambda: (Base(0), Base(1)),
                     lambda: (Base(i) for i in range(2)), lambda: []):
            def not_a_batch(oracle, make=make):
                with pytest.raises(TypeError, match="BaseBatch"):
                    oracle.noisy_query_batch(make(), 0.1)
            assert self._first_answer_after(not_a_batch) == fresh

    def test_numpy_integer_indices_are_candidates(self):
        runs = []
        for i in (2, np.int64(2), np.int32(2), np.uint8(2)):
            oracle = BudgetOracle(self.INST, 1.0, seed=3)
            runs.append((oracle.noisy_query(Base(i), 0.1),
                         oracle.noisy_query_batch(BaseBatch([i]), 0.1).tolist()))
        assert runs == [runs[0]] * 4

    def test_adapter_answers_a_batch_one_query_at_a_time(self):
        idx = np.arange(0, 50, 3)
        runs = []
        for submit in (lambda o: o.noisy_query_batch(BaseBatch(idx), 0.05),
                       lambda o: np.array([o.noisy_query(Base(i), 0.05)
                                           for i in idx.tolist()])):
            adapter = EqualBudgetAdapter(self.INST, m_bound=idx.size, rho=1.0, seed=4)
            answers = submit(adapter)
            runs.append((answers.tobytes(), adapter.log_csv(), adapter.spent,
                         adapter.inner_rounds_used, adapter.plans))
        assert runs[0] == runs[1]
        assert len(runs[0][4]) == idx.size

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("topup", [False, True])
    def test_adapter_batch_is_its_query_loop_bit_for_bit(self, topup, exact):
        rng = np.random.default_rng(8)
        inst = LossInstance(rng.choice([-0.0, 0.0, 1 / 3, -2.5, 7.1e-5], 30))
        # with m_bound a power of two, rho_each = m_i / m_bound plans exactly
        # m_i rounds and no top-up; half a round less adds a top-up
        m_bound = 256
        for repeats in range(1, 21):
            idx = rng.integers(0, 30, 11)  # 12 queries of m_i <= 20 fit the bounds
            rho_each = (repeats - 0.5 * topup) / m_bound
            runs = []
            for submit in (lambda o: o.noisy_query_batch(BaseBatch(idx), rho_each),
                           lambda o: np.array([o.noisy_query(Base(i), rho_each)
                                               for i in idx.tolist()])):
                adapter = (ExactAdapter if exact else EqualBudgetAdapter)(
                    inst, m_bound, 1.0, seed=repeats)
                answers = submit(adapter)
                following = adapter.noisy_query(Base(0), rho_each)
                runs.append((answers.tobytes(), adapter.log_csv(), adapter.spent,
                             adapter.inner_rounds_used, adapter.plans, following))
            assert runs[0] == runs[1]
            plan = runs[0][4][0]
            assert (plan.per_query_repeats, plan.topup_variance > 0) == (repeats, topup)

    @pytest.mark.parametrize("topup", [False, True])
    def test_adapter_noise_rows_are_normal_draws_of_each_column_scale(self, topup):
        # the randomness contract: per query, m_i round noises of the round
        # variance, then the top-up noise, as normal draws in row order
        m_bound = 256
        for repeats in (1, 2, 5):
            rho_i = (repeats - 0.5 * topup) / m_bound
            adapter = EqualBudgetAdapter(self.INST, m_bound, 1.0, seed=repeats)
            plan = adapter._plan(rho_i)
            assert (plan.per_query_repeats, plan.topup_variance > 0) == (repeats, topup)
            scale = [math.sqrt(1.0 / (2.0 * plan.per_round_budget))] * repeats
            scale += [math.sqrt(plan.topup_variance)] * topup
            want = np.random.default_rng(repeats).normal(0.0, scale, size=(2001, len(scale)))
            got = np.vstack([adapter._noise(2000, rho_i), adapter._noise(None, rho_i)])
            assert got.tobytes() == want.tobytes()

    def _adapter_answer_after(self, failing_call, inner_rounds_used=0):
        adapter = EqualBudgetAdapter(self.INST, m_bound=4, rho=1.0, seed=3)
        adapter.inner_rounds_used = inner_rounds_used
        failing_call(adapter)
        assert (adapter.spent, adapter.rounds_used, adapter.log, adapter.plans,
                adapter.inner_rounds_used) == (0.0, 0, [], [], inner_rounds_used)
        return adapter.noisy_query(Base(0), 0.25)

    def test_adapter_batch_fails_whole(self):
        fresh = EqualBudgetAdapter(self.INST, m_bound=4, rho=1.0, seed=3).noisy_query(
            Base(0), 0.25)

        def over_round_bound(adapter):  # 5 queries against m_bound = 4
            with pytest.raises(RoundsExceededError):
                adapter.noisy_query_batch(BaseBatch(np.arange(5)), 0.01)
        assert self._adapter_answer_after(over_round_bound) == fresh

        def over_budget(adapter):  # the third charge of 0.4 passes rho = 1
            with pytest.raises(BudgetExceededError):
                adapter.noisy_query_batch(BaseBatch(np.arange(3)), 0.4)
        assert self._adapter_answer_after(over_budget) == fresh

        # within the round bound and the budget, M' = 8 cannot be passed from
        # a fresh adapter, so 6 of its rounds are taken up front; the batch
        # needs 2 queries of 2 rounds each
        def over_equal_rounds(adapter):
            with pytest.raises(RoundsExceededError):
                adapter.noisy_query_batch(BaseBatch([0, 1]), 0.5)
        assert self._adapter_answer_after(over_equal_rounds, inner_rounds_used=6) == fresh

        # a single query fails whole too: with 7 of M' = 8 rounds taken, one
        # of 2 rounds passes the round bound and the budget but not M' (the
        # follow-up's 1 round still fits)
        def query_over_equal_rounds(adapter):
            with pytest.raises(RoundsExceededError):
                adapter.noisy_query(Base(0), 0.5)
            assert adapter.plan_runs == []
        assert self._adapter_answer_after(query_over_equal_rounds, inner_rounds_used=7) == fresh

    def test_query_all_leaves_no_base_nodes(self):
        # the batch holds an index array, so no node outlives the trial
        def live_base_nodes():
            return sum(type(o) is Base for o in gc.get_objects())

        gc.collect()
        before = live_base_nodes()
        n = 1 << 16
        oracle = BudgetOracle(LossInstance(np.zeros(n)), 1.0, seed=0, record_log=False)
        assert query_all_baseline(oracle, 1.0).rounds_used == n
        del oracle
        gc.collect()
        assert live_base_nodes() == before


class TestEqualBudgetPlan:
    def test_worked_example(self):
        # one query at rho_i = 0.5 under (M=5, rho=1)
        plan = plan_equal_budget(0.5, 5, 1.0)
        assert plan.m_rounds_total == 10
        assert plan.per_round_budget == pytest.approx(0.2)
        assert plan.per_query_repeats == 3
        # averaged variance 10/(4*3), topped up to exactly 1/(2*0.5)
        per_round_var = plan.m_rounds_total / (2 * (2 * 1.0))
        assert per_round_var / plan.per_query_repeats == pytest.approx(10 / 12)
        assert plan.topup_variance == pytest.approx(1.0 - 10 / 12)

    def test_negative_topup_variance_is_refused(self):
        with pytest.raises(ValueError, match="^topup_variance must be nonnegative$"):
            EqualBudgetPlan(10, 0.2, 3, -1e-12)

    def test_models_coincide_when_budget_matches_per_round(self):
        plan = plan_equal_budget(0.2, 5, 1.0)  # rho_i = rho'/M' exactly
        assert plan.per_query_repeats == 1
        assert plan.topup_variance == 0.0

    @given(st.floats(min_value=1e-6, max_value=100.0),
           st.integers(min_value=1, max_value=10**4),
           st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_topup_never_negative(self, rho, m_bound, frac):
        plan = plan_equal_budget(frac * rho, m_bound, rho)
        assert plan.topup_variance >= 0.0
        assert plan.per_query_repeats >= 1

    @given(st.floats(min_value=1e-6, max_value=100.0),
           st.integers(min_value=1, max_value=10**3),
           st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_total_answer_variance_is_exact(self, rho, m_bound, frac):
        # averaged repeats plus top-up reproduce 1/(2*rho_i) analytically
        rho_i = frac * rho
        plan = plan_equal_budget(rho_i, m_bound, rho)
        per_round_var = 1.0 / (2.0 * plan.per_round_budget)
        total = per_round_var / plan.per_query_repeats + plan.topup_variance
        assert total == pytest.approx(1.0 / (2.0 * rho_i), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_equal_budget(2.0, 5, 1.0)  # rho_i above rho
        with pytest.raises(ValueError):
            plan_equal_budget(0.5, 0, 1.0)
        # a bool is an int, but not a round bound
        with pytest.raises(ValueError, match="m_bound"):
            plan_equal_budget(0.5, True, 1.0)
        with pytest.raises(ValueError, match="m_bound"):
            EqualBudgetAdapter(LossInstance((1.0, 2.0)), True, 1.0)


class TestEqualBudgetAdapter:
    def test_distributional_smoke(self):
        # fixed query, rho_i = 0.5: adapter answers ~ N(value, 1.0)
        n = 20000
        inst = LossInstance((2.5, 7.0))
        adapter = EqualBudgetAdapter(inst, m_bound=5 * n, rho=float(n), seed=17,
                                     record_log=False)
        answers = np.array([adapter.noisy_query(Base(0), 0.5) for _ in range(n)])
        assert adapter.plans[0].per_query_repeats == 3
        assert answers.mean() == pytest.approx(2.5, abs=3 / math.sqrt(n))
        assert answers.var(ddof=1) == pytest.approx(1.0, abs=3 * math.sqrt(2 / (n - 1)))

    def test_round_and_budget_contracts(self):
        inst = LossInstance((2.5, 7.0, 3.0))
        adapter = EqualBudgetAdapter(inst, m_bound=2, rho=1.0, seed=0)
        adapter.noisy_query(Base(0), 0.5)
        adapter.noisy_query(Base(1), 0.5)
        with pytest.raises(RoundsExceededError):
            adapter.noisy_query(Base(2), 1e-6)
        adapter2 = EqualBudgetAdapter(inst, m_bound=4, rho=1.0, seed=0)
        adapter2.noisy_query(Base(0), 0.9)
        with pytest.raises(BudgetExceededError):
            adapter2.noisy_query(Base(1), 0.9)

    def test_inner_rounds_within_doubled_bound(self):
        inst = LossInstance(np.arange(32)[::-1].astype(float))
        m_bound = 5
        result, adapter = equal_budget_simulate(
            inst, lambda o: binary_tree_select(o, 1.0), m_bound, 1.0, seed=3)
        assert 0 <= result.winner < 32
        assert adapter.rounds_used == 5
        assert adapter.log_csv().count("\n") == 1 + 5
        assert adapter.inner_rounds_used <= 2 * m_bound
        assert adapter.spent == pytest.approx(1.0)
        assert all(p.topup_variance >= 0 for p in adapter.plans)

    def test_enforces_sensitivity_too(self):
        adapter = EqualBudgetAdapter(INST, m_bound=3, rho=1.0, seed=0)
        with pytest.raises(SensitivityViolationError):
            adapter.noisy_query(GapOver((Base(0), Base(1))), 0.5)

    def test_noiseless_simulation_is_exact(self):
        adapter = ExactAdapter(LossInstance((4.0, 0.0, 2.0)), 2, 1.0)
        assert binary_tree_select(adapter, 1.0).winner == 1


@pytest.mark.parametrize("repeats, topup", [(None, False), (1, False), (2, False),
                                            (4, False), (1, True), (2, True)],
                         ids=["oracle", "adapter-1", "adapter-2", "adapter-4",
                              "adapter-1-topup", "adapter-2-topup"])
def test_zero_noise_fake_answers_are_the_losses_bit_for_bit(repeats, topup):
    # x + -0.0 == x for every float x; the adapter averages m_i equal rounds,
    # exactly for m_i a power of two, and np.mean reads -0.0 as 0.0
    losses = np.array([-0.0, 0.0, 1 / 3, -2.5, 7.1e-5, 1e300, -5e-324])
    inst = LossInstance(losses)
    if repeats is None:
        make, rho_each, want = (lambda: ExactOracle(inst, 1.0)), 0.01, losses
    else:
        make, rho_each = (lambda: ExactAdapter(inst, 256, 1.0)), (repeats - 0.5 * topup) / 256
        want = losses + 0.0
    for submit in (lambda o: o.noisy_query_batch(BaseBatch(range(losses.size)), rho_each),
                   lambda o: np.array([o.noisy_query(Base(i), rho_each)
                                       for i in range(losses.size)])):
        oracle = make()
        answers = submit(oracle)
        assert answers.tobytes() == want.tobytes()
        assert np.array([r.answer for r in oracle.log]).tobytes() == want.tobytes()
        # nothing drawn: the generator is where a fresh one starts
        assert oracle._rng.bit_generator.state == \
            np.random.default_rng(oracle._seed_seq).bit_generator.state
        if repeats is not None:
            plan = oracle.plans[0]
            assert (plan.per_query_repeats, plan.topup_variance > 0) == (repeats, topup)
