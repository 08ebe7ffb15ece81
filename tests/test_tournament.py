"""The oracle's halving tournament and the block-minimum table it reads.

``BudgetOracle.noisy_tournament`` must answer exactly as the per-query loop
of ``noisy_query(MinCompare(members[lo:hi], mid - lo, level), rho / K)`` it
replaces: same survivor, log, budget, round count and generator state, on
success and on failure.
"""

import math

import numpy as np
import pytest

from privsel.core import LossInstance, MechanismConstants, ceil_log2, generate_instance
from privsel.mechanisms import (
    binary_tree_select, combined_select, exponential_mechanism, query_all_baseline,
    recursive_gap_select,
)
from privsel import oracle as oracle_module
from privsel.oracle import (
    BudgetExceededError, BudgetOracle, EqualBudgetAdapter, NonFiniteQueryError,
    RoundsExceededError, SensitivityViolationError,
)
from privsel import queries as queries_module
from privsel.queries import Base, BaseBatch, Level, MinCompare, Sub, build_bintree_query
from zero_noise import ExactAdapter, ExactOracle

SIZES = list(range(1, 301)) + [(1 << k) + d for k in range(8, 12) for d in (-1, 0, 1)]
ZEROS = np.array([-0.0, 0.0, 1.0, 2.0])


def reference_tournament(oracle, members, rho, level=None, as_array=False):
    """The tournament as one noisy_query per round.

    ``as_array`` submits each span as an index array, whose evaluation reads
    no block-minimum table.
    """
    n = len(members)
    if n == 1:
        return 0
    rho_round = rho / ceil_log2(n)
    lo, hi = 0, n
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        span = np.asarray(members[lo:hi]) if as_array else members[lo:hi]
        if oracle.noisy_query(MinCompare(span, mid - lo, level), rho_round) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def state(oracle):
    """Everything a tournament may change, including the generator's position."""
    return (oracle.log_csv(), oracle.spent, oracle.rounds_used,
            getattr(oracle, "inner_rounds_used", None), getattr(oracle, "plans", None),
            oracle._generator().normal())


def make_oracle(kind, instance, rounds, exact, seed=5, rho=1.0):
    """An oracle of kind, or its zero-noise fake if exact."""
    make = {BudgetOracle: ExactOracle, EqualBudgetAdapter: ExactAdapter}[kind] if exact else kind
    if kind is EqualBudgetAdapter:
        return make(instance, max(rounds, 1), rho, seed)
    return make(instance, rho, seed)


def members_of(form, n, rng):
    """(instance, members, level) with len(members) == n, losses in {-0.0, 0.0, 1, 2}.

    The four values' frequencies vary per instance, so that minima over
    long spans are not all zeros.  A range of a power-of-two count may also
    start at n, an aligned start other than 0.
    """
    size = 2 * n + 3
    losses = rng.choice(ZEROS, size, p=rng.dirichlet(np.ones(4)))
    if form == "range":
        starts = [0, rng.integers(0, size - n + 1)] + ([n] if n & (n - 1) == 0 else [])
        start = int(rng.choice(starts))
        return LossInstance(losses), range(start, start + n), None
    if form == "array":
        members = np.sort(rng.choice(size, n, replace=False)).astype(np.int64)
        return LossInstance(losses), members, None
    base = max(n // 2, 1)  # the level has n + 2 subsets of these candidates
    subsets = [np.sort(rng.choice(base, int(rng.integers(1, base + 1)), replace=False))
               for _ in range(n + 2)]
    indptr = np.concatenate(([0], np.cumsum([s.size for s in subsets])))
    level = Level(np.arange(base), indptr, np.concatenate(subsets), 0.5)
    members = np.sort(rng.choice(n + 2, n, replace=False)).astype(np.int64)
    return LossInstance(losses[:base]), members, level


@pytest.mark.parametrize("kind", [BudgetOracle, EqualBudgetAdapter],
                         ids=["oracle", "adapter"])
@pytest.mark.parametrize("form", ["range", "array", "level"])
def test_tournament_equals_per_query_loop(form, kind):
    rng = np.random.default_rng([len(form), kind is BudgetOracle])
    for n in SIZES:
        if form == "level" and n > 300:
            continue  # the level form's cost is the derivation, not the rounds
        instance, members, level = members_of(form, n, rng)
        rounds = ceil_log2(n)
        # range spans read the table only once enough blocks were asked for;
        # run them again with it built, so that aligned sides read it
        for table in ((False, True) if form == "range" else (False,)):
            if table:
                instance.block_minima()
            for exact in (False, True):
                fast, slow, gathered = (make_oracle(kind, instance, rounds, exact)
                                        for _ in range(3))
                survivor = fast.noisy_tournament(members, 1.0, level)
                assert survivor == reference_tournament(slow, members, 1.0, level), n
                assert survivor == reference_tournament(gathered, members, 1.0, level, True), n
                assert 0 < fast.rounds_used <= rounds or n == 1
                assert state(fast) == state(slow) == state(gathered), n


@pytest.mark.parametrize("topup", [False, True], ids=["exact", "topup"])
@pytest.mark.parametrize("repeats", [1, 2, 3])
def test_adapter_tournament_with_repeats_equals_per_query_loop(repeats, topup):
    # each round's noise row has m_i round noises, then a top-up noise if any
    rng = np.random.default_rng([repeats, topup])
    for n in (2, 3, 5, 31, 32, 33, 64, 100, 1024):
        for form in ("range", "array"):
            instance, members, _ = members_of(form, n, rng)
            k = ceil_log2(n)
            # with m_bound = 4K and total budget 1, a round of rho / K plans
            # 4 * rho rounds: exactly m_i, or m_i with a top-up
            rho = (repeats - 0.5 * topup) / 4
            for exact in (False, True):
                runs = []
                for run in (lambda o: o.noisy_tournament(members, rho),
                            lambda o: reference_tournament(o, members, rho)):
                    adapter = (ExactAdapter if exact else EqualBudgetAdapter)(
                        instance, 4 * k, 1.0, seed=n)
                    runs.append((run(adapter), state(adapter)))
                assert runs[0] == runs[1], (n, form, exact)
                plans = runs[0][1][4]
                assert len(plans) == runs[0][1][2] >= math.floor(math.log2(n))
                assert (plans[0].per_query_repeats, plans[0].topup_variance > 0) == (
                    repeats, topup)


def left_path_spans(n):
    """(mid, hi) of each round of a tournament of n members that keeps left halves."""
    spans, hi = [], n
    while hi > 1:
        spans.append(((hi + 1) // 2, hi))
        hi = (hi + 1) // 2
    return spans


@pytest.mark.parametrize("kind", [BudgetOracle, EqualBudgetAdapter],
                         ids=["oracle", "adapter"])
@pytest.mark.parametrize("n", [64, 33, 5])
def test_non_finite_round_leaves_earlier_rounds(n, kind):
    # round j's span [0, hi) has left minimum -1.7e308 and right minimum
    # 1.7e308, so its value overflows; every earlier round has a right side
    # of zeros, a finite value near -8.5e307, and keeps its left half.  With
    # n = 64 every j lies in the first floor(log2 n) rounds, whose noise is
    # drawn at once; with n = 33 the last one lies past them; n = 5 is too
    # small for a joint draw.
    for j, (mid, hi) in enumerate(left_path_spans(n)):
        losses = np.zeros(n)
        losses[:mid], losses[mid:hi] = -1.7e308, 1.7e308
        instance = LossInstance(losses)
        rounds = ceil_log2(n)
        fast, slow = (make_oracle(kind, instance, rounds, False, seed=6) for _ in range(2))
        with pytest.raises(NonFiniteQueryError):
            fast.noisy_tournament(range(n), 1.0)
        with pytest.raises(NonFiniteQueryError):
            reference_tournament(slow, range(n), 1.0)
        assert fast.rounds_used == len(fast.log) == j
        # each round drew one noise: the next draw is a fresh stream's (j+1)-th
        assert fast._generator().normal() == np.random.default_rng(6).normal(size=j + 1)[-1]
        slow._generator().normal()
        assert state(fast) == state(slow)


class CountingGenerator:
    """A Generator that counts its ``normal`` calls."""

    def __init__(self, seed):
        self.rng, self.normal_calls = np.random.default_rng(seed), 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("kind", [BudgetOracle, EqualBudgetAdapter],
                         ids=["oracle", "adapter"])
@pytest.mark.parametrize("n", [32, 1024])
def test_power_of_two_tournament_draws_once(n, kind):
    instance = LossInstance(np.random.default_rng(n).uniform(0, 4, n))
    for exact, rho, calls in ((False, 1.0, 1), (False, 0.9, 1), (True, 1.0, 0)):
        oracle = make_oracle(kind, instance, ceil_log2(n), exact, rho=1.0)
        oracle._rng = CountingGenerator(5)
        oracle.noisy_tournament(range(n), rho)  # rho 0.9 plans a top-up on the adapter
        assert oracle.rounds_used == ceil_log2(n)
        assert oracle._rng.normal_calls == calls
    rejected = make_oracle(kind, instance, ceil_log2(n), False)
    with pytest.raises(IndexError):
        rejected.noisy_tournament(range(1, n + 1), 1.0)
    assert rejected._rng is None


def test_adapter_first_round_budget_failure_comes_before_its_plan():
    # the round's budget 10 / 6 exceeds the total, which plan_equal_budget
    # also rejects (ValueError); the charge fails first, before any draw
    adapter = EqualBudgetAdapter(LossInstance(np.arange(64.0)), 8, 0.1, seed=0)
    with pytest.raises(BudgetExceededError):
        adapter.noisy_tournament(range(64), 10.0)
    assert (adapter.spent, adapter.rounds_used, adapter.log, adapter.plan_runs) == (
        0.0, 0, [], [])


def test_query_all_trial_leaves_one_plan_run():
    adapter = EqualBudgetAdapter(LossInstance(np.arange(1024.0)), 1024, 1.0, seed=0)
    query_all_baseline(adapter, 1.0)
    assert len(adapter.plan_runs) == 1 and adapter.plan_runs[0][1] == 1024
    assert adapter.plans == [adapter.plan_runs[0][0]] * 1024


@pytest.mark.parametrize("values", [ZEROS, [1.0, 2.0, 3.0]], ids=["zeros", "nonzero"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100, 128, 129, 1000, 1024])
def test_block_minima_are_python_min_of_every_aligned_block(n, values):
    instance = LossInstance(np.random.default_rng(n).choice(values, n))
    table = instance.block_minima()
    size = table.size
    assert size == 1 << ceil_log2(n)
    padded = list(instance.losses) + [math.inf] * (size - n)
    for j in range(1, ceil_log2(n) + 1):
        for lo in range(0, size, 1 << j):
            want = min(padded[lo:lo + (1 << j)])
            assert repr(float(table[(size + lo) >> j])) == repr(want), (j, lo)
    assert instance.block_minima() is table
    assert not table.flags.writeable


@pytest.mark.parametrize("n, failing_round",
                         [(256, j) for j in range(8)] + [(8, j) for j in range(3)],
                         ids=[*map(str, range(8)), *(f"n8-{j}" for j in range(3))])
def test_budget_failure_leaves_earlier_rounds(n, failing_round):
    # K = log2 n rounds of 1/K each; the budget holds failing_round of them.
    # n = 256 draws its first rounds' noise at once, n = 8 round by round.
    rounds = ceil_log2(n)
    instance = LossInstance(np.random.default_rng(0).uniform(0, 4, n))
    budget = failing_round / rounds if failing_round else 1 / (2 * rounds)
    fast = BudgetOracle(instance, budget, seed=2)
    slow = BudgetOracle(instance, budget, seed=2)
    with pytest.raises(BudgetExceededError):
        fast.noisy_tournament(range(n), 1.0)
    with pytest.raises(BudgetExceededError):
        reference_tournament(slow, range(n), 1.0)
    assert fast.rounds_used == len(fast.log) == failing_round
    assert state(fast) == state(slow)
    # the failing round drew nothing: the next draw is the stream's next value
    draws = np.random.default_rng(2).normal(size=failing_round + 2)
    assert fast._generator().normal() == draws[-1]


@pytest.mark.parametrize("n, failing_round",
                         [(256, j) for j in range(1, 8)] + [(8, j) for j in range(1, 3)],
                         ids=[*map(str, range(1, 8)), *(f"n8-{j}" for j in range(1, 3))])
@pytest.mark.parametrize("form", ["range", "array"])
def test_round_bound_failure_leaves_earlier_rounds(n, failing_round, form):
    # the adapter declares fewer rounds than the tournament's log2 n; n = 256
    # draws its first rounds' noise at once, n = 8 round by round
    instance = LossInstance(np.random.default_rng(1).uniform(0, 4, n))
    members = range(n) if form == "range" else np.arange(n)
    fast = EqualBudgetAdapter(instance, failing_round, 1.0, seed=4)
    slow = EqualBudgetAdapter(instance, failing_round, 1.0, seed=4)
    with pytest.raises(RoundsExceededError):
        fast.noisy_tournament(members, 1.0)
    with pytest.raises(RoundsExceededError):
        reference_tournament(slow, members, 1.0)
    assert fast.rounds_used == len(fast.log) == failing_round
    assert state(fast) == state(slow)


def test_adapter_round_bound_is_checked_after_admission():
    # the round check lives in the adapter's charge hook, after the bound
    # and finiteness checks, on both entry points
    adapter = EqualBudgetAdapter(LossInstance((1.0, 2.0, 3.0)), 1, 1.0, seed=0)
    adapter.noisy_query(Base(0), 0.5)
    with pytest.raises(SensitivityViolationError):
        adapter.noisy_query(Sub(Base(0), Base(1)), 0.25)
    with pytest.raises(RoundsExceededError):
        adapter.noisy_query(Base(1), 0.25)
    with pytest.raises(RoundsExceededError):
        adapter.noisy_tournament(range(2), 0.25)
    assert adapter.rounds_used == len(adapter.log) == 1


@pytest.mark.parametrize("kind", [BudgetOracle, EqualBudgetAdapter],
                         ids=["oracle", "adapter"])
def test_out_of_range_members_charge_and_draw_nothing(kind):
    n = 200
    instance = LossInstance(np.arange(float(n)))
    level = Level(np.arange(n), [0, 1, 3, 6], [0, 1, 2, 3, 4, 5], 1.0)
    empty = "the member set is empty"
    bad = [(range(-1, 100), None, IndexError), (range(100, n + 1), None, IndexError),
           (np.array([0, 5, n]), None, IndexError), (np.arange(-1, 90), None, IndexError),
           (np.array([0, 3]), level, IndexError), (np.array([1, 0]), level, ValueError),
           ([], None, ValueError), (np.array([], dtype=np.int64), None, ValueError),
           (range(0), None, ValueError)]
    # a singleton is admitted like any other member set before it returns 0,
    # and a subnormal rho whose per-round share underflows is no budget
    with_rho = [([10**9], None, IndexError, 1.0), ([1.5], None, TypeError, 1.0),
                (np.array([[0]]), None, ValueError, 1.0), (range(1), None, ValueError, -1.0),
                ([0], "x", TypeError, 1.0), (range(4), None, ValueError, 5e-324)]
    for members, lvl, error, rho in [case + (1.0,) for case in bad] + with_rho:
        oracle = make_oracle(kind, instance, 8, exact=False)
        with pytest.raises(error, match=empty if len(members) == 0 else None):
            oracle.noisy_tournament(members, rho, lvl)
        assert (oracle.spent, oracle.rounds_used, oracle.log, oracle._rng) == (0.0, 0, [], None)
        # the tournament admits its members by MinCompare's own rule
        if lvl is not None or len(members) == 0:
            with pytest.raises(error, match=empty if len(members) == 0 else None):
                MinCompare(members, (len(members) + 1) // 2, lvl)


@pytest.mark.parametrize("attempt", [
    lambda o: o.noisy_tournament({8, 1}, 1.0),
    lambda o: o.noisy_query(MinCompare({8, 1}, 1), 1.0),
    lambda o: o.noisy_query_batch(BaseBatch({8, 1}), 1.0),
    lambda o: o.noisy_tournament(range(2), 1.0, Level({0, 1}, [0, 1, 2], [0, 1], 1.0)),
    lambda o: o.noisy_query(build_bintree_query(frozenset({0}), {1}), 1.0),
], ids=["tournament", "MinCompare", "BaseBatch", "Level", "build_bintree_query"])
def test_unordered_sets_are_refused(attempt):
    # a set has no positions: "position 1" of {8, 1} is whichever member
    # iteration happens to yield second
    oracle = BudgetOracle(LossInstance(np.arange(10.0)), 1.0, seed=0)
    with pytest.raises(TypeError, match="must be ordered integers: (frozen)?set object"):
        attempt(oracle)
    assert (oracle.spent, oracle.rounds_used, oracle.log, oracle._rng) == (0.0, 0, [], None)


def test_mechanisms_build_no_node_and_walk_no_bound(monkeypatch):
    # a tournament's rounds are MinCompares of bound 1 by their type, so a
    # trial builds no MinCompare and makes no sensitivity_bound call
    scaled = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
    instance = generate_instance("layered", 256, 1.0, 0)
    trials = (lambda o: binary_tree_select(o, 1.0),
              lambda o: recursive_gap_select(o, 1.0, 0.1, scaled),
              lambda o: combined_select(o, 1.0, scaled))
    expected = []
    for trial in trials:
        oracle = BudgetOracle(instance, 1.0, seed=9)
        trial(oracle)
        expected.append(oracle.log_csv())
    calls = {"MinCompare": 0, "sensitivity_bound": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MinCompare, "__post_init__",
                        counted("MinCompare", MinCompare.__post_init__))
    for module in (oracle_module, queries_module):
        monkeypatch.setattr(module, "sensitivity_bound",
                            counted("sensitivity_bound", queries_module.sensitivity_bound))
    depths = []
    for trial, log in zip(trials, expected):
        oracle = BudgetOracle(instance, 1.0, seed=9)
        depths.append(trial(oracle).recursion_depth)
        assert oracle.log_csv() == log and oracle.rounds_used > 0
    assert depths[0] == 0 and min(depths[1:]) > 0  # the last two query levels
    assert calls == {"MinCompare": 0, "sensitivity_bound": 0}
    # the counters see what they count
    BudgetOracle(instance, 1.0).noisy_query(MinCompare(range(2), 1), 0.5)
    assert calls == {"MinCompare": 1, "sensitivity_bound": 1}


def test_table_is_built_once_the_blocks_asked_for_pay_for_it():
    for n in (1 << 10, 1 << 16):
        instance = LossInstance(np.random.default_rng(3).uniform(0, 1, n))
        query_all_baseline(BudgetOracle(instance, 1.0, seed=0, record_log=False), 1.0)
        exponential_mechanism(instance, 1.0, np.random.default_rng(0))
        assert "_block_minima" not in vars(instance)
        # one tournament asks for aligned blocks of 2 * (n/2 + ... + 2) = 2n - 4
        # losses, 2044 at n = 2**10 and 131,068 at 2**16, not above 2n
        first = BudgetOracle(instance, 1.0, seed=0)
        binary_tree_select(first, 1.0)
        assert vars(instance)["_block_losses_asked"] == 2 * n - 4
        assert "_block_minima" not in vars(instance)
        # the second one's first round passes 2n and builds it
        second = BudgetOracle(instance, 1.0, seed=0)
        binary_tree_select(second, 1.0)
        assert "_block_minima" in vars(instance)
        assert second.log_csv() == first.log_csv()


@pytest.mark.parametrize("k", [10, 16])
def test_aligned_tournament_reads_sibling_pairs_of_a_built_table(k, monkeypatch):
    # every round of a tournament over range(2**k) is an aligned span split in
    # halves, so once the table is built it reads both halves as one sibling
    # pair, neither reducing a side nor asking block_min for it
    n = 1 << k
    instance = LossInstance(np.random.default_rng(k).uniform(0, 1, n))
    instance.block_minima()

    def forbidden(*args):
        raise AssertionError(f"a side was reduced or asked for: {args[1:]}")

    with monkeypatch.context() as patched:
        patched.setattr(queries_module, "_range_min", forbidden)
        patched.setattr(LossInstance, "block_min", forbidden)
        fast = BudgetOracle(instance, 1.0, seed=1)
        survivor = binary_tree_select(fast, 1.0).winner
    slow = BudgetOracle(instance, 1.0, seed=1)
    assert survivor == reference_tournament(slow, range(n), 1.0, as_array=True)
    assert fast.log_csv() == slow.log_csv()
    assert fast.rounds_used == k
