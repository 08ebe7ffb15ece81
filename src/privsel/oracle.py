"""Budgeted Gaussian query oracle and the equal-budget simulation adapter.

The oracle owns the instance and is the sole gatekeeper: it verifies each
submitted expression has sensitivity bound at most 1 and a finite value,
answers with Gaussian noise of variance 1/(2*rho_i), and enforces that
declared per-query budgets never sum past the total.  ``noisy_query`` takes
one expression; ``noisy_query_batch`` takes one BaseBatch, the only batch
form; ``noisy_tournament`` runs a whole halving tournament of MinCompare
rounds of bound 1, admitting its members once (no node is built) and then
checking finiteness, charging, drawing and logging each as ``noisy_query`` would.

Randomness contract (frozen for golden tests): all noise comes from a numpy
``Generator`` over the PCG64 bit generator, built from a ``SeedSequence``;
draws consume the stream in query order via ``Generator.normal``, one noise
row per query: one value, or on the equal-budget adapter the query's m_i
round noises and then its top-up noise when the top-up variance is positive.
``_noise`` draws the rows of K queries sharing a budget (a batch, or the
first floor(log2 n) rounds of a tournament of n members) in one ``normal``
call of shape K or (K, m_i + top-up), the values of K per-query draws.
Child streams for mechanism-internal randomness come from
``SeedSequence.spawn``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LossInstance, _integer, _positive, ceil_log2
from .queries import (
    BaseBatch, Level, LossExpr, _check_indices, _members, _span_source, _take, eval_expr,
    sensitivity_bound,
)

__all__ = [
    "OracleError", "BudgetExceededError", "SensitivityViolationError",
    "NonFiniteQueryError", "RoundsExceededError", "QueryRecord",
    "BudgetOracle", "EqualBudgetPlan", "plan_equal_budget",
    "EqualBudgetAdapter", "equal_budget_simulate", "RELATIVE_BUDGET_SLACK",
]

# Relative float slack: splits like 4*rho/5 + rho/5 must recombine.
RELATIVE_BUDGET_SLACK = 1e-9
_SENSITIVITY_TOL = 1e-12
# Smallest tournament whose first rounds' noise is drawn at once: below it,
# saving the generator state for a failed round costs more than the draws save.
_WINDOW_MIN_MEMBERS = 32


class OracleError(Exception):
    """Base class for query-model contract violations."""


class BudgetExceededError(OracleError):
    """A query would push total spent budget past the declared total."""


class SensitivityViolationError(OracleError):
    """Submitted expression has structural sensitivity bound above 1."""


class NonFiniteQueryError(OracleError):
    """Submitted expression evaluates to +/-inf or NaN on the instance."""


class RoundsExceededError(OracleError):
    """More rounds issued than declared to the equal-budget simulation."""


@dataclass(frozen=True)
class QueryRecord:
    round_index: int
    rho_i: float
    sensitivity_bound: float
    answer: float


LOG_CSV_HEADER = "round,rho_i,sensitivity_bound,answer"


class BudgetOracle:
    """Curator of one instance under a finite total zCDP budget (core._positive).

    One oracle serves one trial on a single logical thread; run concurrent
    trials on distinct oracles.  Every answer is its value plus a noise row
    from ``_noise``, the one hook every entry point draws through.
    ``record_log=False`` skips per-query log records for bulk experiments;
    budget and sensitivity enforcement are unaffected.  For its lifetime the
    oracle keeps the values of every Level its tournaments and queries
    derive, so a level is derived once; it keeps no query tree.
    """

    def __init__(self, instance: LossInstance, total_budget: float, seed=None, *,
                 record_log: bool = True):
        if not isinstance(instance, LossInstance):
            raise TypeError("instance must be a LossInstance")
        self.instance = instance
        self.total_budget = _positive("total_budget", total_budget, sys.float_info.max)
        self.record_log = record_log
        self.spent = 0.0
        self.rounds_used = 0
        self.log: list[QueryRecord] = []
        self._seed_seq = (seed if isinstance(seed, np.random.SeedSequence)
                          else np.random.SeedSequence(seed))
        self._rng: np.random.Generator | None = None  # created on the first draw
        self._level_memo: dict = {}  # each derived Level and its values

    @property
    def n_candidates(self) -> int:
        return len(self.instance)

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed_seq)
        return self._rng

    def spawn_rng(self) -> np.random.Generator:
        """Independent child stream (deterministic given the oracle seed)."""
        return np.random.default_rng(self._seed_seq.spawn(1)[0])

    def _charge(self, rho_i: float, count: int) -> None:
        """Charge count queries of budget rho_i as one sum, or nothing."""
        amount = rho_i * count
        if self.spent + amount > self.total_budget * (1.0 + RELATIVE_BUDGET_SLACK):
            raise BudgetExceededError(
                f"spent {self.spent} + {amount} exceeds budget {self.total_budget}")
        self.spent += amount

    def _noise(self, count: int | None, rho_i: float) -> np.ndarray | float:
        """The noise rows of count queries of budget rho_i from one normal draw;
        with count None, one query's row alone (a float here)."""
        rng = self._rng or self._generator()
        return rng.normal(0.0, math.sqrt(1.0 / (2.0 * rho_i)), size=count)

    def _rows(self, ahead: int, rho_i: float):
        """One call's noise rows in query order, each drawn once it is asked
        for: the first ahead in one _noise draw, then one at a time."""
        yield from self._noise(ahead, rho_i).tolist()
        while True:
            yield self._noise(None, rho_i)

    def _answer(self, value: float, noise: float) -> float:
        """The answer to an admitted, charged query from its noise row."""
        return value + noise

    def _respond(self, value: float, rho_i: float, bound: float, rows=None) -> float:
        """Check, charge, answer, count and log one admitted query whose value
        is value.  Its noise is the next of rows, else drawn once it is charged."""
        if not math.isfinite(value):
            raise NonFiniteQueryError(f"query value is {value}")
        self._charge(rho_i, 1)
        answer = self._answer(value, self._noise(None, rho_i) if rows is None else next(rows))
        self.rounds_used += 1
        if self.record_log:
            self.log.append(QueryRecord(self.rounds_used - 1, rho_i, bound, answer))
        return answer

    def _answer_batch(self, values: np.ndarray, rho_each: float) -> np.ndarray:
        """The noisy answers to a charged batch, always a fresh array: one
        _noise draw with values (maybe a view of the losses) added in."""
        answers = self._noise(values.size, rho_each)
        answers += values  # noise + value: IEEE addition is commutative
        return answers

    def noisy_query(self, expr: LossExpr, rho_i: float) -> float:
        """Answer expr(instance) + N(0, 1/(2*rho_i)), charging rho_i."""
        rho_i = _positive("rho_i", rho_i)
        bound = sensitivity_bound(expr)
        if not bound <= 1.0 + _SENSITIVITY_TOL:  # a NaN bound is refused too
            raise SensitivityViolationError(f"sensitivity bound {bound} exceeds 1")
        return self._respond(eval_expr(expr, self.instance, self._level_memo), rho_i, bound)

    def noisy_tournament(self, members, rho: float, level: Level | None = None) -> int:
        """Run a noisy halving tournament; return the survivor's position in members.

        members are an index set of base candidates or, with ``level``, of
        strictly increasing positions in that level's derived losses.  With
        K = ceil(log2(len(members))), each round, at most K of them, answers
        MinCompare(members[lo:hi], mid - lo, level), mid = lo + ceil((hi - lo)
        / 2), with budget rho / K, and keeps the right half iff the noisy
        answer is > 0.  A singleton is admitted like any other member set,
        then returns 0 and charges, draws and logs nothing.

        No node is built.  The members are admitted once by MinCompare's
        rules (``_members``: not empty; over a level, increasing and in
        range) and the one round evaluator picked (``_span_source``: base
        members in range; a range of 2**K from a multiple of 2**K reads two
        sibling entries of a built block table per round) before the first
        round; a rejection charges, draws and logs nothing.  Each round, a
        MinCompare of bound 1, then does what one ``noisy_query`` of its span
        would: evaluate, then ``_respond`` (check finiteness, ``_charge``,
        ``_answer`` from its noise row, count and log the round).
        Every path takes at least w = floor(log2(n)) rounds; from
        _WINDOW_MIN_MEMBERS members on, their rows are one ``_noise`` draw
        made once the first round is charged, and a failure at round j < w
        restores the generator state saved before it and redraws j rows.  So
        a failure at round j leaves exactly the rounds before j charged,
        drawn and logged, as the per-round loop would.  rho follows core._positive.
        """
        rho = _positive("rho", rho)
        members = _members(members, level)
        n = len(members)
        value = _span_source(members, (n + 1) // 2, level, self.instance, self._level_memo)
        if n == 1:
            return 0
        rho_round = _positive("rho / K", rho / ceil_log2(n))  # a subnormal rho can underflow
        rows = None
        if n >= _WINDOW_MIN_MEMBERS:
            ahead, start = n.bit_length() - 1, self.rounds_used
            saved, rows = self._generator().bit_generator.state, self._rows(ahead, rho_round)
        respond = self._respond
        lo, hi = 0, n
        try:
            while hi - lo > 1:
                mid = lo + (hi - lo + 1) // 2
                if respond(value(lo, mid, hi), rho_round, 1.0, rows) > 0:
                    lo = mid
                else:
                    hi = mid
        except OracleError:
            if rows is not None and 0 < self.rounds_used - start < ahead:
                self._rng.bit_generator.state = saved  # as if drawn round by round
                self._noise(self.rounds_used - start, rho_round)
            raise
        return lo

    def noisy_query_batch(self, batch: BaseBatch, rho_each: float) -> np.ndarray:
        """Answer the queries Base(i) of a BaseBatch, each with budget rho_each.

        Equivalent to one noisy_query per query, in order, answered as one
        vectorised batch: range check (a range's two ends), one ``_charge``
        of count queries (the hook each scalar query charges through, with
        count 1), ``_answer_batch`` over the values ``_take`` reads (the
        values of that many scalar answers, in one noise buffer), then the
        log.  The batch is admitted whole or not at all: a rejected
        batch charges, draws and logs nothing.  Any input other than a
        BaseBatch raises TypeError.
        """
        if type(batch) is not BaseBatch:
            raise TypeError(f"a batch must be a BaseBatch, got {type(batch).__name__}")
        rho_each = _positive("rho_each", rho_each)
        idx = batch.indices
        count = len(idx)
        if count == 0:
            return np.empty(0)
        _check_indices(idx, self.n_candidates)
        self._charge(rho_each, count)
        answers = self._answer_batch(_take(self.instance.as_array(), idx), rho_each)
        start = self.rounds_used
        self.rounds_used += count
        if self.record_log:
            self.log.extend(
                QueryRecord(start + i, rho_each, 1.0, a)
                for i, a in enumerate(answers.tolist()))
        return answers

    def log_csv(self) -> str:
        """Query log as CSV; floats use shortest round-trip decimals."""
        lines = [LOG_CSV_HEADER]
        lines.extend(
            f"{r.round_index},{r.rho_i!r},{r.sensitivity_bound!r},{r.answer!r}"
            for r in self.log)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Equal-budget model: every round carries the same budget rho'/M'.  A
# variable-budget run with at most M rounds and total budget rho is simulated
# with M' = 2M rounds of budget rho'/M' = rho/M (total rho' = 2*rho): each
# query is repeated m_i = ceil(M'*rho_i/rho') times, averaged, and topped up
# with independent noise so the answer is distributed exactly as
# N(value, 1/(2*rho_i)).


@dataclass(frozen=True)
class EqualBudgetPlan:
    """Per-query accounting of the equal-budget simulation."""

    m_rounds_total: int     # M' = 2 * declared round bound
    per_round_budget: float  # rho' / M'
    per_query_repeats: int   # m_i
    topup_variance: float

    def __post_init__(self):
        if self.topup_variance < 0:
            raise ValueError("topup_variance must be nonnegative")


def plan_equal_budget(rho_i: float, m_bound: int, rho: float) -> EqualBudgetPlan:
    """Repeat count and top-up variance for one variable-budget query; m_bound
    is an integer >= 1, rho > 0 and rho_i in (0, rho] (core._integer, _positive)."""
    m_bound = _integer("m_bound", m_bound, 1)
    rho = _positive("rho", rho)
    rho_i = _positive("rho_i", rho_i, rho * (1.0 + RELATIVE_BUDGET_SLACK))
    m_prime = 2 * m_bound
    rho_prime = 2.0 * rho
    ratio = m_prime * rho_i / rho_prime
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= 1e-12 * max(1.0, abs(ratio)):
        repeats = int(nearest)  # guard float error on exactly-integer ratios
    else:
        repeats = int(math.ceil(ratio))
    per_round_var = m_prime / (2.0 * rho_prime)
    topup = 1.0 / (2.0 * rho_i) - per_round_var / repeats
    # ceil guarantees repeats >= M'*rho_i/rho', hence topup >= 0 up to floats
    assert topup >= -1e-12 / rho_i, f"negative top-up variance {topup}"
    return EqualBudgetPlan(m_prime, rho_prime / m_prime, repeats, max(topup, 0.0))


class EqualBudgetAdapter(BudgetOracle):
    """A BudgetOracle whose answers are built from equal-budget rounds.

    Admission, the query, batch and tournament sequences, logging and
    ``spawn_rng`` are the oracle's own, so any mechanism runs unchanged; the
    adapter supplies the charge and answer hooks.  The declared contract (at
    most ``m_bound`` variable-budget rounds, total budget at most ``rho``)
    is enforced in the charge hook, so every entry point checks it.  After
    a query's sensitivity and finiteness checks, ``_charge`` checks the
    round bound, then the budget, then the equal-budget round bound M', and
    charges only once all three pass.  The induced equal-budget round count
    ``inner_rounds_used`` then never exceeds 2 * m_bound by construction.
    m_bound is an integer >= 1 (core._integer's rule), stored as an int.
    """

    def __init__(self, instance: LossInstance, m_bound: int, rho: float,
                 seed=None, *, record_log: bool = True):
        m_bound = _integer("m_bound", m_bound, 1)
        rho = _positive("rho", rho, sys.float_info.max)
        super().__init__(instance, rho, seed, record_log=record_log)
        self.m_bound = m_bound
        self.inner_rounds_used = 0
        self.plan_runs: list[list] = []  # [plan, count] per run of queries sharing a plan
        self._last_plan: tuple[float, EqualBudgetPlan | None] = (math.nan, None)

    @property
    def plans(self) -> list[EqualBudgetPlan]:
        """The plan of every answered query, in query order."""
        return [plan for plan, count in self.plan_runs for _ in range(count)]

    def _plan(self, rho_i: float) -> EqualBudgetPlan:
        """The plan of a query of budget rho_i, cached for the last rho_i."""
        last_rho, plan = self._last_plan
        if rho_i != last_rho:  # a tournament's rounds share one rho_i and so one plan
            plan = plan_equal_budget(rho_i, self.m_bound, self.total_budget)
            self._last_plan = (rho_i, plan)
        return plan

    def _charge(self, rho_i: float, count: int) -> None:
        """Check count queries of budget rho_i against the round bound, the
        budget and M', in that order, then charge them; a failed check
        charges nothing.

        The charges are added one by one (``np.add.accumulate`` adds in
        order), so ``spent`` is the float the per-query loop would reach.
        """
        if self.rounds_used + count > self.m_bound:
            raise RoundsExceededError(
                f"mechanism exceeded its declared bound of {self.m_bound} rounds")
        if count == 1:
            total = self.spent + rho_i
        else:
            spent = np.full(count + 1, rho_i)
            spent[0] = self.spent
            total = float(np.add.accumulate(spent, out=spent)[-1])
        if total > self.total_budget * (1.0 + RELATIVE_BUDGET_SLACK):
            raise BudgetExceededError(
                f"spent {self.spent} + {count} * {rho_i} exceeds budget {self.total_budget}")
        plan = self._plan(rho_i)
        rounds = count * plan.per_query_repeats
        if self.inner_rounds_used + rounds > plan.m_rounds_total:
            raise RoundsExceededError(
                f"{self.inner_rounds_used} + {rounds} rounds exceeds {plan.m_rounds_total}")
        self.inner_rounds_used += rounds
        if self.plan_runs and self.plan_runs[-1][0] is plan:
            self.plan_runs[-1][1] += count
        else:
            self.plan_runs.append([plan, count])
        self.spent = total

    def _noise(self, count: int | None, rho_i: float) -> np.ndarray:
        """Per query of budget rho_i, its m_i round noises and then its top-up
        noise when the top-up variance is positive: one normal draw (with
        count None, one query's row alone)."""
        plan = self._plan(rho_i)
        repeats, topup = plan.per_query_repeats, plan.topup_variance > 0
        size = repeats + topup if count is None else (count, repeats + topup)
        sigma = math.sqrt(1.0 / (2.0 * plan.per_round_budget))
        if not topup:
            return self._generator().normal(0.0, sigma, size=size)
        # normal(0.0, s) computes 0.0 + s * z, the float that s times normal(0.0,
        # 1.0)'s 0.0 + z gives for every z; a scale per column makes numpy broadcast
        noise = self._generator().normal(0.0, 1.0, size=size)
        noise *= [sigma] * repeats + [math.sqrt(plan.topup_variance)]
        return noise

    def _answer(self, value: float, noise) -> float:
        """Average m_i equal-budget rounds, then top up to variance 1/(2*rho_i),
        from the query's noise row."""
        plan = self._last_plan[1]  # the query's, planned by _charge
        repeats = plan.per_query_repeats
        if repeats == 1:  # np.mean of one value: 0.0 plus it, over 1
            answer = 0.0 + (value + noise[0])
        else:
            answer = (value + np.asarray(noise[:repeats])).mean()
        if plan.topup_variance > 0:
            answer += noise[repeats]
        return float(answer)

    def _answer_batch(self, values: np.ndarray, rho_each: float) -> np.ndarray:
        """Each query's answer as _answer builds it, from one _noise draw."""
        plan = self._plan(rho_each)
        repeats = plan.per_query_repeats
        noise = self._noise(values.size, rho_each)
        answers = (values[:, None] + noise[:, :repeats]).mean(axis=1)
        if plan.topup_variance > 0:
            answers += noise[:, repeats]
        return answers


def equal_budget_simulate(instance: LossInstance,
                          mechanism: Callable[[EqualBudgetAdapter], object],
                          m_bound: int, rho: float, seed=None, *,
                          record_log: bool = True):
    """Run a mechanism against the equal-budget adapter.

    ``mechanism`` is called with the adapter as its oracle and must use at
    most ``m_bound`` rounds and total budget ``rho``.  Returns the mechanism
    output together with the adapter (for round/variance accounting).
    ``record_log`` is the adapter's, as for BudgetOracle.
    """
    adapter = EqualBudgetAdapter(instance, m_bound, rho, seed, record_log=record_log)
    result = mechanism(adapter)
    return result, adapter
