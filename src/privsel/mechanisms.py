"""Selection mechanisms over a budgeted Gaussian query oracle.

Every mechanism here (except the exponential mechanism, which is a baseline
outside the query model) touches the data exclusively through the oracle:
each halving tournament is one ``noisy_tournament`` call, combined_select's
final comparison a two-member one, and query_all one ``BaseBatch(range(n))``
through ``noisy_query_batch``, answered in one noise buffer.  Control flow,
the tournament's inside the oracle included, depends only on noisy answers
and the mechanism's own seeded randomness.  Budgets and betas follow core._positive.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONSTANTS, RECURSION_SPLIT, LossInstance, MechanismConstants,
                   _positive, ceil_log2, loss_scale, recursion_schedule)
from .queries import BaseBatch, Level

__all__ = [
    "SelectionResult", "InfeasibleConfigError", "DEFAULT_WORK_CAP",
    "binary_tree_select", "recursive_gap_select", "combined_select",
    "exponential_mechanism", "query_all_baseline",
    "binary_tree_round_bound", "recursive_gap_round_bound",
    "combined_round_bound", "query_all_round_bound",
]

# Cap on T * (largest subset size): the subsampling stage materializes about
# this many index slots, 8 bytes each and twice that while a level's draws
# are joined, so reject configurations beyond it up front.
DEFAULT_WORK_CAP = 10**9


class InfeasibleConfigError(ValueError):
    """A level's subsampling work T * 2**(K-1) exceeds DEFAULT_WORK_CAP.

    Expected for the un-scaled constants at exponents K large enough to leave
    the base case: T grows like 2**(3*sqrt(K)).
    """


@dataclass(frozen=True)
class SelectionResult:
    winner: int
    rounds_used: int
    budget_spent: float
    recursion_depth: int = 0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _metered(oracle, select) -> SelectionResult:
    """The result of select() -> (winner, recursion depth), charged with the
    rounds and budget the oracle counted while it ran."""
    spent0, rounds0 = oracle.spent, oracle.rounds_used
    winner, depth = select()
    return SelectionResult(winner=int(winner), rounds_used=oracle.rounds_used - rounds0,
                           budget_spent=oracle.spent - spent0, recursion_depth=depth)


def binary_tree_select(oracle, rho: float) -> SelectionResult:
    """Noisy halving tournament over all n candidates.

    Splits the candidates in index order into the first ceil(n/2) and the
    rest, queries which half holds the smaller minimum, descends, and repeats;
    at most ceil(log2(n)) queries (exactly that many when n is a power of
    two) of budget rho/ceil(log2(n)) each, run by ``oracle.noisy_tournament``
    over ``range(n)``.  A single candidate returns immediately with no budget
    spent.
    """
    rho = _positive("rho", rho)
    return _metered(oracle, lambda: (oracle.noisy_tournament(range(oracle.n_candidates), rho), 0))


def _combined_beta(n: int) -> float:
    """The beta combined_select gives its recursive stage: 1/ceil(log2(n))."""
    return 1.0 / max(ceil_log2(n), 1)


def _draw_subsets(rng, n: int, k: int, t_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The T random subsets of range(n) of one level, as CSR (indptr, indices).

    Subset t has 2**(k - k_t) members, k_t uniform on 1..k, drawn without
    replacement and sorted as drawn.
    """
    draws = []
    for _ in range(t_rounds):
        k_t = int(rng.integers(1, k + 1))
        d = rng.choice(n, size=1 << (k - k_t), replace=False)
        d.sort()
        draws.append(d)
    indptr = np.zeros(t_rounds + 1, dtype=np.int64)
    np.cumsum([d.size for d in draws], out=indptr[1:])
    return indptr, np.concatenate(draws)


def _recursive_gap(oracle, members, levels, offsets, rng, j=0) -> int:
    """Position of the winner in members, the candidates of schedule level j:
    range(n), the base candidates, at the top level, else a Level whose
    derived losses are the candidates; range(n) is level 0 itself.  A step-1
    range is kept as given, any other ordered input becomes an int64 array,
    and a set raises TypeError.
    """
    level = members if type(members) is Level else None
    k, t_rounds, rho, _ = levels[j]
    if not t_rounds:
        return oracle.noisy_tournament(range(len(members)), rho, level)

    indptr, indices = _draw_subsets(rng, len(members), k, t_rounds)
    derived = Level(members, indptr, indices, offsets[j])

    t_out = _recursive_gap(oracle, derived, levels, offsets, rng, j + 1)

    # at the top level a position in range(n) is its base candidate
    sel = indices[indptr[t_out]:indptr[t_out + 1]]
    pos = oracle.noisy_tournament(sel, (1.0 - RECURSION_SPLIT) * rho, level)
    return int(sel[pos])


def recursive_gap_select(oracle, rho: float, beta: float,
                         consts: MechanismConstants = DEFAULT_CONSTANTS,
                         rng: np.random.Generator | None = None) -> SelectionResult:
    """Recursive large-gap subset selection over all n candidates.

    Walks core.recursion_schedule(n, rho, beta, consts), which is fixed
    before the first draw.  The base-case level runs the halving tournament
    with the level's full budget.  Any other level, on 2**K candidates, draws
    T random subsets (size 2**(K - k_t), k_t uniform on 1..K), scores each by
    a derived sensitivity-1 loss favoring subsets with large gap and small
    offset optimum, selects a subset by recursing on the derived losses with
    budgets (4/5*rho, 4/5*beta), and finishes with a tournament over the
    chosen subset at the rest of rho.  InfeasibleConfigError (a level's
    T * 2**(K-1) index slots exceed DEFAULT_WORK_CAP) and ValueError (a
    level's loss scale overflows) come before any draw or spend.

    Each derived level is one Level node over the level below, and every
    query on it is a MinCompare over that level, so every noisy answer still
    flows through the single oracle.
    """
    rho, beta = _positive("rho", rho), _positive("beta", beta, 1)
    n = oracle.n_candidates
    levels = recursion_schedule(n, rho, beta, consts)
    for k, t_rounds, _, _ in levels[:-1]:
        if t_rounds << (k - 1) > DEFAULT_WORK_CAP:
            raise InfeasibleConfigError(f"subsampling work 2**{math.log2(t_rounds) + k - 1:.1f}"
                                        f" exceeds cap {DEFAULT_WORK_CAP}")
    offsets = [(k + math.sqrt(k)) * loss_scale(k, rho_j, beta_j, consts)
               for k, _, rho_j, beta_j in levels[:-1]]
    if rng is None:
        rng = oracle.spawn_rng()
    return _metered(oracle, lambda: (
        _recursive_gap(oracle, range(n), levels, offsets, rng), len(levels) - 1))


def combined_select(oracle, rho: float,
                    consts: MechanismConstants = DEFAULT_CONSTANTS,
                    rng: np.random.Generator | None = None) -> SelectionResult:
    """Best of the recursive mechanism and the tournament, by one comparison.

    Runs recursive_gap_select with (rho/3, beta=1/K) and binary_tree_select
    with rho/3, then spends the last rho/3 on a two-member tournament of
    the two winners: the second wins iff that comparison is strictly positive.
    """
    rho = _positive("rho", rho)
    n = oracle.n_candidates
    if n < 2:
        raise ValueError("combined_select needs at least two candidates")
    beta = _combined_beta(n)
    if rng is None:
        rng = oracle.spawn_rng()

    def select():
        first = recursive_gap_select(oracle, rho / 3.0, beta, consts, rng)
        second = binary_tree_select(oracle, rho / 3.0)
        winners = [first.winner, second.winner]
        return winners[oracle.noisy_tournament(winners, rho / 3.0)], first.recursion_depth
    return _metered(oracle, select)


def exponential_mechanism(instance: LossInstance, rho: float,
                          rng: np.random.Generator) -> SelectionResult:
    """Classical baseline outside the query model.

    Samples a candidate with probability proportional to exp(-eps*loss/2)
    where eps = sqrt(2*rho), via a max-shifted stable softmax.  That eps is
    the conservative pure-DP to zCDP conversion (eps-DP implies
    eps**2/2-zCDP); the bounded-range sqrt(8*rho) is deliberately not used.

    The draw is the one Generator.choice(n, p=probs) makes: the cdf
    cumsum(probs) / its last entry, one rng.random() uniform, and the
    right-sided searchsorted of that uniform, so winner and generator state
    match it bit for bit.  The winner is that searchsorted index, found by
    bisecting the cumsum with only the probed entries divided by its last:
    a cumsum of weights >= 0 never decreases and correctly rounded division
    by a positive constant is monotone, so "entry / last <= u" is a monotone
    test on the very quotients the full division would write, and its
    boundary is the same index.  All of it runs in place in one n-float
    buffer.  Of choice's checks on p only one can fail here, and it is kept:
    a logit below the max that overflows to -inf only gets weight 0, but a
    max logit that is not finite (an overflow, or eps itself infinite) makes
    the shifted logits, and so the weights' total, NaN, and ValueError is
    raised before any draw; numpy's overflow warnings are silenced, so that
    error is the one report.  The others always hold: the buffer is 1-D with
    n entries, every weight is >= 0 because it comes from exp, and after the
    division the weights sum to 1 within sqrt(machine epsilon).
    """
    rho = _positive("rho", rho)
    eps = math.sqrt(2.0 * rho)
    with np.errstate(over="ignore", invalid="ignore"):
        cdf = -0.5 * eps * instance.as_array()
        cdf -= cdf.max()
    np.exp(cdf, out=cdf)
    total = cdf.sum()
    if not math.isfinite(total):
        raise ValueError(f"exponential mechanism weights sum to {total} at rho={rho}: "
                         "the logits overflow a float")
    cdf /= total
    np.cumsum(cdf, out=cdf)
    last = cdf[-1]
    winner = bisect.bisect_right(cdf, rng.random(), key=lambda s: s / last)
    return SelectionResult(winner=winner, rounds_used=0, budget_spent=rho)


def query_all_baseline(oracle, rho: float) -> SelectionResult:
    """Query every candidate's loss at budget rho/n; return the noisy argmin.

    Exact ties go to the lowest index.
    """
    rho = _positive("rho", rho)
    n = oracle.n_candidates
    return _metered(
        oracle, lambda: (np.argmin(oracle.noisy_query_batch(BaseBatch(range(n)), rho / n)), 0))


# ---------------------------------------------------------------------------
# Static round bounds, e.g. for declaring the equal-budget simulation's M.
# These are conservative: recursive_gap_round_bound sums K over the schedule,
# charging each level's final tournament, over one subset, at the full K.


def binary_tree_round_bound(n: int) -> int:
    return max(ceil_log2(n), 1)


def recursive_gap_round_bound(n: int, beta: float,
                              consts: MechanismConstants = DEFAULT_CONSTANTS) -> int:
    # rho enters neither K nor the base-case rule, so any rho gives the same levels
    beta = _positive("beta", beta, 1)
    return max(sum(k for k, _, _, _ in recursion_schedule(n, 1.0, beta, consts)), 1)


def combined_round_bound(n: int, consts: MechanismConstants = DEFAULT_CONSTANTS) -> int:
    return (recursive_gap_round_bound(n, _combined_beta(n), consts)
            + binary_tree_round_bound(n) + 1)


def query_all_round_bound(n: int) -> int:
    return n
