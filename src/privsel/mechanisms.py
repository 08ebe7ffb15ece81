"""Selection mechanisms over a budgeted Gaussian query oracle.

Every mechanism here (except the exponential mechanism, which is a baseline
outside the query model) touches the data exclusively through the oracle:
each halving tournament is one ``noisy_tournament`` call, combined_select's
final comparison a two-member one, and query_all one ``BaseBatch(range(n))``
through ``noisy_query_batch``, answered in one noise buffer.  Control flow,
the tournament's inside the oracle included, depends only on noisy answers
and the mechanism's own seeded randomness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONSTANTS, RECURSION_SPLIT, SUBSET_ROUNDS_COEFF, LossInstance,
                   MechanismConstants, ceil_log2, loss_scale)
from .queries import BaseBatch, Level, _index_array

__all__ = [
    "SelectionResult", "InfeasibleConfigError", "DEFAULT_WORK_CAP",
    "binary_tree_select", "recursive_gap_select", "combined_select",
    "exponential_mechanism", "query_all_baseline",
    "binary_tree_round_bound", "recursive_gap_round_bound",
    "combined_round_bound", "query_all_round_bound",
]

# Cap on T * (largest subset size): the subsampling stage materializes about
# this many index slots, so reject configurations beyond it up front.
DEFAULT_WORK_CAP = 10**9


class InfeasibleConfigError(ValueError):
    """Subsampling round count exceeds the configured work cap.

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
        return {
            "winner": self.winner,
            "rounds_used": self.rounds_used,
            "budget_spent": self.budget_spent,
            "recursion_depth": self.recursion_depth,
        }


def _candidate_span(oracle, candidates) -> np.ndarray | range:
    """The candidate set, sorted and duplicate-free: a range when it is
    contiguous (the default set of all candidates included), else an int64
    array.

    Indices follow ``queries._index_array``'s rules: a float or bool dtype
    raises TypeError and input that is not one-dimensional ValueError.
    """
    if candidates is None:
        return range(oracle.n_candidates)
    arr = _index_array(candidates)
    # a small set is checked on one list: its order, both ends and contiguity
    lst = arr.tolist() if arr.size <= 64 else None
    increasing = (all(map(operator.lt, lst, lst[1:])) if lst is not None
                  else (arr[1:] > arr[:-1]).all())
    if not increasing:
        arr, lst = np.unique(arr), None
    if arr.size == 0:
        raise ValueError("candidate set must be non-empty")
    first, last = (lst[0], lst[-1]) if lst is not None else (int(arr[0]), int(arr[-1]))
    if first < 0 or last >= oracle.n_candidates:
        raise IndexError("candidate index out of range")
    if last - first == arr.size - 1:
        return range(first, last + 1)
    return arr


def binary_tree_select(oracle, rho: float, candidates=None) -> SelectionResult:
    """Noisy halving tournament over the candidate set.

    Splits the candidates in index order into the first ceil(n/2) and the
    rest, queries which half holds the smaller minimum, descends, and repeats;
    at most ceil(log2(n)) queries (exactly that many when n is a power of
    two) of budget rho/ceil(log2(n)) each, run by ``oracle.noisy_tournament``.
    A contiguous candidate set is passed as a range.  A singleton returns
    immediately with no budget spent.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    idx = _candidate_span(oracle, candidates)
    spent0, rounds0 = oracle.spent, oracle.rounds_used
    pos = oracle.noisy_tournament(idx, rho)
    return SelectionResult(
        winner=int(idx[pos]),
        rounds_used=oracle.rounds_used - rounds0,
        budget_spent=oracle.spent - spent0,
        recursion_depth=0,
    )


def _draw_subsets(rng, n: int, k: int, t_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The T random subsets of range(n) of one level, as CSR (indptr, indices).

    Subset t has 2**(k - k_t) members, k_t uniform on 1..k, drawn without
    replacement and stored in increasing order.
    """
    draws = []
    for _ in range(t_rounds):
        k_t = int(rng.integers(1, k + 1))
        draws.append(rng.choice(n, size=1 << (k - k_t), replace=False))
    indptr = np.zeros(t_rounds + 1, dtype=np.int64)
    np.cumsum([d.size for d in draws], out=indptr[1:])
    # sorting on segment * n + position sorts every subset in one call
    shift = np.repeat(np.arange(0, t_rounds * n, n, dtype=np.int64), np.diff(indptr))
    indices = np.concatenate(draws)
    indices += shift
    indices.sort()
    indices -= shift
    return indptr, indices


def _is_base_case(k: int, beta: float, consts: MechanismConstants) -> bool:
    """The recursion's stopping rule on 2**k candidates: run the tournament."""
    return k <= consts.base_threshold_log or beta <= 2.0 ** (-k)


def _recursive_gap(oracle, members, rho, beta, consts, rng, work_cap):
    """Returns (position of winner in members, recursion depth used).

    members are base candidate indices (a step-1 range or an int64 array),
    or a Level whose derived losses are the candidates.
    """
    n = len(members)
    level = members if type(members) is Level else None
    k = ceil_log2(n)
    if _is_base_case(k, beta, consts):
        return oracle.noisy_tournament(members if level is None else range(n), rho, level), 0

    log2_t = SUBSET_ROUNDS_COEFF * math.sqrt(k) - 1.0
    # feasibility in log space: T * 2**(k-1) must stay under the work cap
    if log2_t + (k - 1) > math.log2(work_cap):
        raise InfeasibleConfigError(
            f"subsampling work 2**{log2_t + (k - 1):.1f} exceeds cap {work_cap}")
    t_rounds = int(math.ceil(2.0 ** log2_t))
    xi_value = loss_scale(k, rho, beta, consts)

    indptr, indices = _draw_subsets(rng, n, k, t_rounds)
    if type(members) is range:  # Level and the subset gather below need an array
        members = np.arange(members.start, members.stop, dtype=np.int64)
    derived = Level(members, indptr, indices, (k + math.sqrt(k)) * xi_value)

    t_out, depth = _recursive_gap(oracle, derived, RECURSION_SPLIT * rho,
                                  RECURSION_SPLIT * beta, consts, rng, work_cap)

    sel = indices[indptr[t_out]:indptr[t_out + 1]]
    pos = oracle.noisy_tournament(sel if level is not None else members[sel],
                                  (1.0 - RECURSION_SPLIT) * rho, level)
    return int(sel[pos]), depth + 1


def recursive_gap_select(oracle, rho: float, beta: float,
                         consts: MechanismConstants = DEFAULT_CONSTANTS,
                         rng: np.random.Generator | None = None,
                         candidates=None, work_cap: int = DEFAULT_WORK_CAP) -> SelectionResult:
    """Recursive large-gap subset selection.

    With K = ceil(log2(n)) computed first: if K <= consts.base_threshold_log
    or beta <= 2**-K, delegates to the halving tournament with the full budget.
    Otherwise draws T = ceil(2**(3*sqrt(K)-1)) random subsets (size
    2**(K - k_t), k_t uniform on 1..K), scores each by a derived sensitivity-1
    loss favoring subsets with large gap and small offset optimum, selects a
    subset by recursing on the derived losses with budgets (4/5*rho, 4/5*beta),
    and finishes with a tournament over the chosen subset at the rest of rho.
    T and the splits are fixed (core.SUBSET_ROUNDS_COEFF, RECURSION_SPLIT);
    consts sets the loss scale and the base case.  InfeasibleConfigError (over
    work_cap) and ValueError (the loss scale overflows) come before any spend.

    Each derived level is one Level node over the level below, and every
    query on it is a MinCompare over that level, so every noisy answer still
    flows through the single oracle.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    idx = _candidate_span(oracle, candidates)
    if rng is None:
        rng = oracle.spawn_rng()
    spent0, rounds0 = oracle.spent, oracle.rounds_used
    pos, depth = _recursive_gap(oracle, idx, rho, beta, consts, rng, work_cap)
    return SelectionResult(
        winner=int(idx[pos]),
        rounds_used=oracle.rounds_used - rounds0,
        budget_spent=oracle.spent - spent0,
        recursion_depth=depth,
    )


def combined_select(oracle, rho: float,
                    consts: MechanismConstants = DEFAULT_CONSTANTS,
                    rng: np.random.Generator | None = None) -> SelectionResult:
    """Best of the recursive mechanism and the tournament, by one comparison.

    Runs recursive_gap_select with (rho/3, beta=1/K) and binary_tree_select
    with rho/3, then spends the last rho/3 on a two-member tournament of
    the two winners: the second wins iff that comparison is strictly positive.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = oracle.n_candidates
    if n < 2:
        raise ValueError("combined_select needs at least two candidates")
    k = ceil_log2(n)
    beta = 1.0 / k
    if rng is None:
        rng = oracle.spawn_rng()
    spent0, rounds0 = oracle.spent, oracle.rounds_used
    first = recursive_gap_select(oracle, rho / 3.0, beta, consts, rng)
    second = binary_tree_select(oracle, rho / 3.0)
    pos = oracle.noisy_tournament([first.winner, second.winner], rho / 3.0)
    winner = second.winner if pos == 1 else first.winner
    return SelectionResult(
        winner=winner,
        rounds_used=oracle.rounds_used - rounds0,
        budget_spent=oracle.spent - spent0,
        recursion_depth=first.recursion_depth,
    )


def exponential_mechanism(instance: LossInstance, rho: float,
                          rng: np.random.Generator) -> SelectionResult:
    """Classical baseline outside the query model.

    Samples a candidate with probability proportional to exp(-eps*loss/2)
    where eps = sqrt(2*rho), via a max-shifted stable softmax built in place
    in one n-float buffer.  That eps is the conservative pure-DP to zCDP
    conversion (eps-DP implies eps**2/2-zCDP); the bounded-range sqrt(8*rho)
    is deliberately not used.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    eps = math.sqrt(2.0 * rho)
    probs = -0.5 * eps * instance.as_array()
    probs -= probs.max()
    np.exp(probs, out=probs)
    probs /= probs.sum()
    winner = int(rng.choice(len(probs), p=probs))
    return SelectionResult(winner=winner, rounds_used=0, budget_spent=rho)


def query_all_baseline(oracle, rho: float) -> SelectionResult:
    """Query every candidate's loss at budget rho/n; return the noisy argmin.

    Exact ties go to the lowest index.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = oracle.n_candidates
    spent0, rounds0 = oracle.spent, oracle.rounds_used
    answers = oracle.noisy_query_batch(BaseBatch(range(n)), rho / n)
    return SelectionResult(
        winner=int(np.argmin(answers)),
        rounds_used=oracle.rounds_used - rounds0,
        budget_spent=oracle.spent - spent0,
        recursion_depth=0,
    )


# ---------------------------------------------------------------------------
# Static round bounds, e.g. for declaring the equal-budget simulation's M.
# These are conservative: they follow the deterministic (K, beta) recursion
# path and charge every level's tournament at the full level exponent.


def binary_tree_round_bound(n: int) -> int:
    return max(ceil_log2(n), 1)


def recursive_gap_round_bound(n: int, beta: float,
                              consts: MechanismConstants = DEFAULT_CONSTANTS) -> int:
    if n == 1:
        return 1
    k = ceil_log2(n)
    total = 0
    while not _is_base_case(k, beta, consts):
        total += k  # final tournament at this level selects within a subset
        k = int(math.ceil(SUBSET_ROUNDS_COEFF * math.sqrt(k) - 1.0))  # ceil(log2(T)) below
        beta *= RECURSION_SPLIT
    return max(total + k, 1)


def combined_round_bound(n: int, consts: MechanismConstants = DEFAULT_CONSTANTS) -> int:
    k = max(ceil_log2(n), 1)
    return recursive_gap_round_bound(n, 1.0 / k, consts) + binary_tree_round_bound(n) + 1


def query_all_round_bound(n: int) -> int:
    return n
