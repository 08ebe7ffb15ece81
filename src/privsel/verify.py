"""Numeric and combinatorial certification of the analysis behind the mechanisms.

Three families of checks:

* Inequality certification: the closed-form loss/error scales satisfy the
  recursion inequalities that drive the high-probability error bound.
  point_checks certifies all three at one recursion point (K, rho, beta) and
  appendix_grid runs it over a parameter grid.  They are evaluated in high
  precision (mpmath, 60 significant digits); a comparison that lands within
  1e-9 relative distance of equality is reported INCONCLUSIVE rather than
  pass/fail.

* Subset combinatorics: the closed-form probability that a uniform random
  subset isolates exactly one of the best candidates, against independent
  exact oracles (sequential-draw dynamic program, literal subset enumeration)
  and Monte Carlo sampling.

* Sensitivity fuzzing: random expressions evaluated on random neighboring
  loss vectors must never move by more than their structural bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

import numpy as np

from .core import (
    DEFAULT_CONSTANTS, SUBSET_ROUNDS_COEFF, LossInstance, MechanismConstants, _integer,
    _positive, derived_rounds_ceil_log, loss_scale,
)
from .queries import (
    AddConst, Base, Const, GapOver, MaxOver, MinOver, Scale, Sub,
    build_bintree_query, build_tilde_loss, eval_expr, format_expr,
    sensitivity_bound,
)

__all__ = [
    "Verdict", "CheckResult", "INCONCLUSIVE_REL",
    "gap_threshold_hp", "loss_scale_hp", "error_scale_from_log_hp",
    "point_checks",
    "GRID_KS", "GRID_BETAS", "GRID_RHOS", "appendix_grid",
    "subset_event_probability", "subset_event_probability_dp",
    "subset_event_probability_enum", "ENUM_MAX_SUBSETS", "subset_event_mc",
    "check_good_subset_rate", "FuzzReport", "sensitivity_fuzz",
]

_DPS = 60
# Comparisons this close to equality (relative) are not trusted either way.
INCONCLUSIVE_REL = 1e-9


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CheckResult:
    claim: str
    params: str
    verdict: Verdict
    margin: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


# ---------------------------------------------------------------------------
# High-precision closed forms, outside core._positive: float() would drop digits.
# First arguments may be any positive reals here (core restricts them to integers).
# mpmath is imported inside them, so a process that does not certify never loads it.


def loss_scale_hp(k, rho, beta, consts: MechanismConstants = DEFAULT_CONSTANTS):
    """mpmath twin of core.loss_scale, accepting real k > 0."""
    import mpmath
    with mpmath.workdps(_DPS):
        k = mpmath.mpf(k)
        if not k > 0:
            raise ValueError(f"k must be positive, got {k}")
        c = mpmath.mpf(consts.c_xi)
        arg = c * (k + 1) / mpmath.mpf(beta)
        if not arg > 1:
            raise ValueError(f"log argument must exceed 1, got {arg}")
        return (c / mpmath.sqrt(rho)) \
            * (1 + mpmath.log(k, 2)) ** consts.p_xi \
            * mpmath.log(arg, 2)


def gap_threshold_hp(ceil_log_m, rho, beta):
    """mpmath twin of core.gap_threshold in terms of the ceil-log argument."""
    import mpmath
    with mpmath.workdps(_DPS):
        k = mpmath.mpf(ceil_log_m)
        if not k > 0:
            raise ValueError(f"ceil_log_m must be positive, got {ceil_log_m}")
        inner = mpmath.log(k / mpmath.mpf(beta), 2)
        if not inner > 0:
            raise ValueError("need ceil_log_m / beta > 1")
        return 2 * mpmath.sqrt(k * inner) / mpmath.sqrt(rho)


def error_scale_from_log_hp(ceil_log_m, rho, beta,
                            consts: MechanismConstants = DEFAULT_CONSTANTS):
    """mpmath twin of core.error_scale in terms of the ceil-log argument,
    2 * ceil_log_m * loss_scale_hp(ceil_log_m, ...), accepting real arguments."""
    import mpmath
    with mpmath.workdps(_DPS):
        k = mpmath.mpf(ceil_log_m)
        return 2 * k * loss_scale_hp(k, rho, beta, consts)


def _verdict(favored, other) -> tuple[Verdict, float]:
    """PASS iff favored >= other, with a relative dead zone; inside workdps(_DPS)."""
    denom = max(abs(favored), abs(other))
    margin = float((favored - other) / denom) if denom > 0 else 0.0
    if abs(margin) < INCONCLUSIVE_REL:
        return Verdict.INCONCLUSIVE, margin
    return (Verdict.PASS if margin > 0 else Verdict.FAIL), margin


def point_checks(k: int, rho, beta,
                 consts: MechanismConstants = DEFAULT_CONSTANTS) -> tuple[CheckResult, ...]:
    """The three inequalities of one recursion step on 2**K candidates, K = k.

    In order: scale_dominance, loss_scale(K, rho, beta) >= 36 times its value
    at (3*sqrt(K), 4rho/5, 4beta/5), which lets the error recursion
    telescope (the note carries the ratio of the two); error_recursion,
    K*xi + 2*gamma(T-level) <= gamma(2**K-level); and gap_margin,
    sqrt(K)*xi - 2*gamma(T-level) >= gap_threshold(2**K, rho/5, beta/10),
    which puts the selected subset's gap above the tournament's
    exact-recovery threshold.  Here xi = loss_scale(K, rho, beta) and the
    T-level error scale is taken at ceil(log2(T)) =
    core.derived_rounds_ceil_log(K), noted t-exponent-integer when K is a
    perfect square.  The splits are the exact 4/5 and 1/5 (mpf(0.8) is not
    4/5); a test ties them to the core's.  The domain is an integer K >= 1000
    (core._integer's rule), rho > 0 and 0 < beta <= 0.001 (core._positive's).
    """
    import mpmath
    k = _integer("k", k, 1000)
    rho, beta = _positive("rho", rho), _positive("beta", beta, 0.001)
    params = f"K={k};rho={rho};beta={beta}"
    note = "t-exponent-integer" if math.isqrt(k) ** 2 == k else ""
    with mpmath.workdps(_DPS):
        rho4, beta4 = mpmath.mpf(rho) * 4 / 5, mpmath.mpf(beta) * 4 / 5
        xi = loss_scale_hp(k, rho, beta, consts)
        xi_sqrt = loss_scale_hp(SUBSET_ROUNDS_COEFF * mpmath.sqrt(k), rho4, beta4, consts)
        gamma_t = error_scale_from_log_hp(derived_rounds_ceil_log(k), rho4, beta4, consts)
        # PASS iff K*xi + 2*gamma_t <= 2*K*xi, the error scale at K, rho, beta
        recursion = _verdict(2 * k * xi, k * xi + 2 * gamma_t)
        gap = _verdict(mpmath.sqrt(k) * xi - 2 * gamma_t,
                       gap_threshold_hp(k, mpmath.mpf(rho) / 5, mpmath.mpf(beta) / 10))
        return (CheckResult("scale_dominance", params, *_verdict(xi, 36 * xi_sqrt),
                            note=f"ratio={float(xi / xi_sqrt)!r}"),
                CheckResult("error_recursion", params, *recursion, note=note),
                CheckResult("gap_margin", params, *gap, note=note))


GRID_KS = (1000, 2000, 5000, 10**4, 10**5, 10**6)
GRID_BETAS = tuple(1e-3 * 0.8**d for d in range(31))
GRID_RHOS = (1e-2, 1.0, 1e2)


def appendix_grid(consts: MechanismConstants = DEFAULT_CONSTANTS,
                  ks=GRID_KS, betas=GRID_BETAS, rhos=GRID_RHOS) -> list[CheckResult]:
    """point_checks at every grid point, K outermost and rho innermost."""
    return [r for k, beta, rho in itertools.product(ks, betas, rhos)
            for r in point_checks(k, rho, beta, consts)]


# ---------------------------------------------------------------------------
# Subset combinatorics.


def _blocks(k: int, i_star: int, k_star: int) -> tuple[int, int, int, int]:
    """Validate (k, i_star, k_star), integers by core._integer's rule; return
    n, subset size, top and middle block sizes."""
    k = _integer("k", k, 1)
    i_star, k_star = _integer("i_star", i_star, 0), _integer("k_star", k_star, 1)
    if not i_star < k_star <= k:
        raise ValueError(f"need 0 <= i_star < k_star <= k, got ({i_star}, {k_star}, {k})")
    n = 1 << k
    size = 1 << (k - k_star)
    top = 1 << i_star
    mid = (1 << k_star) - top
    return n, size, top, mid


def subset_event_probability(k: int, i_star: int, k_star: int) -> Fraction:
    """P(uniform size-2**(k-k_star) subset of 2**k hits the top 2**i_star block
    exactly once and the next block, ranks 2**i_star+1 .. 2**k_star, not at all).

    Closed form: 2**i_star * C(2**k - 2**k_star, size - 1) / C(2**k, size),
    as an exact Fraction; k > 20 is a ValueError.
    """
    n, size, top, mid = _blocks(k, i_star, k_star)
    if k > 20:
        raise ValueError(f"the exact probability is limited to k <= 20, got {k}")
    return Fraction(top * comb(n - top - mid, size - 1), comb(n, size))


def subset_event_probability_dp(k: int, i_star: int, k_star: int) -> Fraction:
    """Same probability by an exact sequential-draw dynamic program.

    Draws the subset one element at a time, tracking only the number of
    top-block hits (0 or 1; a second hit or any middle-block hit is
    absorbing failure).  Independent of any binomial identity.
    """
    n, size, top, mid = _blocks(k, i_star, k_star)
    p_zero, p_one = Fraction(1), Fraction(0)
    for t in range(size):
        rem = n - t
        rest_zero = n - top - mid - t        # others drawn so far: t
        rest_one = n - top - mid - (t - 1)   # one draw was a top hit
        p_one_next = p_zero * Fraction(top, rem)
        if t > 0:
            p_one_next += p_one * Fraction(rest_one, rem)
        p_zero = p_zero * Fraction(rest_zero, rem)
        p_one = p_one_next
    return p_one


# Enumeration refuses cases with more subsets than this.
ENUM_MAX_SUBSETS = 2_000_000


def subset_event_probability_enum(k: int, i_star: int, k_star: int) -> Fraction:
    """Same probability by literal enumeration of every subset.

    itertools.combinations yields each subset as an increasing tuple, so the
    top block [0, 2**i_star) is hit exactly once and the middle block
    [2**i_star, 2**k_star) not at all iff s[0] < 2**i_star and, unless the
    subset is a singleton, s[1] >= 2**k_star: one test per subset.
    Only feasible when C(2**k, size) <= ENUM_MAX_SUBSETS.
    """
    n, size, top, mid = _blocks(k, i_star, k_star)
    total = comb(n, size)
    if total > ENUM_MAX_SUBSETS:
        raise ValueError(f"C({n}, {size}) = {total} subsets exceed cap {ENUM_MAX_SUBSETS}")
    subsets = itertools.combinations(range(n), size)
    if size == 1:
        hits = sum(1 for s in subsets if s[0] < top)
    else:
        blocked_hi = top + mid
        hits = sum(1 for s in subsets if s[0] < top and s[1] >= blocked_hi)
    return Fraction(hits, total)


# Most cells one Monte Carlo draw holds, so a check's memory does not grow
# with its number of draws.
_BLOCK_CELLS = 1 << 16


def _hypergeometric_blocks(rng: np.random.Generator, colors, nsample: int, draws: int):
    """Consecutive row blocks of rng.multivariate_hypergeometric(colors,
    nsample, size=draws), each of at most _BLOCK_CELLS cells.

    numpy's default ("marginals") sampler draws one row after another and keeps
    nothing between calls, so the blocks stacked equal the one-call array bit
    for bit and leave rng in the same state.
    """
    rows = max(1, _BLOCK_CELLS // len(colors))
    for start in range(0, draws, rows):
        yield rng.multivariate_hypergeometric(colors, nsample, size=min(rows, draws - start))


def subset_event_mc(k: int, i_star: int, k_star: int, draws: int, seed=0) -> float:
    """Monte Carlo frequency of the same event over uniform random subsets.

    Samples only the sufficient statistic (hits per block) via the
    multivariate hypergeometric distribution, in blocks of at most 2**16
    cells; the frequency equals that of one draw of all rows.  draws must be
    an integer >= 1 (ValueError otherwise, before any draw).
    """
    n, size, top, mid = _blocks(k, i_star, k_star)
    draws = _integer("draws", draws, 1)
    rng = np.random.default_rng(seed)
    hits = 0
    for counts in _hypergeometric_blocks(rng, [top, mid, n - top - mid], size, draws):
        hits += int(np.count_nonzero((counts[:, 0] == 1) & (counts[:, 1] == 0)))
    return hits / draws


# ---------------------------------------------------------------------------
# Empirical rate of "good" subsets for the recursive mechanism.

# Most distinct losses for which check_good_subset_rate draws subsets as
# counts per distinct loss.  A row of that draw costs about 0.14 us per
# distinct loss, a subset drawn on its own 14-28 us at 2**10-2**12 candidates
# (2-core x86-64, numpy PCG64), so the two break even near 128 values at 2**10.
_MATRIX_MAX_VALUES = 128


def check_good_subset_rate(k: int, instance: LossInstance,
                           consts: MechanismConstants = DEFAULT_CONSTANTS,
                           rho: float = 1.0, beta: float = 0.1,
                           trials: int = 10**5, seed=0) -> tuple[float, float]:
    """Empirical frequency of a derived loss clearing -sqrt(K)*xi/2, vs 2**(-2*sqrt(K)).

    Samples (k_t, subset) exactly as the recursive mechanism does and
    evaluates the derived loss without noise.  The derived loss of a subset S
    is max(min(S) - min - (K + sqrt(K))*xi, -gap(S)) / 2; the returned bound
    is the analytic per-draw lower bound on the event probability.

    A subset of two or more is drawn as its count per distinct loss, from
    one multivariate hypergeometric draw per subset size in blocks of at most
    2**16 cells (the rate equals that of one draw of all its rows), when the
    instance has at most _MATRIX_MAX_VALUES distinct losses; with more, each
    such subset is drawn on its own.  k and trials must be integers >= 1 by
    core._integer's rule, rho and beta by _positive's (ValueError before any draw).
    """
    k = _integer("k", k, 1)
    n = len(instance)
    if n != 1 << k:
        raise ValueError(f"instance must have exactly 2**{k} candidates, got {n}")
    trials = _integer("trials", trials, 1)
    xi_value = loss_scale(k, rho, beta, consts)
    offset = (k + math.sqrt(k)) * xi_value
    threshold = -math.sqrt(k) * xi_value  # event: 2 * derived loss <= threshold

    arr = instance.as_array()
    vals, counts = np.unique(arr, return_counts=True)
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, k + 1, size=trials)

    events = 0
    for kt in np.unique(ks):
        m = int(np.count_nonzero(ks == kt))
        size = 1 << (k - int(kt))
        if size == 1:
            picks = rng.integers(0, n, size=m)
            lvl = np.searchsorted(np.cumsum(counts), picks, side="right")
            two_l = vals[lvl] - vals[0] - offset  # singleton gap is +inf
            events += int(np.count_nonzero(two_l <= threshold))
        elif len(vals) <= _MATRIX_MAX_VALUES:
            for mat in _hypergeometric_blocks(rng, counts, size, m):
                occupied = mat > 0
                rows = np.arange(len(mat))
                first = occupied.argmax(axis=1)
                first_count = mat[rows, first]
                occupied[rows, first] = False
                second = occupied.argmax(axis=1)
                has_second = occupied.any(axis=1)
                gap = np.where(first_count >= 2, 0.0,
                               np.where(has_second, vals[second] - vals[first], np.inf))
                two_l = np.maximum(vals[first] - vals[0] - offset, -gap)
                events += int(np.count_nonzero(two_l <= threshold))
        else:
            for _ in range(m):
                sel = rng.choice(n, size=size, replace=False)
                sub = arr[sel]
                two = np.partition(sub, 1)[:2]
                gap = float(two[1] - two[0])
                two_l = max(float(two[0]) - vals[0] - offset, -gap)
                if two_l <= threshold:
                    events += 1
    bound = 2.0 ** (-2.0 * math.sqrt(k))
    return events / trials, bound


# ---------------------------------------------------------------------------
# Sensitivity fuzzing.


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    evaluated: int
    max_ratio: float
    violations: int
    worst_expr: str


def _random_tree(rng: np.random.Generator, n: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return Base(int(rng.integers(n)))
        return Const(float(rng.uniform(-5, 5)))
    kind = int(rng.integers(7))
    over = {0: MinOver, 1: MaxOver, 3: GapOver}.get(kind)
    if over is not None:
        return over(tuple(_random_tree(rng, n, depth - 1) for _ in range(rng.integers(1, 4))))
    if kind == 2:  # the gap of an index set, its leaves in index order
        m = int(rng.integers(1, n + 1))
        return GapOver(tuple(map(Base, np.sort(rng.choice(n, size=m, replace=False)).tolist())))
    if kind == 4:
        return Sub(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))
    if kind == 5:
        return Scale(float(rng.uniform(-2, 2)), _random_tree(rng, n, depth - 1))
    return AddConst(float(rng.uniform(-3, 3)), _random_tree(rng, n, depth - 1))


def _random_family_expr(rng: np.random.Generator, family: str, n: int):
    if family == "bintree":
        cut = int(rng.integers(1, n))
        perm = rng.permutation(n)
        return build_bintree_query(perm[:cut], perm[cut:])
    if family == "tilde":
        m = int(rng.integers(1, n + 1))
        subset = rng.choice(n, size=m, replace=False)
        k = int(rng.integers(1, 7))
        xi_value = float(rng.uniform(0.1, 5.0))
        return build_tilde_loss(subset, k, xi_value, range(n))
    return _random_tree(rng, n, depth=4)


# Expression shapes the fuzzer draws from, in draw-index order.
_FUZZ_FAMILIES = ("bintree", "tilde", "random")


def sensitivity_fuzz(trials: int, seed=0) -> FuzzReport:
    """Fuzz the sensitivity calculus.

    Each trial draws an expression (tournament-comparison shape, derived-loss
    shape, or a random tree over all node types), a loss vector, and a
    perturbation with coordinates in [-1, 1], then compares the evaluation
    change against the structural bound.  Pairs where either evaluation is
    non-finite are skipped, matching the calculus' soundness claim.  trials
    must be an integer >= 1 (ValueError otherwise).
    """
    trials = _integer("trials", trials, 1)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    worst = ""
    violations = 0
    evaluated = 0
    for _ in range(trials):
        family = _FUZZ_FAMILIES[int(rng.integers(len(_FUZZ_FAMILIES)))]
        n = int(rng.integers(2, 13))
        expr = _random_family_expr(rng, family, n)
        losses = rng.uniform(-10, 10, n)
        delta = rng.uniform(-1, 1, n)
        v1 = eval_expr(expr, LossInstance(losses))
        v2 = eval_expr(expr, LossInstance(losses + delta))
        if not (math.isfinite(v1) and math.isfinite(v2)):
            continue
        evaluated += 1
        diff = abs(v1 - v2)
        bound = sensitivity_bound(expr)
        ratio = diff / bound if bound > 0 else (0.0 if diff <= 1e-9 else math.inf)
        if ratio > max_ratio:
            max_ratio = ratio
            worst = format_expr(expr)
        if ratio > 1 + 1e-9:
            violations += 1
    return FuzzReport(trials, evaluated, max_ratio, violations, worst)
