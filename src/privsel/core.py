"""Domain types and closed-form quantities for private selection.

An instance is a finite vector of losses, one per candidate; candidate
identity is the position index.  Two loss vectors are neighboring when they
differ by at most 1 in every coordinate (the image of sensitivity-1
per-candidate losses under a single record change).  All logarithms are
base 2.

Extended reals are represented as plain floats: ``math.inf`` compares above
every finite value and negates to ``-math.inf``, which is all the arithmetic
the expression language needs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

INSTANCE_FAMILIES = ("layered", "gapped", "uniform", "constant")


def _integer(name: str, value, least: int) -> int:
    """The one rule for a library argument that must be an integer: value as
    an int if it is an int or numbers.Integral (numpy integers included), not
    a bool, and >= least; else ValueError, for a float even if integral.

    Kept apart on purpose: eval_expr's Base index check (run per node of a
    tree walk; its TypeError is the documented contract), queries._index_array
    (the dtype rule for index arrays), experiments._number (JSON has one
    number type, so a config reads 5.0 as 5), and ceil_log2 and
    derived_rounds_ceil_log (arithmetic on ints the code computed itself).
    """
    if (type(value) is int or type(value) is not bool
            and isinstance(value, numbers.Integral)) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(value) -> float:
    """value as a float if it is a numbers.Real (numpy, int and Fraction
    included) but not a bool, else NaN; shared by _positive, the tree
    nodes' constant rule (queries._constant) and generate_instance's scale."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond every float
        return math.nan


def _positive(name: str, value, most: float = math.inf) -> float:
    """The one rule for a budget, a beta or a scale constant: value as a float
    if it is a float or numbers.Real (numpy, int and Fraction included) but not
    a bool, and 0 < value <= most; else ValueError.  Kept apart on purpose:
    ExperimentConfig (JSON input, ConfigError), verify's *_hp twins (float()
    would drop their mpmath digits) and generate_instance's scale (closed at 0).
    """
    x = value if type(value) is float else _real(value)
    if 0 < x <= most:
        return x
    raise ValueError(f"{name} must be a real number in (0, {most!r}], got {value!r}")


def ceil_log2(m: int) -> int:
    """Exact ceil(log2(m)) for positive integers, without float round-off.

    Internal and unexported: callers pass ints they computed themselves."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return (m - 1).bit_length()


def _min_of(values: np.ndarray) -> float:
    """Minimum of values; among equal values the first in order (argmin's
    rule), which only decides the sign of a zero."""
    return values.item(values.argmin())


@dataclass(frozen=True, init=False, repr=False, eq=False)  # frozen: assignments raise
class LossInstance:
    """A finite candidate set with one real-valued loss per candidate.

    This is the ground truth that mechanisms may only observe through noisy
    queries.  Ties for the minimum are broken by the lowest index.  The
    losses are held once, as the read-only float64 array ``as_array()``;
    ``losses`` is them as a tuple of Python floats, built on its first read
    and cached, and the instance's repr, equality and hash are the tuple's.

    ``block_minima()`` is a table of the minima of the aligned blocks of
    losses, built on its first call and kept as ``built_block_minima`` (a
    read-only attribute, None until then) for the instance's lifetime. Among
    equal values a block's minimum is the first in index order, as Python's
    ``min`` gives it; that only decides the sign of a zero.
    ``range_min`` is the one reader of a span's minimum: an aligned block
    from the table, built only once the instance has been asked for enough
    blocks to pay for it, and any other span by reduction.
    """

    def __init__(self, losses):
        arr = np.array(losses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("instance must be a non-empty vector of losses")
        if not np.isfinite(arr).all():
            raise ValueError("all losses must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "built_block_minima", None)
        object.__setattr__(self, "_block_losses_asked", 0)

    @cached_property
    def losses(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    def __repr__(self) -> str:
        return f"LossInstance(losses={self.losses!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        return hash((self.losses,))

    def __len__(self) -> int:
        return self._array.size

    def as_array(self) -> np.ndarray:
        """Read-only float64 view of the losses."""
        return self._array

    def block_minima(self) -> np.ndarray:
        """Minima of the aligned blocks of 2**j losses, j >= 1, as one heap.

        With P the losses' count rounded up to a power of two and the losses
        padded with +inf to P, the table has P entries and the minimum of
        the block [lo, lo + 2**j), lo a multiple of 2**j, is entry
        (P + lo) >> j; entry 0 is unused.  It is built bottom-up on the
        first call, in P extra floats, and cached.
        """
        table = self.built_block_minima
        if table is None:
            level = self._array
            size = 1 << ceil_log2(level.size)
            if level.size < size:
                level = np.concatenate([level, np.full(size - level.size, math.inf)])
            has_zero = not level.all()
            table = np.empty(size)
            table[0] = math.inf
            while level.size > 1:
                left, right = level[0::2], level[1::2]
                level = table[left.size:2 * left.size]
                np.minimum(left, right, out=level)
                if has_zero:  # np.minimum may pick either of two equal zeros; keep the left one
                    zeros = np.flatnonzero(level == 0)
                    level[zeros] = np.where(left[zeros] == 0, left[zeros], right[zeros])
            table.setflags(write=False)
            object.__setattr__(self, "built_block_minima", table)
        return table

    def range_min(self, lo: int, hi: int) -> float:
        """Minimum of the losses in [lo, hi), by _min_of's tie rule.

        An aligned block (2**j >= 2 losses from a multiple of 2**j) is read
        from the table.  Building it costs about as much as reducing 2 * P
        losses, so it is built only once the blocks asked for hold more than
        2 * P losses in all; until then, and for any other span, the span is
        reduced.  One halving tournament asks for fewer, so an instance that
        serves a single tournament never builds the table.  Callers on other
        threads can at worst lose a count or build the same table twice.
        """
        size = hi - lo
        if size > 1 and size & (size - 1) == 0 and lo % size == 0:  # an aligned block
            table = self.built_block_minima
            if table is None:
                asked = self._block_losses_asked + size
                object.__setattr__(self, "_block_losses_asked", asked)
                if asked > 2 << ceil_log2(len(self)):
                    table = self.block_minima()
            if table is not None:
                return table.item((table.size + lo) // size)
        return _min_of(self._array[lo:hi])

    def min_index(self) -> int:
        """Smallest position attaining the minimum loss."""
        return int(np.argmin(self._array))

    def min_loss(self) -> float:
        """The loss at min_index()."""
        return _min_of(self._array)

    def gap(self) -> float:
        """Second order statistic minus the minimum; +inf for a singleton.

        Duplicated minima give gap 0.
        """
        if self._array.size == 1:
            return math.inf
        two = np.partition(self._array, 1)[:2]
        return float(two[1] - two[0])


@dataclass(frozen=True)
class MechanismConstants:
    """Tunable constants of the recursive gap mechanism's loss scale and base case.

    Defaults reproduce the algorithm as analyzed: loss-scale prefactor 1000
    with exponent 10 and base case at 2**1000 candidates.  Those defaults
    make the recursion vacuous at any feasible instance size, so experiments
    use scaled-down values while formula-level tests keep the defaults.  The
    round count and the budget/failure splits are the fixed schedule below.
    c_xi is a finite float > 0 (_positive), p_xi and base_threshold_log ints >= 1 (_integer).
    """

    c_xi: float = 1000.0
    p_xi: int = 10
    base_threshold_log: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "c_xi", _positive("c_xi", self.c_xi, sys.float_info.max))
        for name in ("p_xi", "base_threshold_log"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))


DEFAULT_CONSTANTS = MechanismConstants()
# The recursion's schedule as analysed, which `verify` certifies: a level on 2**K
# candidates draws T = ceil(2**(3*sqrt(K) - 1)) subsets; the recursive call gets 4/5
# of its rho and beta.
SUBSET_ROUNDS_COEFF = 3
RECURSION_SPLIT = 0.8


def derived_rounds_ceil_log(k: int) -> int:
    """ceil(log2(T)) = ceil(3*sqrt(k) - 1) for T = ceil(2**(3*sqrt(k) - 1)), k >= 1,
    in integers: ceil(sqrt(9*k)) - 1 = isqrt(9*k - 1)."""
    return math.isqrt(SUBSET_ROUNDS_COEFF ** 2 * k - 1)


def recursion_schedule(n: int, rho: float, beta: float,
                       consts: MechanismConstants = DEFAULT_CONSTANTS) -> list[tuple]:
    """The recursive mechanism's levels on n candidates, outermost first, as
    (K, T, rho, beta) records; they depend on no loss and no draw.

    The first K is ceil(log2(n)).  The last level, with T = 0, is the base
    case: K <= consts.base_threshold_log or beta <= 2**-K.  Every other level
    draws T = ceil(2**(3*sqrt(K) - 1)) subsets and passes RECURSION_SPLIT of
    its rho and beta on to a level with K = derived_rounds_ceil_log(K).
    """
    k = ceil_log2(n)
    levels = []
    while not (k <= consts.base_threshold_log or beta <= 2.0 ** (-k)):
        levels.append((k, math.ceil(2.0 ** (SUBSET_ROUNDS_COEFF * math.sqrt(k) - 1.0)),
                       rho, beta))
        k = derived_rounds_ceil_log(k)
        rho, beta = RECURSION_SPLIT * rho, RECURSION_SPLIT * beta
    levels.append((k, 0, rho, beta))
    return levels


def gap_threshold(m: int, rho: float, beta: float) -> float:
    """Gap above which the halving tournament finds the exact argmin w.h.p.

    Returns 2 * sqrt(K * log2(K / beta)) / sqrt(rho) with K = ceil(log2(m)).
    The tournament on an instance of m candidates whose gap is at least this
    value returns the minimum index with probability at least 1 - beta.
    m >= 2, rho > 0 and 0 < beta <= 0.5 by _integer's and _positive's rules.
    """
    m = _integer("m", m, 2)
    rho, beta = _positive("rho", rho), _positive("beta", beta, 0.5)
    k = ceil_log2(m)
    inner = math.log2(k / beta)  # >= 1: K >= 1 and beta <= 0.5
    return 2.0 * math.sqrt(k * inner) / math.sqrt(rho)


def loss_scale(k: int, rho: float, beta: float,
               consts: MechanismConstants = DEFAULT_CONSTANTS) -> float:
    """Scale unit of the recursive mechanism's derived losses.

    Returns (c_xi / sqrt(rho)) * (1 + log2(k))**p_xi * log2(c_xi*(k+1)/beta)
    for k >= 1, rho > 0, beta > 0 (_integer, _positive); ValueError if it overflows a float.
    """
    k = _integer("k", k, 1)
    rho, beta = _positive("rho", rho), _positive("beta", beta)
    arg = consts.c_xi * (k + 1) / beta
    if not arg > 1:
        raise ValueError(f"log argument must exceed 1, got {arg}")
    try:
        xi = (consts.c_xi / math.sqrt(rho)) * (1.0 + math.log2(k)) ** consts.p_xi * math.log2(arg)
    except OverflowError:  # float ** int raises where float * float gives inf
        xi = math.inf
    if not math.isfinite(xi):
        raise ValueError(f"loss scale overflows at k={k}, rho={rho}, beta={beta}, {consts}")
    return xi


def error_scale(m: int, rho: float, beta: float,
                consts: MechanismConstants = DEFAULT_CONSTANTS) -> float:
    """High-probability error scale of the recursive mechanism on m candidates.

    Equals 2 * ceil(log2(m)) * loss_scale(ceil(log2(m)), rho, beta).  Only
    the exact ceil-log of m is used, so m may be a Python int far beyond any
    float, such as a derived round count 2**2999; it is an integer >= 2 by
    _integer's rule.
    """
    m = _integer("m", m, 2)
    k = ceil_log2(m)
    return 2.0 * k * loss_scale(k, rho, beta, consts)


def generate_instance(family: str, size: int, scale: float, seed: int) -> LossInstance:
    """Deterministically build a named loss instance.

    layered:  level i holds 2**(i-1) candidates at loss i*scale (level 0 is
              the single optimum at 0), levels concatenated in loss order and
              truncated to exactly `size`.
    gapped:   one candidate at 0, all others at `scale`.
    uniform:  i.i.d. uniform on [0, scale], seeded.
    constant: all zeros.
    size >= 1 and seed >= 0 are integers by _integer's rule, for every
    family; scale is a finite real >= 0 read through _real.
    """
    if family not in INSTANCE_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {INSTANCE_FAMILIES}")
    size = _integer("size", size, 1)
    seed = _integer("seed", seed, 0)
    real = _real(scale)
    if not (math.isfinite(real) and real >= 0):
        raise ValueError(f"scale must be finite and >= 0, got {scale!r}")
    scale = real

    if family == "layered":
        k = ceil_log2(size)
        vals = [0.0]
        for i in range(1, k + 1):
            vals.extend([i * scale] * (1 << (i - 1)))
        losses = tuple(vals[:size])
    elif family == "gapped":
        losses = (0.0,) + (scale,) * (size - 1)
    elif family == "uniform":
        rng = np.random.default_rng(seed)
        losses = rng.uniform(0.0, scale, size)
    else:  # constant
        losses = (0.0,) * size
    return LossInstance(losses)
