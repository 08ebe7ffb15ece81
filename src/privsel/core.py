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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Extended real line: ordinary floats plus +/- math.inf.
ExtReal = float

INSTANCE_FAMILIES = ("layered", "gapped", "uniform", "constant")


def ceil_log2(m: int) -> int:
    """Exact ceil(log2(m)) for positive integers, without float round-off."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return (m - 1).bit_length()


@dataclass(frozen=True, init=False, repr=False, eq=False)  # frozen: assignments raise
class LossInstance:
    """A finite candidate set with one real-valued loss per candidate.

    This is the ground truth that mechanisms may only observe through noisy
    queries.  Ties for the minimum are broken by the lowest index.  The
    losses are held once, as the read-only float64 array ``as_array()``;
    ``losses`` is them as a tuple of Python floats, built on its first read
    and cached, and the instance's repr, equality and hash are the tuple's.

    ``block_minima()`` is a table of the minima of the aligned blocks of
    losses, built on its first call and kept for the instance's lifetime.
    Among equal values a block's minimum is the first in index order, as
    Python's ``min`` gives it; that only decides the sign of a zero.
    ``block_min`` reads it, building it only once the instance has been
    asked for enough blocks to pay for it.
    """

    def __init__(self, losses):
        arr = np.array(losses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("instance must be a non-empty vector of losses")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all losses must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

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
        table = self.__dict__.get("_block_minima")
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
            object.__setattr__(self, "_block_minima", table)
        return table

    def block_min(self, lo: int, size: int) -> float | None:
        """Minimum of the aligned block [lo, lo + size) from the table, or None.

        size is a power of two and lo a multiple of it.  Building the table
        costs about as much as reducing 2 * P losses, so it is built only
        once the blocks asked for hold more than 2 * P losses in all; until
        then this returns None and the caller reduces the block.  One halving
        tournament asks for fewer, so an instance that serves a single
        tournament never builds the table.  Callers on other threads can at
        worst lose a count or build the same table twice.
        """
        table = self.__dict__.get("_block_minima")
        if table is None:
            asked = self.__dict__.get("_block_losses_asked", 0) + size
            object.__setattr__(self, "_block_losses_asked", asked)
            if asked <= 2 << ceil_log2(len(self)):
                return None
            table = self.block_minima()
        return float(table[(table.size + lo) // size])

    def min_index(self) -> int:
        """Smallest position attaining the minimum loss."""
        return int(np.argmin(self._array))

    def min_loss(self) -> float:
        return float(self._array.min())

    def gap(self) -> ExtReal:
        """Second order statistic minus the minimum; +inf for a singleton.

        Duplicated minima give gap 0.
        """
        if self._array.size == 1:
            return math.inf
        two = np.partition(self._array, 1)[:2]
        return float(two[1] - two[0])


@dataclass(frozen=True)
class PrivacyParams:
    """Total budget rho (zCDP units, finite) and failure probability beta."""

    rho: float
    beta: float

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class MechanismConstants:
    """Tunable constants of the recursive gap mechanism's loss scale and base case.

    Defaults reproduce the algorithm as analyzed: loss-scale prefactor 1000
    with exponent 10 and base case at 2**1000 candidates.  Those defaults
    make the recursion vacuous at any feasible instance size, so experiments
    use scaled-down values while formula-level tests keep the defaults.  The
    round count and the budget/failure splits are the fixed schedule below.
    """

    c_xi: float = 1000.0
    p_xi: int = 10
    base_threshold_log: int = 1000

    def __post_init__(self):
        if isinstance(self.c_xi, bool) or not (self.c_xi > 0 and math.isfinite(self.c_xi)):
            raise ValueError(f"c_xi must be a positive finite number, got {self.c_xi!r}")
        for name in ("p_xi", "base_threshold_log"):
            v = getattr(self, name)  # a bool is an int, but not an integer setting
            if isinstance(v, bool) or not (isinstance(v, int) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


DEFAULT_CONSTANTS = MechanismConstants()
# The recursion's schedule as analysed, which `verify` certifies: a level on 2**K
# candidates draws T = ceil(2**(3*sqrt(K) - 1)) subsets; the recursive call gets 4/5
# of its rho and beta.
SUBSET_ROUNDS_COEFF = 3
RECURSION_SPLIT = 0.8


def gap_threshold(m: int, rho: float, beta: float) -> float:
    """Gap above which the halving tournament finds the exact argmin w.h.p.

    Returns 2 * sqrt(K * log2(K / beta)) / sqrt(rho) with K = ceil(log2(m)).
    The tournament on an instance of m candidates whose gap is at least this
    value returns the minimum index with probability at least 1 - beta.
    """
    if m < 2:
        raise ValueError("gap_threshold requires at least two candidates")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0 < beta <= 0.5:
        raise ValueError(f"beta must lie in (0, 0.5], got {beta}")
    k = ceil_log2(m)
    if not k / beta > 1:
        raise ValueError("need ceil(log2(m)) / beta > 1")
    inner = math.log2(k / beta)
    return 2.0 * math.sqrt(k * inner) / math.sqrt(rho)


def loss_scale(k: int, rho: float, beta: float,
               consts: MechanismConstants = DEFAULT_CONSTANTS) -> float:
    """Scale unit of the recursive mechanism's derived losses.

    Returns (c_xi / sqrt(rho)) * (1 + log2(k))**p_xi * log2(c_xi*(k+1)/beta)
    for a candidate-count exponent k >= 1; ValueError if that overflows a float.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
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
    float, such as a derived round count 2**2999.
    """
    if m < 2:
        raise ValueError("error_scale requires at least two candidates")
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
    """
    if family not in INSTANCE_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {INSTANCE_FAMILIES}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")

    if family == "layered":
        k = ceil_log2(size)
        vals = [0.0]
        for i in range(1, k + 1):
            vals.extend([i * scale] * (1 << (i - 1)))
        losses = tuple(vals[:size])
    elif family == "gapped":
        losses = (0.0,) + (float(scale),) * (size - 1)
    elif family == "uniform":
        rng = np.random.default_rng(seed)
        losses = rng.uniform(0.0, scale, size)
    else:  # constant
        losses = (0.0,) * size
    return LossInstance(losses)
