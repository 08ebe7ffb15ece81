"""Expression trees over base losses: the only query channel to the data.

Mechanisms never see losses directly; they submit expressions from this
closed language and the oracle audits each one with the structural
sensitivity bound below before answering.

At run time the mechanisms build no node: a halving tournament hands its
members (base candidates, or positions in a Level) to
``BudgetOracle.noisy_tournament``, which answers MinCompare rounds without
building one, and query_all submits a BaseBatch.  The nodes, build_tilde_loss
and the tree branches of eval_expr and sensitivity_bound are reference
semantics, used by the sensitivity fuzzer, the tests and the demos.

Node semantics on a loss vector l (extended-real valued):

    Base(i)            l[i]
    Const(v)           v  (v may be +/-inf)
    MinOver(es)        min of child values
    MaxOver(es)        max of child values
    GapOver(es)        second smallest minus smallest child value, +inf for
                       one child; over one Base(i) per i in S it is the gap
                       of l on the index set S, over a level's entries a
                       derived gap (Level computes those in numpy)
    Sub(a, b)          a - b
    Scale(c, e)        c * e  (c finite)
    AddConst(c, e)     e + c  (c may be +/-inf)
    Level(P, S, c)     vector, one entry per subset S_t of positions in P:
                       (1/2) * max(min_{S_t} v - (min v + c), -gap_{S_t} v)
                       where v is P's vector: the losses l[i] of its
                       candidate indices when P is an index set (level 0),
                       else P's own values; a singleton's gap is +inf
    MinCompare(Q, s)   (min of l at Q[:s] - min of l at Q[s:]) / 2, the
                       halving tournament's query; both parts non-empty;
                       Q is an index set of candidates
    MinCompare(Q, s, L)
                       the same over the level vector L at the strictly
                       increasing positions Q

Each constant v or c, and a Level's offset, is stored at construction as
the float it equals (``_constant``): a bool, a non-real or NaN raises
ValueError, and so does an infinite Scale factor, the one way a bound could
become inf * 0 = NaN.

A Level is one derived level of the recursive mechanism, the vector of its
T derived losses; it holds the subsets in CSR form and has no scalar value
of its own, so it is queried only through MinCompare.  Its entries are what
one build_tilde_loss-shaped tree per subset gives (MinOver / GapOver over
the level below, the universe being all of it), evaluated level by level in
numpy instead of node by node.  Minima and gaps take, among equal values,
the first in position order, as the tree nodes' Python min does; that only
decides the sign of a zero.  Each side of a MinCompare, over losses or a
level, follows the same rule at every size: a MinCompare of up to 64
members reads their values once, as a list, and reduces each side with
Python's min; above that a side goes through ``_min_of``, the value at
numpy's argmin.  Both take the first of equal values.
An index set (a level 0, the members of a MinCompare or a tournament, a
BaseBatch) follows one form rule, ``_members``'s.  A step-1 range is kept as
given, any other ordered input becomes an int64 array, and a set raises
TypeError.  A range is admitted by an O(1) check of its ends and read as a
slice (``_take``), with no bounds scan, gather or index copy.  Over base
losses, a side that is an aligned block of 2 or more candidates (2**j of
them, starting at a multiple of 2**j) reads one entry of the instance's
cached ``block_minima`` table, built by the same rule, once the instance has
been asked for enough such blocks to pay for building it (``block_min``).

The halving tournament (``BudgetOracle.noisy_tournament``) builds no node:
it admits its members Q once by MinCompare's rule (``_members``), then
``_span_source`` picks one evaluator of its rounds MinCompare(Q[lo:hi],
mid - lo, L), so nothing is built, checked or dispatched on per round.
For a range of 2**K candidates from a multiple of 2**K, split in halves,
once the table is built, a round's halves are two sibling table entries
(at the last round, two losses).  ``eval_expr`` on a MinCompare is the
same evaluator over the full span of its admitted members.  The tree
nodes reduce in plain Python at every size and share no numpy code with
Level and MinCompare, so comparing the two is an independent check.

A BaseBatch is not a node: it is the sequence of Base(i) for the i of an
index set, answered as one vectorised batch in one noise buffer.

Sensitivity calculus (upper bound on the change of the value between loss
vectors differing by at most 1 per coordinate):

    Base -> 1;  Const -> 0;  MinOver/MaxOver -> max of child bounds;
    Sub -> sum of child bounds;  Scale(c, e) -> |c| * bound(e);
    AddConst -> unchanged;  Level -> 1 per entry;  MinCompare -> 1;
    GapOver -> 2 * max child bound (0 for a single child): 2 over Base leaves.

Every Level entry has bound 1, by induction on the chain.  The Level rule
is the tree rule folded once: with b the bound of the level below, the
subset minimum minus the offset universe minimum has bound 2b, the negated
gap 2b (0 for a singleton), their max 2b, and the halving gives b again.
A Level's ``prev`` is either an index set of candidates, whose entries are
losses (b = 1), or another Level, so b = 1 at every level.  MinCompare is
Scale(1/2, Sub(MinOver, MinOver)) as one node, over losses or over such
entries, so its bound is (1 + 1) / 2 = 1.  Neither needs a walk.

Canonical text form (prefix notation, whitespace separated), output only:

    expr := (base N) | (const NUM) | (min expr+) | (max expr+)
          | (gapx expr+) | (sub expr expr) | (scale NUM expr) | (addc NUM expr)

N is a nonnegative integer; NUM is a Python float repr (inf and -inf
included).  An index set's gap is written over its leaves, as
``(gapx (base i) ...)``; a MinCompare over base candidates as its tree,
``(scale 0.5 (sub (min ...) (min ...)))``.
Level and a MinCompare over a level have no text form: a chain of
d levels expands into trees whose size grows exponentially with d, so
format_expr raises TypeError on them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import LossInstance, _integer, _positive, _real

__all__ = [
    "Base", "Const", "MinOver", "MaxOver", "GapOver", "Sub", "Scale",
    "AddConst", "Level", "MinCompare", "LossExpr", "eval_expr",
    "sensitivity_bound", "build_bintree_query", "build_tilde_loss", "format_expr",
    "BaseBatch",
]

# Up to this many members, a tournament reads its values once as a list:
# there Python's min over list slices beats a numpy slice and argmin per side.
_SMALL = 64

# Members per block when a level is derived (_segment_blocks): the
# temporaries of a block stay small beside the level's own index array.
_SEGMENT_BLOCK = 1 << 14


def _index_array(indices) -> np.ndarray:
    arr = np.asarray(indices)  # a set is one object here, with no order to take
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"indices must be ordered integers: {type(indices).__name__} {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError("index set must be one-dimensional")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Base:
    """Loss of a single candidate (a sensitivity-1 query by definition)."""

    index: int


def _constant(node, name: str, finite: bool = False) -> None:
    """The one rule for a tree node's constant: stored as the float it equals
    if it is a float or numbers.Real (numpy, int and Fraction included) but
    not a bool, and not NaN (nor +/-inf if finite); else ValueError."""
    value = x = getattr(node, name)
    if type(x) is not float:
        x = _real(x)
        object.__setattr__(node, name, x)
    if x != x or finite and math.isinf(x):
        kind = "a finite real number" if finite else "a real number other than NaN"
        raise ValueError(f"{type(node).__name__} {name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        _constant(self, "value")


@dataclass(frozen=True, eq=False)
class MinOver:
    """Minimum over child expressions."""

    children: tuple["LossExpr", ...]

    def __post_init__(self):
        _init_over(self)


@dataclass(frozen=True, eq=False)
class MaxOver:
    """Maximum over child expressions."""

    children: tuple["LossExpr", ...]

    def __post_init__(self):
        _init_over(self)


def _init_over(node) -> None:
    children = tuple(node.children)
    if not children:
        raise ValueError("need at least one child")
    object.__setattr__(node, "children", children)


@dataclass(frozen=True, eq=False)
class GapOver:
    """Gap over child expression values; +inf for a single child."""

    children: tuple["LossExpr", ...]

    def __post_init__(self):
        _init_over(self)


@dataclass(frozen=True)
class Sub:
    left: "LossExpr"
    right: "LossExpr"


@dataclass(frozen=True)
class Scale:
    factor: float
    child: "LossExpr"

    def __post_init__(self):
        _constant(self, "factor", finite=True)  # inf * a zero bound would be NaN


@dataclass(frozen=True)
class AddConst:
    offset: float
    child: "LossExpr"

    def __post_init__(self):
        _constant(self, "offset")


def _increasing(arr: np.ndarray) -> bool:
    return bool((arr[1:] > arr[:-1]).all())


@dataclass(frozen=True, eq=False)
class Level:
    """One derived level: T derived losses over the level below.

    ``prev`` is the level below: a non-empty index set of base candidates
    (level 0) or another Level.  A step-1 range is kept as given, any other
    ordered input becomes an int64 array, and a set raises TypeError.  Subset
    t is ``indices[indptr[t]:indptr[t+1]]``, a non-empty, strictly increasing
    run of positions in ``prev``.  ``offset`` is the recursion's
    (k + sqrt(k)) * xi.  See the module docstring for the value and bound rules.
    """

    prev: "np.ndarray | range | Level"
    indptr: np.ndarray
    indices: np.ndarray
    offset: float

    def __post_init__(self):
        if type(self.prev) is not Level:
            object.__setattr__(self, "prev", _members(self.prev, None))
        indptr = _index_array(self.indptr)
        indices = _index_array(self.indices)
        if indptr.size < 2 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must run from 0 to len(indices) over at least one subset")
        if not _increasing(indptr):
            raise ValueError("every subset must be non-empty")
        if indices.min() < 0 or indices.max() >= len(self.prev):
            raise IndexError(f"subset position out of range for {len(self.prev)} entries")
        rising = indices[1:] > indices[:-1]
        rising[indptr[1:-1] - 1] = True  # a subset may start below the last one's end
        if not rising.all():
            raise ValueError("subset positions must be strictly increasing")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        _constant(self, "offset")

    def __len__(self) -> int:
        return self.indptr.size - 1


@dataclass(frozen=True, eq=False)
class MinCompare:
    """Half the difference of two minima: the halving tournament's query.

    (min v[indices[:split]] - min v[indices[split:]]) / 2, where v is the
    base losses, or ``level``'s derived losses when it is given; positions in
    a level must be strictly increasing.  Both sides must be non-empty:
    split is an integer >= 1 (core._integer's rule) below len(indices).
    A step-1 range is kept as given, any other ordered input becomes an int64
    array, and a set raises TypeError.
    """

    indices: np.ndarray | range
    split: int
    level: Level | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", _members(self.indices, self.level))
        object.__setattr__(self, "split", _integer("split", self.split, 1))
        if self.split >= len(self.indices):
            raise ValueError(
                f"split {self.split} leaves a side of {len(self.indices)} indices empty")


def _members(idx, level: Level | None) -> np.ndarray | range:
    """The members of a tournament, a level 0 or (split aside) of
    MinCompare(idx, split, level), as admitted; _span_source checks base
    candidates' range.  A step-1 range is kept as given, any other ordered
    input becomes an int64 array, and a set raises TypeError."""
    if type(idx) is not range or idx.step != 1:
        idx = _index_array(idx)
    if not len(idx):
        raise ValueError("the member set is empty")
    if level is not None:
        if type(level) is not Level:
            raise TypeError(f"MinCompare needs a Level, got {type(level).__name__}")
        if type(idx) is not range and not _increasing(idx):
            raise ValueError("positions must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= len(level):
            raise IndexError(f"position out of range for {len(level)} entries")
    return idx


LossExpr = Union[Base, Const, MinOver, MaxOver, GapOver, Sub, Scale, AddConst, MinCompare]


class BaseBatch(Sequence):
    """The queries Base(i) for the i of some indices, as a read-only sequence.

    ``indices`` follow MinCompare's form rule, as a read-only array if not a
    range.  ``len()`` is their count, and iterating or indexing yields Base
    nodes with ``int`` indices built on demand, so the batch holds no nodes;
    a slice is the BaseBatch of the sliced indices.  The oracle answers the
    batch in one noise buffer.
    """

    __slots__ = ("indices",)

    def __init__(self, indices):
        if type(indices) is not range or indices.step != 1:
            indices = _index_array(indices).view()
            indices.flags.writeable = False
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BaseBatch(self.indices[i])
        return Base(int(self.indices[i]))

    def __iter__(self):
        idx = self.indices
        return map(Base, idx if type(idx) is range else idx.tolist())


def _two_smallest(values) -> tuple[float, float]:
    s1 = math.inf
    s2 = math.inf
    for v in values:
        if v < s1:
            s1, s2 = v, s1
        elif v < s2:
            s2 = v
    return s1, s2


def _min_of(sub: np.ndarray) -> float:
    """Minimum of sub; among equal values the first in order (argmin's rule),
    which only decides the sign of a zero."""
    return sub.item(sub.argmin())


def _segment_first_min(values: np.ndarray, starts: np.ndarray,
                       segment: np.ndarray) -> np.ndarray:
    """Per segment, the position in ``values`` of its first minimal entry."""
    hits = np.flatnonzero(values == np.minimum.reduceat(values, starts)[segment])
    return hits[np.searchsorted(segment[hits], np.arange(starts.size))]


def _segment_blocks(indptr: np.ndarray):
    """Consecutive subset ranges [a, b) of the CSR ``indptr``, covering every
    subset once and in order; each holds at most _SEGMENT_BLOCK members,
    unless it is a single subset longer than that."""
    a, t_rounds = 0, indptr.size - 1
    while a < t_rounds:
        b = max(a + 1, int(np.searchsorted(indptr, indptr[a] + _SEGMENT_BLOCK, "right")) - 1)
        yield a, b
        a = b


def _derive(values: np.ndarray, level: Level) -> np.ndarray:
    """A level's derived losses from the values of the level below.

    Each subset's two smallest values are gathered block by block
    (_segment_blocks), so no gather spans the whole level.  Once the offsets
    pass the float range a derived loss can be -inf.  A level over any
    non-finite value is all nan, so a non-finite loss fails the first query
    over the deepest level, which spans all of it.
    """
    if not np.isfinite(values).all():
        return np.full(len(level), math.nan)
    indptr = level.indptr
    smallest, second = np.empty((2, len(level)))
    for a, b in _segment_blocks(indptr):
        starts = indptr[a:b] - indptr[a]
        segment = np.repeat(np.arange(b - a), np.diff(indptr[a:b + 1]))
        members = values[level.indices[indptr[a]:indptr[b]]]
        first = _segment_first_min(members, starts, segment)
        smallest[a:b] = members[first]
        members[first] = math.inf  # the second smallest is the minimum of the rest
        second[a:b] = members[_segment_first_min(members, starts, segment)]
    offset_min = _min_of(values) + level.offset
    score = smallest - offset_min
    neg_gap = -(second - smallest)  # -inf for a singleton
    return 0.5 * np.where(neg_gap > score, neg_gap, score)


def _level_values(level: Level, instance: LossInstance, memo: dict) -> np.ndarray:
    """Derived losses of a level, evaluated bottom-up and memoised per level."""
    levels = []  # the chain's levels not in memo, top first
    below = level
    while type(below) is Level and id(below) not in memo:
        levels.append(below)
        below = below.prev
    if type(below) is Level:
        values = memo[id(below)][1]
    else:
        _check_indices(below, len(instance))
        values = _take(instance.as_array(), below)
    for node in reversed(levels):
        values = _derive(values, node)
        memo[id(node)] = (node, values)
    return values


def _check_indices(idx: np.ndarray | range, n: int) -> None:
    """Non-empty candidate indices (a MinCompare's, a BaseBatch's or a level-0
    Level's) must lie in range(n); a step-1 range is checked by its ends in O(1)."""
    if type(idx) is range:
        lo, hi = idx.start, idx.stop - 1
    else:
        lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= n:
        raise IndexError(f"candidate index out of range: [{lo}, {hi}] vs n={n}")


def _take(values: np.ndarray, idx: np.ndarray | range) -> np.ndarray:
    """values at admitted members idx: a range's slice view, an array's gather."""
    return values[idx.start:idx.stop] if type(idx) is range else values[idx]


def _range_min(instance: LossInstance, lo: int, hi: int) -> float:
    """Minimum of the losses in [lo, hi), by the tie rule of _min_of."""
    size = hi - lo
    if size > 1 and size & (size - 1) == 0 and lo % size == 0:  # an aligned block
        value = instance.block_min(lo, size)
        if value is not None:
            return value
    return _min_of(instance.as_array()[lo:hi])


def _span_source(idx, split: int, level, instance: LossInstance, memo: dict):
    """The evaluator value(lo, mid, hi) of MinCompare(idx[lo:hi], mid - lo,
    level), for members idx admitted by _members, picked once base members
    are checked against the instance: slices of up to _SMALL members' values
    as a list, or of an index array's or a level's values read by _take; a
    base range's sides by _range_min, or, for an aligned range split in halves
    once the table is built, a halving span's halves as the sibling table
    entries k and k + 1 (a span of two, its two losses)."""
    n = len(idx)
    if level is None:
        _check_indices(idx, len(instance))
    vals = instance.as_array() if level is None else _level_values(level, instance, memo)
    if n <= _SMALL:
        vals = _take(vals, idx).tolist()
        return lambda lo, mid, hi: 0.5 * (min(vals[lo:mid]) - min(vals[mid:hi]))
    if type(idx) is not range or level is not None:  # range evaluators read base losses
        vals = _take(vals, idx)
        return lambda lo, mid, hi: 0.5 * (_min_of(vals[lo:mid]) - _min_of(vals[mid:hi]))
    start = idx.start
    table = instance.built_block_minima  # built by an earlier call, if any
    if table is None or n & (n - 1) or start % n or 2 * split != n:
        return lambda lo, mid, hi: 0.5 * (_range_min(instance, start + lo, start + mid)
                                          - _range_min(instance, start + mid, start + hi))
    offset = table.size + start

    def sibling(lo: int, mid: int, hi: int) -> float:
        if mid - lo == 1:
            return 0.5 * (vals.item(start + lo) - vals.item(start + mid))
        k = (offset + lo) // (mid - lo)
        return 0.5 * (table.item(k) - table.item(k + 1))

    return sibling


def eval_expr(expr: LossExpr, instance: LossInstance, memo: dict | None = None) -> float:
    """Evaluate an expression on an instance.

    Total: returns +/-inf where the extended-real semantics produce them
    (callers that need finite answers must check).  Tree nodes are memoised
    per call, by identity, so a subtree shared within expr is evaluated once
    and no node is kept past the call.  ``memo`` carries derived levels
    across calls for the same instance: each Level derived for a level-form
    MinCompare is stored there, pinned with its values, and read by later
    calls given the same memo.

    Raises IndexError for out-of-range candidate indices, and TypeError for
    a Base index that is a bool or not an integer (numpy integers pass).
    """
    if memo is None:
        memo = {}
    arr = instance.as_array()
    n = arr.size
    seen = {}  # value per node identity; expr keeps its nodes alive until we return

    def ev(node) -> float:
        key = id(node)
        v = seen.get(key)
        if v is not None:
            return v
        t = type(node)
        if t is Base:
            i = node.index
            if type(i) is not int and (type(i) is bool or not isinstance(i, (int, np.integer))):
                raise TypeError(f"candidate index must be an integer, got {i!r}")
            if not 0 <= i < n:
                raise IndexError(f"candidate index out of range: {i} vs n={n}")
            v = arr.item(i)
        elif t is Const:
            v = node.value
        elif t is MinOver or t is MaxOver:
            vals = [ev(c) for c in node.children]
            v = min(vals) if t is MinOver else max(vals)
        elif t is GapOver:
            if len(node.children) == 1:
                ev(node.children[0])  # still validated
                v = math.inf
            else:
                s1, s2 = _two_smallest(ev(c) for c in node.children)
                v = s2 - s1
        elif t is Sub:
            v = ev(node.left) - ev(node.right)
        elif t is Scale:
            v = node.factor * ev(node.child)
        elif t is AddConst:
            v = ev(node.child) + node.offset
        elif t is MinCompare:
            idx, split = node.indices, node.split
            v = _span_source(idx, split, node.level, instance, memo)(0, split, len(idx))
        else:
            raise TypeError(f"not a loss expression: {node!r}")
        seen[key] = v
        return v

    try:
        return ev(expr)
    finally:
        del ev  # ev refers to itself; a live cycle would keep memo alive


def sensitivity_bound(expr: LossExpr) -> float:
    """Structural upper bound on the value change between neighboring losses.

    Neighboring means coordinate-wise difference at most 1.  The bound is
    sound wherever both evaluations are finite; see the module docstring for
    the per-node rules.
    """
    seen = {}  # per node identity, so a shared subtree is bounded once

    def bd(node) -> float:
        key = id(node)
        b = seen.get(key)
        if b is not None:
            return b
        t = type(node)
        if t is Base:
            b = 1.0
        elif t is Const:
            b = 0.0
        elif t is MinOver or t is MaxOver:
            b = max(bd(c) for c in node.children)
        elif t is GapOver:
            if len(node.children) == 1:
                b = 0.0
            else:
                b = 2.0 * max(bd(c) for c in node.children)
        elif t is Sub:
            b = bd(node.left) + bd(node.right)
        elif t is Scale:
            b = abs(node.factor) * bd(node.child)
        elif t is AddConst:
            b = bd(node.child)
        elif t is MinCompare:
            b = 1.0
        else:
            raise TypeError(f"not a loss expression: {node!r}")
        seen[key] = b
        return b

    try:
        return bd(expr)
    finally:
        del bd  # as in eval_expr


def build_bintree_query(c1: Sequence[int], c2: Sequence[int]) -> LossExpr:
    """Half the difference of subtree minima: (min over c1 - min over c2) / 2.

    The halving keeps the sensitivity bound at exactly 1.
    """
    a1 = np.unique(_index_array(c1))
    a2 = np.unique(_index_array(c2))
    if a1.size == 0 or a2.size == 0:
        raise ValueError("both candidate sets must be non-empty")
    if np.intersect1d(a1, a2, assume_unique=True).size:
        raise ValueError("candidate sets must be disjoint")
    return MinCompare(np.concatenate((a1, a2)), a1.size)


def build_tilde_loss(subset: Sequence[int], k: int, xi_value: float,
                     universe: Sequence[int]) -> LossExpr:
    """Derived loss scoring a candidate subset by gap and offset optimum.

    Returns

        (1/2) * max( min over subset - (min over universe + (k + sqrt(k)) * xi_value),
                     -gap(subset) )

    The universe minimum realizes the optimal loss as a sensitivity-1
    function of the data, so the whole expression has sensitivity bound
    exactly 1.  A singleton subset has gap +inf, so its score reduces to the
    first branch.  k >= 1 and xi_value > 0 by core._integer's and _positive's rules.
    """
    k = _integer("k", k, 1)
    xi_value = _positive("xi_value", xi_value)
    sub = np.unique(_index_array(subset))
    uni = np.unique(_index_array(universe))
    if sub.size == 0:
        raise ValueError("subset must be non-empty")
    # uni is sorted and unique: sub is contained iff each entry sits at its insertion point
    pos = np.searchsorted(uni, sub)
    if pos[-1] == uni.size or np.any(uni[pos] != sub):
        raise ValueError("subset must be contained in the universe")
    offset = (k + math.sqrt(k)) * xi_value
    leaves = tuple(map(Base, sub.tolist()))  # shared, so each is evaluated once
    return Scale(0.5, MaxOver((
        Sub(MinOver(leaves), AddConst(offset, MinOver(tuple(map(Base, uni.tolist()))))),
        Scale(-1.0, GapOver(leaves)),
    )))


# ---------------------------------------------------------------------------
# Canonical text form.


def format_expr(expr: LossExpr) -> str:
    """Canonical prefix-notation text of an expression."""
    t = type(expr)
    if t is Base:
        return f"(base {expr.index})"
    if t is Const:
        return f"(const {expr.value!r})"
    if t is MinOver or t is MaxOver:
        tag = "min" if t is MinOver else "max"
        return f"({tag} " + " ".join(format_expr(c) for c in expr.children) + ")"
    if t is GapOver:
        return "(gapx " + " ".join(format_expr(c) for c in expr.children) + ")"
    if t is Sub:
        return f"(sub {format_expr(expr.left)} {format_expr(expr.right)})"
    if t is Scale:
        return f"(scale {expr.factor!r} {format_expr(expr.child)})"
    if t is AddConst:
        return f"(addc {expr.offset!r} {format_expr(expr.child)})"
    if t is MinCompare and expr.level is None:
        sides = (expr.indices[:expr.split], expr.indices[expr.split:])
        left, right = ("(min " + " ".join(f"(base {i})" for i in map(int, side)) + ")"
                       for side in sides)
        return f"(scale 0.5 (sub {left} {right}))"
    if t is Level or t is MinCompare:
        raise TypeError(f"{t.__name__} has no text form: its tree expansion grows "
                        "exponentially with the number of levels")
    raise TypeError(f"not a loss expression: {expr!r}")
