"""Expression IR: evaluation, sensitivity calculus, builders, text form."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsel import queries
from privsel.core import LossInstance
from privsel.oracle import BudgetOracle
from privsel.queries import (
    AddConst, Base, BaseBatch, Const, GapOver, Level, MaxOver, MinCompare,
    MinOver, Scale, Sub, _derive, _level_values, _segment_blocks, build_bintree_query,
    build_tilde_loss, eval_expr, format_expr, sensitivity_bound,
)


def bases(indices):
    """The Base leaves of a tree node over candidate indices."""
    return tuple(Base(int(i)) for i in indices)


class TestEval:
    def test_singleton_gap_is_infinite(self):
        inst = LossInstance((4.0, 9.0))
        assert eval_expr(GapOver(bases([0])), inst) == math.inf

    def test_affine_arithmetic(self):
        inst = LossInstance((0.0, 5.0))
        expr = Scale(0.5, Sub(MinOver((Base(0),)), MinOver((Base(1),))))
        assert eval_expr(expr, inst) == -2.5
        assert eval_expr(AddConst(3.0, Base(1)), inst) == 8.0

    def test_max_with_minus_inf_drops_branch(self):
        inst = LossInstance((1.0,))
        assert eval_expr(MaxOver((Const(-math.inf), Const(3.0))), inst) == 3.0

    def test_gap_over_children(self):
        inst = LossInstance((1.0, 3.0, 10.0))
        expr = GapOver((Base(2), Base(0), Base(1)))
        assert eval_expr(expr, inst) == 2.0
        assert eval_expr(GapOver((Base(1),)), inst) == math.inf
        assert eval_expr(GapOver((Base(0), Base(0))), inst) == 0.0

    def test_index_out_of_range(self):
        inst = LossInstance((1.0, 2.0))
        for expr in (Base(2), Base(-1), GapOver(bases([0, 5])), GapOver(bases([-1, 0])),
                     GapOver(bases([2])), MinOver(bases([1, 2])), MinOver(bases([-1, 0]))):
            with pytest.raises(IndexError):
                eval_expr(expr, inst)

    def test_large_index_sets_reduce_in_python(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 9, 300)
        inst = LossInstance(losses)
        idx = rng.choice(300, size=200, replace=False)
        assert eval_expr(MinOver(bases(idx)), inst) == losses[idx].min()
        assert eval_expr(MaxOver(bases(idx)), inst) == losses[idx].max()
        two = np.sort(losses[idx])[:2]
        assert eval_expr(GapOver(bases(np.sort(idx))), inst) == pytest.approx(two[1] - two[0])
        with pytest.raises(IndexError):
            eval_expr(MinOver(bases(np.append(idx, 300))), inst)

    def test_memo_reuse_across_queries(self):
        # a caller's memo carries derived levels across calls, and no tree node
        inst = LossInstance((2.0, 7.0, 1.0))
        shared = MinOver((Base(0), Base(1), Base(2)))
        memo = {}
        a = eval_expr(Sub(Base(1), shared), inst, memo)
        b = eval_expr(Sub(Base(0), shared), inst, memo)
        assert (a, b) == (6.0, 1.0) and memo == {}
        below = Level(np.arange(3), [0, 2, 3], [0, 1, 2], 1.0)
        level = Level(below, [0, 1, 2], [0, 1], 1.0)
        tree = Sub(MinCompare([0, 1], 1, level), Const(1.0))
        value = eval_expr(tree, inst, memo)
        assert len(memo) == 2 and all(memo[id(node)][0] is node for node in (below, level))
        held = dict(memo)
        assert eval_expr(tree, inst, memo) == value
        assert memo.keys() == held.keys()
        assert all(memo[key][1] is held[key][1] for key in held)  # read, not derived again

    def test_min_comparison_fast_path_matches_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 120))
            inst = LossInstance(rng.uniform(-5, 5, n))
            cut = int(rng.integers(1, n))
            perm = rng.permutation(n)
            fast = build_bintree_query(perm[:cut], perm[cut:])
            generic = Scale(0.5, Sub(
                MinOver(tuple(Base(int(i)) for i in np.sort(perm[:cut]))),
                MinOver(tuple(Base(int(i)) for i in np.sort(perm[cut:])))))
            assert eval_expr(fast, inst) == pytest.approx(eval_expr(generic, inst))
            assert sensitivity_bound(fast) == sensitivity_bound(generic) == 1.0


class TestOracleEquivalence:
    """Index-set nodes agree with the instance's own min/gap on every subset."""

    @pytest.mark.parametrize("losses", [
        (0.3, -1.0, 4.0, 4.0, 2.5, -1.0, 7.0, 0.0, 3.3, -2.0, 5.5, 1.1),
        (1.0,) * 12,
    ])
    def test_all_subsets_of_twelve(self, losses):
        inst = LossInstance(losses)
        n = len(losses)
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                sub_inst = LossInstance(tuple(losses[i] for i in subset))
                assert eval_expr(MinOver(bases(subset)), inst) == min(
                    losses[i] for i in subset)
                assert eval_expr(GapOver(bases(subset)), inst) == sub_inst.gap()


@pytest.mark.parametrize("node", [
    lambda c: AddConst(c, Base(1)), lambda c: Scale(c, Base(0)),
    lambda c: Scale(c, Sub(Base(2), AddConst(c, Base(0)))),
])
def test_tree_constants_are_read_as_floats(node):
    """A numpy or Fraction constant answers and logs as the float it equals."""
    inst = LossInstance((0.25, -1.5, 3.0))

    def answer(c):
        oracle = BudgetOracle(inst, 1.0, seed=0)
        value = oracle.noisy_query(node(c), 0.5)
        return type(value), value, oracle.log_csv()
    expected = answer(0.5)
    for c in (np.float32(0.5), np.float64(0.5), Fraction(1, 2)):
        assert type(eval_expr(node(c), inst)) is float
        assert type(sensitivity_bound(node(c))) is float
        assert answer(c) == expected


@pytest.mark.parametrize("make, field", [
    (Const, "value"), (lambda c: Scale(c, Base(0)), "factor"),
    (lambda c: AddConst(c, Base(0)), "offset"),
    (lambda c: Level(np.arange(2), [0, 2], [0, 1], c), "offset"),
], ids=["Const", "Scale", "AddConst", "Level"])
def test_tree_constants_follow_one_rule(make, field):
    """Each constant is stored once, at construction, as the float it equals;
    a bool, a non-real, NaN and an unrepresentable int are refused, and so is
    an infinite Scale factor, while the others may be +/-inf."""
    for c in (np.float32(0.5), np.float64(0.5), Fraction(1, 2), 2, np.int64(2), -0.0):
        stored = getattr(make(c), field)
        assert type(stored) is float and stored == float(c)
        assert math.copysign(1.0, stored) == math.copysign(1.0, float(c))
    for bad in (True, False, np.True_, "2.5", None, Decimal("1"), 1 + 0j, math.nan,
                np.float64(math.nan), 10**400):
        with pytest.raises(ValueError, match="must be a"):
            make(bad)
    for c in (math.inf, -math.inf):
        if field == "factor":
            with pytest.raises(ValueError, match="finite"):
                make(c)
        else:
            assert getattr(make(c), field) == c
    assert eval_expr(Const(math.inf), LossInstance((0.0,))) == math.inf
    assert format_expr(Const(-math.inf)) == "(const -inf)"


class TestSensitivityRules:
    def test_node_rules(self):
        assert sensitivity_bound(Base(3)) == 1.0
        assert sensitivity_bound(Const(9.0)) == 0.0
        assert sensitivity_bound(GapOver((Base(4),))) == 0.0
        assert sensitivity_bound(GapOver((Base(0), Base(1)))) == 2.0
        assert sensitivity_bound(Sub(Base(0), GapOver(bases([0, 1])))) == 3.0
        assert sensitivity_bound(Scale(-0.25, GapOver(bases([0, 1])))) == 0.5
        assert sensitivity_bound(MinOver((Base(0), Const(1.0)))) == 1.0
        assert sensitivity_bound(MaxOver((GapOver(bases([0, 1])), Base(0)))) == 2.0
        assert sensitivity_bound(MinOver(bases(range(50)))) == 1.0

    def test_gap_over_scales_with_children(self):
        inner = Sub(Base(0), Base(1))  # bound 2
        assert sensitivity_bound(GapOver((inner, Base(2)))) == 4.0

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_addconst_never_changes_bound(self, c):
        expr = Sub(MinOver((Base(0), Base(1))), GapOver(bases([0, 1, 2])))
        assert sensitivity_bound(AddConst(c, expr)) == sensitivity_bound(expr)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_small_scale_never_increases_bound(self, c):
        expr = Sub(MinOver((Base(0), Base(1))), GapOver(bases([0, 1, 2])))
        assert sensitivity_bound(Scale(c, expr)) <= sensitivity_bound(expr)


class TestBuilders:
    def test_bintree_query_values(self):
        assert eval_expr(build_bintree_query([0], [1]), LossInstance((0.0, 5.0))) == -2.5
        inst = LossInstance((3.0, 1.0, 4.0, 4.0))
        assert eval_expr(build_bintree_query([0, 1], [2, 3]), inst) == -1.5

    def test_bintree_query_bound_always_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            cut = int(rng.integers(1, n))
            perm = rng.permutation(n)
            assert sensitivity_bound(build_bintree_query(perm[:cut], perm[cut:])) == 1.0

    def test_bintree_query_validation(self):
        with pytest.raises(ValueError):
            build_bintree_query([], [1])
        with pytest.raises(ValueError):
            build_bintree_query([0, 1], [1, 2])
        with pytest.raises(ValueError):
            build_bintree_query([3, 1, 3], [1, 1])
        build_bintree_query([3, 3], [1, 1])  # duplicates within one side are fine

    def test_tilde_loss_singleton_subset(self):
        # gap branch is -inf, so the value is (l_j - min - offset) / 2
        losses = (4.0, 0.0, 9.0)
        inst = LossInstance(losses)
        k, xi_value = 4, 1.5
        offset = (k + math.sqrt(k)) * xi_value
        expr = build_tilde_loss([2], k, xi_value, range(3))
        assert eval_expr(expr, inst) == pytest.approx(0.5 * (9.0 - 0.0 - offset))

    def test_tilde_loss_full_subset_on_gapped_instance(self):
        k, xi_value = 4, 10.0
        offset = (k + math.sqrt(k)) * xi_value  # = 60
        g = 11.0  # below the offset, so the gap branch wins the max
        inst = LossInstance((0.0, g, g, g))
        expr = build_tilde_loss(range(4), k, xi_value, range(4))
        assert eval_expr(expr, inst) == pytest.approx(-g / 2)
        # and with a hand evaluation of both branches
        assert max(0.0 - 0.0 - offset, -g) == -g

    def test_tilde_loss_bound_always_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, n + 1))
            subset = rng.choice(n, size=m, replace=False)
            expr = build_tilde_loss(subset, int(rng.integers(1, 9)),
                                    float(rng.uniform(0.01, 9)), range(n))
            assert sensitivity_bound(expr) == 1.0

    def test_tilde_loss_validation(self):
        with pytest.raises(ValueError):
            build_tilde_loss([], 2, 1.0, range(4))
        with pytest.raises(ValueError):
            build_tilde_loss([5], 2, 1.0, range(4))  # outside universe
        for subset in ([3], [1, 4], [0, 2], [2, 2, 6, 5]):  # 3, 1, 0, 5 not in {2, 4, 6}
            with pytest.raises(ValueError):
                build_tilde_loss(subset, 2, 1.0, [6, 2, 4, 2])
        build_tilde_loss([4, 2, 4], 2, 1.0, [6, 2, 4, 2])  # duplicates on both sides
        with pytest.raises(ValueError):
            build_tilde_loss([0], 0, 1.0, range(4))
        with pytest.raises(ValueError):
            build_tilde_loss([0], 2, 0.0, range(4))


class TestNodeValidation:
    def test_over_nodes_need_exactly_one_form(self):
        with pytest.raises(TypeError):
            MinOver()
        with pytest.raises(ValueError):
            MinOver(())
        with pytest.raises(ValueError):
            GapOver(())

    def test_float_indices_rejected(self):
        # a float index would otherwise be truncated to the candidate below it
        level = Level(np.arange(4), [0, 1, 2, 4], [0, 1, 2, 3], 1.0)
        for make in (lambda: BaseBatch([1.5]),
                     lambda: BaseBatch(np.array([0.0, 1.0])),
                     lambda: Level(np.array([0.0, 1.0]), [0, 2], [0, 1], 1.0),
                     lambda: Level(np.arange(4), [0.0, 2.0], [0, 1], 1.0),
                     lambda: Level(np.arange(4), [0, 2], [0.5, 1], 1.0),
                     lambda: MinCompare([0.5, 1, 2], 1),
                     lambda: MinCompare(np.array([0.0, 1.0]), 1, level),
                     lambda: build_bintree_query([0.5], [1]),
                     lambda: build_bintree_query([0], [1.0, 2.0])):
            with pytest.raises(TypeError, match="integers"):
                make()
        # any integer dtype is accepted and stored as int64
        assert MinCompare(np.array([2, 0], dtype=np.uint8), 1).indices.dtype == np.int64


def bits(x: float) -> bytes:
    """Exact float identity: tells -0.0 from 0.0."""
    return np.float64(x).tobytes()


def tilde_trees(members, subsets, k, xi_value):
    """The reference form of a derived level: one tilde-loss tree per subset.

    Over base candidates (an index array) this is build_tilde_loss itself;
    over derived losses (a list of trees) the same shape with MinOver and
    GapOver over the children.
    """
    if isinstance(members, np.ndarray):
        return [build_tilde_loss(members[sel], k, xi_value, members) for sel in subsets]
    offset = (k + math.sqrt(k)) * xi_value
    universe = MinOver(tuple(members))
    trees = []
    for sel in subsets:
        chosen = tuple(members[i] for i in sel)
        trees.append(Scale(0.5, MaxOver((
            Sub(MinOver(chosen), AddConst(offset, universe)),
            Scale(-1.0, GapOver(chosen))))))
    return trees


def random_subsets(rng, n, count):
    """Sorted position subsets of 1..n entries, singletons among them."""
    sizes = rng.integers(1, n + 1, count)
    sizes[rng.random(count) < 0.3] = 1
    return [np.sort(rng.choice(n, size=int(m), replace=False)) for m in sizes]


def csr(subsets):
    indptr = np.zeros(len(subsets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in subsets], out=indptr[1:])
    return indptr, np.concatenate(subsets)


class TestLevel:
    """Level against the tree nodes it replaces (the reference)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_tilde_trees_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 160))
        # few distinct integer losses: ties everywhere, zero gaps, -0.0 derived values
        losses = rng.integers(0, int(rng.integers(1, 6)), n).astype(float)
        # and zeros of both signs among the losses themselves
        zeros = losses == 0
        losses[zeros] = np.random.default_rng([seed, 1]).choice([0.0, -0.0], zeros.sum())
        inst = LossInstance(losses)
        candidates = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        members, level = candidates, candidates
        memo = {}
        for _ in range(int(rng.integers(1, 5))):
            k, xi_value = int(rng.integers(1, 9)), float(rng.choice([0.5, 1.0, 2.5]))
            subsets = random_subsets(rng, len(level), int(rng.integers(1, 12)))
            level = Level(level, *csr(subsets), (k + math.sqrt(k)) * xi_value)
            members = tilde_trees(members, subsets, k, xi_value)
            values = _level_values(level, inst, memo)
            assert values.shape == (len(level),)
            for t, tree in enumerate(members):
                assert bits(values[t]) == bits(eval_expr(tree, inst))
                assert sensitivity_bound(tree) == 1.0
            for pos in random_subsets(rng, len(level), 4):
                if pos.size < 2:
                    continue
                cut = int(rng.integers(1, pos.size))
                compare = MinCompare(pos, cut, level)
                tree = Scale(0.5, Sub(MinOver(tuple(members[i] for i in pos[:cut])),
                                      MinOver(tuple(members[i] for i in pos[cut:]))))
                assert bits(eval_expr(compare, inst, memo)) == bits(eval_expr(tree, inst))
                assert sensitivity_bound(compare) == sensitivity_bound(tree) == 1.0
            if len(level) > 1:
                cut = int(rng.integers(1, len(level)))
                pos = np.arange(len(level))
                tree = Scale(0.5, Sub(MinOver(tuple(members[:cut])),
                                      MinOver(tuple(members[cut:]))))
                compare = MinCompare(pos, cut, level)
                assert bits(eval_expr(compare, inst, memo)) == bits(eval_expr(tree, inst))
                assert sensitivity_bound(compare) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_first_of_equal_signed_zeros_matches_trees(self, seed):
        # losses (0, 0, 1, 3), offset 1: subset {0, 1} scores -0.0, {2} +0.0
        # and {3} 1.0, so a side's minimum is a zero whose sign only the
        # first-of-equals rule decides; sides of 31 and 32 make MinCompares of
        # at most 64 members, sides of 64 and 65 larger ones
        rng = np.random.default_rng([seed, 7])
        inst = LossInstance((0.0, 0.0, 1.0, 3.0))
        choices = ([0, 1], [2], [3])
        # entry 0 reads -0.0 and entry 139 +0.0: against a single one of them
        # a side's sign shows in the difference (-0.0 - x and x - 0.0 keep it)
        subsets = [[0, 1]] + [choices[c] for c in rng.integers(0, 3, 138)] + [[2]]
        level = Level(np.arange(4), *csr([np.array(sub) for sub in subsets]), 1.0)
        trees = tilde_trees(np.arange(4), subsets, 1, 0.5)
        memo = {}
        for size in (31, 32, 64, 65) * 3:
            side = np.sort(rng.choice(np.arange(1, 139), size, replace=False))
            for pos, cut in ((np.append(side, 139), size), (np.insert(side, 0, 0), 1),
                             (np.arange(1, 130), size), (range(1, 130), size)):
                tree = Scale(0.5, Sub(MinOver(tuple(trees[i] for i in pos[:cut])),
                                      MinOver(tuple(trees[i] for i in pos[cut:]))))
                assert bits(eval_expr(MinCompare(pos, cut, level), inst, memo)) == bits(
                    eval_expr(tree, inst))

    def test_signed_zero_ties_follow_position_order(self):
        # losses (0, 0, 1), offset 1: subset {0, 1} scores -0.0 (a zero gap
        # beats the score -1) and {2} scores +0.0 (1 - (0 + 1)), so the level
        # reads (-0.0, +0.0, -0.0, +0.0); among equal values the first wins
        inst = LossInstance((0.0, 0.0, 1.0))
        for candidates in (np.arange(3), range(3)):  # level 0 as an array or a range
            level = Level(candidates, [0, 2, 3, 5, 6], [0, 1, 2, 0, 1, 2], 1.0)
            values = _level_values(level, inst, {})
            assert [bits(v) for v in values] == [bits(-0.0), bits(0.0)] * 2
            # a side's minimum minus the +0.0 at position 3 keeps that minimum's sign
            assert bits(eval_expr(MinCompare([0, 1, 3], 2, level), inst)) == bits(-0.0)
            assert bits(eval_expr(MinCompare([1, 2, 3], 2, level), inst)) == bits(0.0)
            # a gap of (s2 = -0.0) - (s1 = +0.0) is -0.0, so subset {1, 2} scores +0.0
            above = Level(level, [0, 2, 4], [0, 1, 1, 2], 1.0)
            assert [bits(v) for v in _level_values(above, inst, {})] == [bits(-0.0), bits(0.0)]
        trees = tilde_trees(tilde_trees(np.arange(3), [[0, 1], [2], [0, 1], [2]], 1, 0.5),
                            [[0, 1], [1, 2]], 1, 0.5)
        assert [bits(eval_expr(t, inst)) for t in trees] == [bits(-0.0), bits(0.0)]

    def test_min_of_one_level_is_shared(self):
        inst = LossInstance((3.0, 1.0, 2.0, 5.0))
        level = Level(np.arange(4), [0, 1, 2, 4], [0, 1, 2, 3], 2.0)
        memo = {}
        for pos in ([0, 1], [1, 2]):
            eval_expr(MinCompare(pos, 1, level), inst, memo)
        assert sum(entry[0] is level for entry in memo.values()) == 1

    def test_level_zero_index_checked_at_evaluation(self):
        level = Level(np.array([0, 7]), [0, 1, 2], [0, 1], 1.0)
        with pytest.raises(IndexError):
            eval_expr(MinCompare([0, 1], 1, level), LossInstance((1.0, 2.0)))

    def test_construction_rejects_bad_subsets(self):
        base = np.arange(4)
        with pytest.raises(ValueError):
            Level(base, [0, 2, 2], [0, 1], 1.0)  # empty second subset
        with pytest.raises(ValueError):
            Level(base, [0], [], 1.0)  # no subset at all
        with pytest.raises(ValueError):
            Level(base, [0, 2], [0, 1, 2], 1.0)  # indptr does not cover indices
        with pytest.raises(IndexError):
            Level(base, [0, 2], [1, 4], 1.0)
        with pytest.raises(IndexError):
            Level(base, [0, 1, 2], [0, -1], 1.0)
        with pytest.raises(ValueError):
            Level(base, [0, 2], [1, 1], 1.0)  # repeated position
        with pytest.raises(ValueError):
            Level(base, [0, 2], [2, 1], 1.0)  # decreasing
        with pytest.raises(ValueError):
            Level([], [0, 1], [0], 1.0)
        # a subset may start below where the previous one ended
        assert len(Level(base, [0, 2, 4], [2, 3, 0, 1], 1.0)) == 2

    def test_bare_level_is_not_a_scalar_query(self):
        level = Level(np.arange(2), [0, 2], [0, 1], 1.0)
        with pytest.raises(TypeError):
            eval_expr(level, LossInstance((1.0, 2.0)))
        with pytest.raises(TypeError):
            sensitivity_bound(level)

    def test_format_expr_refuses_levels(self):
        # a chain of d levels expands into text exponential in d
        level = Level(np.arange(2), [0, 1, 2], [0, 1], 1.0)
        compare = MinCompare([0, 1], 1, level)
        for expr in (level, compare, Scale(0.5, Sub(compare, Base(1)))):
            with pytest.raises(TypeError, match="no text form"):
                format_expr(expr)
        for other in (3, "(base 0)", None):
            with pytest.raises(TypeError, match="^not a loss expression: "):
                format_expr(other)


class TestSegmentBlocks:
    """A level is derived in blocks of subsets; any block size gives its bytes."""

    @pytest.mark.parametrize("block", [1, 7, 64, queries._SEGMENT_BLOCK])
    @pytest.mark.parametrize("seed", range(10))
    def test_blocks_cover_every_subset_once_in_order(self, monkeypatch, seed, block):
        monkeypatch.setattr(queries, "_SEGMENT_BLOCK", block)
        rng = np.random.default_rng([seed, 11])
        sizes = rng.integers(1, 3 * block + 2, int(rng.integers(1, 60)))
        sizes[rng.random(sizes.size) < 0.3] = 1
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        blocks = list(_segment_blocks(indptr))
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == sizes.size
        for a, b in blocks:
            assert b > a
            assert indptr[b] - indptr[a] <= block or b == a + 1
            # greedy: the next subset would not have fitted
            assert b == sizes.size or indptr[b + 1] - indptr[a] > block

    @pytest.mark.parametrize("seed", range(30))
    def test_derive_is_bytewise_independent_of_the_block_size(self, monkeypatch, seed):
        rng = np.random.default_rng([seed, 12])
        n = int(rng.integers(1, 300))
        # few distinct losses (heavy ties) with zeros of both signs
        values = rng.integers(0, int(rng.integers(1, 4)), n).astype(float)
        zeros = values == 0
        values[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        # singletons (random_subsets makes ~30%) and subsets longer than a block
        level = Level(np.arange(n), *csr(random_subsets(rng, n, int(rng.integers(1, 40)))),
                      float(rng.choice([0.0, 1.0, 2.5])))
        monkeypatch.setattr(queries, "_SEGMENT_BLOCK", 1 << 62)
        reference = _derive(values, level).tobytes()
        for block in (1, 7, 64):
            monkeypatch.setattr(queries, "_SEGMENT_BLOCK", block)
            assert _derive(values, level).tobytes() == reference


class TestMinCompare:
    """The tournament's comparison node against the tree it stands for."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_tree_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        # signed zeros and ties on both sides of the 64-index threshold
        inst = LossInstance(rng.choice([-0.0, 0.0, 1.0, 2.0], n))
        for _ in range(10):
            idx = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            split = int(rng.integers(1, idx.size))
            node = MinCompare(idx, split)
            tree = Scale(0.5, Sub(MinOver(bases(idx[:split])), MinOver(bases(idx[split:]))))
            assert bits(eval_expr(node, inst)) == bits(eval_expr(tree, inst))
            assert eval_expr(Sub(node, Base(0)), inst) == eval_expr(tree, inst) - inst.losses[0]
            assert sensitivity_bound(node) == sensitivity_bound(tree) == 1.0
            assert format_expr(node) == format_expr(tree)

    def test_pair_is_the_difference_tree(self):
        # combined_select's final query, a == b included
        inst = LossInstance([-0.0, 0.0, 1 / 3, -2.5])
        for a in range(4):
            for b in range(4):
                node = MinCompare([a, b], 1)
                tree = Scale(0.5, Sub(Base(a), Base(b)))
                assert bits(eval_expr(node, inst)) == bits(eval_expr(tree, inst))
                assert sensitivity_bound(node) == sensitivity_bound(tree) == 1.0

    def test_bintree_query_is_a_min_compare(self):
        node = build_bintree_query([3, 1], [0, 2])
        assert type(node) is MinCompare
        assert (node.indices.tolist(), node.split) == ([1, 3, 0, 2], 2)

    def test_text_is_the_tree(self):
        node = MinCompare([4, 2, 7], 1)
        text = "(scale 0.5 (sub (min (base 4)) (min (base 2) (base 7))))"
        assert format_expr(node) == text
        level = Level(np.arange(2), [0, 1, 2], [0, 1], 1.0)
        with pytest.raises(TypeError, match="no text form"):
            format_expr(MinCompare([0, 1], 1, level))

    def test_construction_rejects_bad_arguments(self):
        for indices, split in (([0, 1], 0), ([0, 1], 2), ([], 0), ([[0, 1]], 1)):
            with pytest.raises(ValueError):
                MinCompare(indices, split)
        level = Level(np.arange(4), [0, 1, 2, 4], [0, 1, 2, 3], 1.0)
        for bad in ([1, 0], [0, 0]):
            with pytest.raises(ValueError):
                MinCompare(bad, 1, level)
        for bad in ([2, 3], [-1, 0]):
            with pytest.raises(IndexError):
                MinCompare(bad, 1, level)
        with pytest.raises(TypeError):
            MinCompare([0, 1], 1, np.arange(4))
        assert MinCompare(np.array([0, 1], dtype=np.int32), np.int64(1)).split == 1

    @pytest.mark.parametrize("size", [3, 100])
    def test_indices_checked_at_evaluation(self, size):
        inst = LossInstance(np.arange(float(size)))
        for bad in (-1, size):
            idx = np.arange(size)
            idx[-1] = bad
            with pytest.raises(IndexError):
                eval_expr(MinCompare(idx, 1), inst)

    @pytest.mark.parametrize("seed", range(20))
    def test_range_form_matches_array_form_and_tree_bitwise(self, seed):
        rng = np.random.default_rng([seed, 5])
        n = int(rng.integers(2, 200))
        inst = LossInstance(rng.choice([-0.0, 0.0, 1.0, 2.0], n))
        # spans of 64 and 65 indices sit on both sides of the threshold
        sizes = [int(rng.integers(2, n + 1)) for _ in range(8)] + [s for s in (64, 65) if s <= n]
        for size in sizes:
            lo = int(rng.integers(0, n - size + 1))
            split = int(rng.integers(1, size))
            node = MinCompare(range(lo, lo + size), split)
            assert type(node.indices) is range
            idx = np.arange(lo, lo + size)
            array = MinCompare(idx, split)
            tree = Scale(0.5, Sub(MinOver(bases(idx[:split])), MinOver(bases(idx[split:]))))
            assert bits(eval_expr(node, inst)) == bits(eval_expr(array, inst))
            assert bits(eval_expr(node, inst)) == bits(eval_expr(tree, inst))
            assert sensitivity_bound(node) == 1.0
            assert format_expr(node) == format_expr(array) == format_expr(tree)

    def test_range_form_construction(self):
        for split in (0, 5):
            with pytest.raises(ValueError):
                MinCompare(range(3, 8), split)
        # a step-1 range stays a range, over base losses and level positions alike
        level = Level(np.arange(4), [0, 1, 2, 3, 4], [0, 1, 2, 3], 1.0)
        for indices, lvl in ((range(3, 8), None), (range(1, 4), level)):
            assert MinCompare(indices, 1, lvl).indices is indices
        for indices, stored in ((range(0, 10, 2), [0, 2, 4, 6, 8]), (range(3, 0, -1), [3, 2, 1])):
            node = MinCompare(indices, 1)
            assert type(node.indices) is np.ndarray and node.indices.dtype == np.int64
            assert node.indices.tolist() == stored

    @pytest.mark.parametrize("size", [3, 100])
    def test_range_checked_at_evaluation(self, size):
        inst = LossInstance(np.arange(float(size)))
        for bad in (range(-1, 3), range(0, size + 1)):
            with pytest.raises(IndexError):
                eval_expr(MinCompare(bad, 1), inst)

    def test_bound_follows_the_level(self):
        level = Level(np.arange(4), [0, 1, 4], [0, 1, 2, 3], 1.0)
        above = Level(level, [0, 1, 2], [0, 1], 1.0)
        assert sensitivity_bound(MinCompare([0, 1], 1, above)) == 1.0
        assert sensitivity_bound(Sub(MinCompare([0, 1], 1, level), Base(0))) == 2.0

    @pytest.mark.parametrize("seed", range(30))
    def test_level_form_changes_by_at_most_one(self, seed):
        # the node the recursion submits, and one the verify fuzzer never
        # draws: its bound of 1 rests on the Level induction alone
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(2, 120))
        level = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        nodes = []
        for _ in range(int(rng.integers(1, 5))):
            k, xi_value = int(rng.integers(1, 9)), float(rng.choice([0.5, 1.0, 2.5]))
            subsets = random_subsets(rng, len(level), int(rng.integers(2, 12)))
            level = Level(level, *csr(subsets), (k + math.sqrt(k)) * xi_value)
            size = int(rng.integers(2, len(level) + 1))
            pos = np.sort(rng.choice(len(level), size=size, replace=False))
            nodes.append(MinCompare(pos, int(rng.integers(1, size)), level))
        for trial in range(20):
            # integer losses for ties and zero gaps, and perturbations at the cube's corners
            losses = (rng.integers(-2, 3, n).astype(float) if trial % 2
                      else rng.uniform(-3.0, 3.0, n))
            delta = rng.uniform(-1.0, 1.0, n) if trial % 3 else rng.choice([-1.0, 1.0], n)
            near, far = LossInstance(losses), LossInstance(losses + delta)
            for node in nodes:
                a, b = eval_expr(node, near), eval_expr(node, far)
                if math.isfinite(a) and math.isfinite(b):
                    assert abs(a - b) <= 1.0 + 1e-9
        assert all(sensitivity_bound(node) == 1.0 for node in nodes)


def python_gap(values):
    """Gap in _two_smallest's order, written out independently."""
    s1 = s2 = math.inf
    for v in values:
        if v < s1:
            s1, s2 = v, s1
        elif v < s2:
            s2 = v
    return s2 - s1


@pytest.mark.parametrize("seed", range(20))
def test_index_nodes_above_64_reduce_as_python_does(seed):
    # above 64 indices MinCompare reduces with numpy; a zero result must carry
    # the sign Python's first-of-equals rule gives, as the tree nodes do
    rng = np.random.default_rng(seed)
    n = int(rng.integers(65, 201))
    extra = rng.choice([0.0, 1.0, -1.0])  # lets min, max or neither be zero
    losses = rng.choice([-0.0, 0.0, -0.0, 0.0, extra], n).tolist()
    inst = LossInstance(losses)
    for _ in range(10):
        idx = rng.choice(n, size=int(rng.integers(65, n + 1)), replace=False)
        vals = [losses[i] for i in idx.tolist()]
        assert bits(eval_expr(MinOver(bases(idx)), inst)) == bits(min(vals))
        assert bits(eval_expr(MaxOver(bases(idx)), inst)) == bits(max(vals))
        ordered = [losses[i] for i in sorted(idx.tolist())]
        assert bits(eval_expr(GapOver(bases(sorted(idx.tolist()))), inst)) == bits(
            python_gap(ordered))
        split = int(rng.integers(1, idx.size))
        expected = 0.5 * (min(vals[:split]) - min(vals[split:]))
        assert bits(eval_expr(MinCompare(idx, split), inst)) == bits(expected)


class TestBaseBatch:
    def test_is_a_read_only_sequence_of_base_nodes(self):
        batch = BaseBatch(np.array([3, 0, 2]))
        assert len(batch) == 3
        assert list(batch) == [Base(3), Base(0), Base(2)]
        assert batch[1] == Base(0) and batch[-1] == Base(2)
        assert type(batch[1].index) is int
        assert batch.indices.dtype == np.int64
        with pytest.raises(ValueError):
            batch.indices[0] = 1
        assert len(BaseBatch([])) == 0
        with pytest.raises(ValueError):
            BaseBatch([[0, 1]])

    def test_slice_is_a_base_batch(self):
        batch = BaseBatch([3, 0, 2, 5])
        for s, expected in ((slice(0, 2), [3, 0]), (slice(None, None, 2), [3, 2]),
                            (slice(None, None, -1), [5, 2, 0, 3]), (slice(3, 1), [])):
            part = batch[s]
            assert type(part) is BaseBatch
            assert part.indices.tolist() == expected
            assert list(part) == [Base(i) for i in expected]
            with pytest.raises(ValueError):
                part.indices[...] = 1
        assert batch[-2] == Base(2)
        assert batch.index(Base(2)) == 2 and Base(5) in batch

    def test_step_one_range_is_kept_and_any_other_becomes_an_array(self):
        assert BaseBatch(range(3, 9)).indices == range(3, 9)
        assert BaseBatch(range(0)).indices == range(0)
        for r in (range(0, 10, 3), range(9, 2, -1)):
            indices = BaseBatch(r).indices
            assert type(indices) is np.ndarray and indices.dtype == np.int64
            assert indices.tolist() == list(r) and not indices.flags.writeable

    def test_range_batch_slices_and_iterates_as_its_array(self):
        batch = BaseBatch(range(3, 9))
        assert len(batch) == 6
        items = list(batch)
        assert items == [Base(i) for i in range(3, 9)]
        assert all(type(b.index) is int for b in items)
        assert batch[0] == Base(3) and batch[-1] == Base(8)
        assert type(batch[2].index) is int
        for s in (slice(1, 4), slice(None, None, 2), slice(None, None, -1), slice(4, 1)):
            part = batch[s]
            assert type(part) is BaseBatch
            assert list(part) == [Base(i) for i in list(range(3, 9))[s]]
            assert all(type(b.index) is int for b in part)


class TestSerialization:
    def test_canonical_examples(self):
        assert format_expr(Base(3)) == "(base 3)"
        assert format_expr(GapOver(bases([0, 2]))) == "(gapx (base 0) (base 2))"
        assert format_expr(Const(math.inf)) == "(const inf)"
        assert format_expr(Scale(0.5, Sub(Base(0), Base(1)))) == \
            "(scale 0.5 (sub (base 0) (base 1)))"
        assert format_expr(MinOver(bases([1, 2]))) == "(min (base 1) (base 2))"
        assert format_expr(GapOver((Base(1), AddConst(-1.25, Base(0))))) == \
            "(gapx (base 1) (addc -1.25 (base 0)))"
        assert format_expr(MaxOver((Const(-math.inf), Scale(-1.0, GapOver(bases([0, 1])))))) == \
            "(max (const -inf) (scale -1.0 (gapx (base 0) (base 1))))"
