"""Domain types and closed-form quantities."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsel.core import (
    LossInstance, MechanismConstants, PrivacyParams,
    ceil_log2, error_scale, gap_threshold,
    generate_instance, loss_scale,
)

finite_losses = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40)


class TestLossInstance:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            LossInstance(())
        with pytest.raises(ValueError):
            LossInstance((1.0, math.inf))
        with pytest.raises(ValueError):
            LossInstance((math.nan,))

    def test_min_index_breaks_ties_low(self):
        assert LossInstance((3.0, 1.0, 1.0, 2.0)).min_index() == 1
        assert LossInstance((0.0, 0.0)).min_index() == 0

    def test_gap_basic(self):
        assert LossInstance((0.0, 5.0, 7.0)).gap() == 5.0
        assert LossInstance((2.0,)).gap() == math.inf
        assert LossInstance((1.0, 1.0, 4.0)).gap() == 0.0

    @given(finite_losses, st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_gap_translation_invariant(self, losses, shift):
        base = LossInstance(losses)
        shifted = LossInstance([x + shift for x in losses])
        if math.isinf(base.gap()):
            assert math.isinf(shifted.gap())
        else:
            assert shifted.gap() == pytest.approx(base.gap(), abs=1e-6)

    @given(finite_losses)
    @settings(max_examples=60, deadline=None)
    def test_min_index_invariant_under_monotone_transform(self, losses):
        base = LossInstance(losses)
        # strictly increasing float-exact maps: argmin position must not move
        ranks = {v: r for r, v in enumerate(sorted(set(losses)))}
        assert LossInstance([float(ranks[x]) for x in losses]).min_index() == base.min_index()
        assert LossInstance([4.0 * x for x in losses]).min_index() == base.min_index()

    def test_array_is_readonly(self):
        inst = LossInstance((1.0, 2.0))
        with pytest.raises(ValueError):
            inst.as_array()[0] = 9.0

    def test_losses_is_one_tuple_of_python_floats(self):
        inst = LossInstance(np.array([1.5, -0.0, 2.0]))
        losses = inst.losses
        assert inst.losses is losses
        assert losses == (1.5, -0.0, 2.0) and math.copysign(1.0, losses[1]) == -1.0
        assert all(type(x) is float for x in losses)
        assert repr(inst) == "LossInstance(losses=(1.5, -0.0, 2.0))"

    def test_equality_and_hash_follow_the_losses(self):
        inst = LossInstance((1.5, -0.0, 2.0))
        assert inst == LossInstance(np.array([1.5, 0.0, 2.0]))
        assert hash(inst) == hash(LossInstance([1.5, 0.0, 2.0]))
        assert inst != LossInstance((1.5, -0.0))
        assert inst != LossInstance((1.5, -0.0, 3.0))
        assert inst != (1.5, -0.0, 2.0)

    def test_instance_is_immutable(self):
        inst = LossInstance((1.0, 2.0))
        for name in ("losses", "other"):
            with pytest.raises(AttributeError):
                setattr(inst, name, (3.0,))
        with pytest.raises(AttributeError):
            del inst.losses
        assert inst.losses == (1.0, 2.0)

    def test_instance_holds_its_losses_once(self):
        n = 1 << 16
        generate_instance("uniform", n, 1000.0, 0)  # warm up numpy's and the generator's caches
        tracemalloc.start()
        try:
            inst = generate_instance("uniform", n, 1000.0, 0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(inst) == n
        assert held <= 1.1 * 8 * n  # the one float64 array
        # building it takes the generator's draw, the instance's copy and a
        # bool mask of n bytes, and no Python float per loss
        assert peak <= 2.25 * 8 * n


class TestPrivacyParams:
    def test_validation(self):
        PrivacyParams(1.0, 0.5)
        with pytest.raises(ValueError):
            PrivacyParams(0.0, 0.5)
        for rho in (math.inf, math.nan):
            with pytest.raises(ValueError, match="rho"):
                PrivacyParams(rho, 0.5)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 1.0)


class TestMechanismConstants:
    def test_defaults(self):
        c = MechanismConstants()
        assert c.c_xi == 1000.0
        assert c.p_xi == 10
        assert c.base_threshold_log == 1000
        # the round count and the splits are the fixed schedule, not fields
        assert [f.name for f in dataclasses.fields(c)] == ["c_xi", "p_xi", "base_threshold_log"]

    def test_validation(self):
        with pytest.raises(ValueError):
            MechanismConstants(c_xi=0.0)
        with pytest.raises(ValueError):
            MechanismConstants(p_xi=0)
        # a bool is an int to isinstance, but not an integer setting
        for field in ("c_xi", "p_xi", "base_threshold_log"):
            with pytest.raises(ValueError, match=field):
                MechanismConstants(**{field: True})
        for c_xi in (math.inf, math.nan):
            with pytest.raises(ValueError, match="c_xi"):
                MechanismConstants(c_xi=c_xi)


def test_ceil_log2():
    assert [ceil_log2(m) for m in (1, 2, 3, 4, 1023, 1024, 1025)] == [0, 1, 2, 2, 10, 10, 11]
    with pytest.raises(ValueError):
        ceil_log2(0)


class TestGapThreshold:
    def test_worked_values(self):
        # frozen from a 40-digit mpmath evaluation of the closed form
        assert gap_threshold(1024, 1, 0.1) == pytest.approx(16.301970665873160, rel=1e-13)
        assert gap_threshold(2, 4, 0.5) == 1.0
        assert gap_threshold(65536, 2, 0.01) == pytest.approx(18.455443589163366, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            gap_threshold(1, 1, 0.1)  # single candidate is degenerate
        with pytest.raises(ValueError):
            gap_threshold(1024, 1, 0.6)
        with pytest.raises(ValueError):
            gap_threshold(1024, 0, 0.1)
        with pytest.raises(ValueError):
            gap_threshold(1024, 1, 0.0)


class TestLossScale:
    def test_worked_values(self):
        assert loss_scale(1, 1, 0.9765625) == 11000.0
        assert loss_scale(2, 4, 0.732421875) == 6144000.0
        assert loss_scale(1000, 1, 0.001) == pytest.approx(7.517105860502449e14, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            loss_scale(0, 1, 0.5)
        with pytest.raises(ValueError):
            loss_scale(1, 0, 0.5)
        # log argument must exceed 1
        with pytest.raises(ValueError):
            loss_scale(1, 1.0, 5.0, MechanismConstants(c_xi=1.0))
        # overflow in the product (c_xi) and in the power (p_xi)
        for consts in (MechanismConstants(c_xi=1e307), MechanismConstants(p_xi=1000)):
            with pytest.raises(ValueError, match="overflows"):
                loss_scale(10, 1.0, 0.1, consts)


class TestErrorScale:
    def test_worked_values(self):
        assert error_scale(2, 1, 0.9765625) == 22000.0
        assert error_scale(4, 1, 0.9765625) == pytest.approx(47452006.402953856, rel=1e-13)

    def test_ceil_log_form_unfolds(self):
        beta0 = 0.004
        assert error_scale(2**11, 0.8, 0.8 * beta0) == 22 * loss_scale(11, 0.8, 0.8 * beta0)
        assert error_scale(2**10 + 1, 0.8, 0.8 * beta0) == error_scale(2**11, 0.8, 0.8 * beta0)
        # a count far beyond any float, such as a derived round count, stays exact
        assert error_scale(2**2999, 1.0, 1e-3) == 2.0 * 2999 * loss_scale(2999, 1.0, 1e-3)
        assert error_scale(2**2999 + 1, 1.0, 1e-3) == 2.0 * 3000 * loss_scale(3000, 1.0, 1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            error_scale(1, 1, 0.5)


def test_closed_forms_positive_and_decreasing_in_rho():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(2, 10**6))
        beta = float(rng.uniform(1e-6, 0.45))
        rho1 = float(rng.uniform(1e-3, 50.0))
        rho2 = rho1 * float(rng.uniform(1.1, 10.0))
        k = ceil_log2(m)
        for f in (lambda r: gap_threshold(m, r, beta),
                  lambda r: loss_scale(k, r, beta),
                  lambda r: error_scale(m, r, beta)):
            lo, hi = f(rho2), f(rho1)
            assert 0 < lo < hi


class TestGenerateInstance:
    def test_gapped(self):
        inst = generate_instance("gapped", 2, 5.0, seed=0)
        assert inst.losses == (0.0, 5.0)
        assert inst.gap() == 5.0

    def test_gapped_singleton_has_infinite_gap(self):
        inst = generate_instance("gapped", 1, 3.0, seed=0)
        assert len(inst) == 1
        assert inst.gap() == math.inf

    def test_constant(self):
        inst = generate_instance("constant", 4, 9.0, seed=0)
        assert inst.gap() == 0.0
        assert inst.min_index() == 0
        assert set(inst.losses) == {0.0}

    def test_layered_structure(self):
        inst = generate_instance("layered", 8, 2.0, seed=0)
        assert inst.losses == (0.0, 2.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0)
        truncated = generate_instance("layered", 5, 2.0, seed=0)
        assert truncated.losses == (0.0, 2.0, 4.0, 4.0, 6.0)

    def test_uniform_range_and_reproducibility(self):
        a = generate_instance("uniform", 64, 10.0, seed=5)
        b = generate_instance("uniform", 64, 10.0, seed=5)
        c = generate_instance("uniform", 64, 10.0, seed=6)
        assert a.losses == b.losses
        assert a.losses != c.losses
        assert all(0 <= x <= 10.0 for x in a.losses)

    def test_families_reproducible_bitwise(self):
        for family in ("layered", "gapped", "uniform", "constant"):
            x = generate_instance(family, 33, 1.5, seed=11)
            y = generate_instance(family, 33, 1.5, seed=11)
            assert x.losses == y.losses

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance("nope", 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance("gapped", 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance("gapped", 4, -1.0, seed=0)
