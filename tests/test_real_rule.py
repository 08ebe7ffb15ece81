"""One real-number rule, core._positive, at every budget, beta and scale constant."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import privsel
from privsel.core import (
    LossInstance, MechanismConstants, error_scale, gap_threshold, generate_instance, loss_scale,
)
from privsel.mechanisms import (
    binary_tree_select, combined_select, exponential_mechanism, query_all_baseline,
    recursive_gap_round_bound, recursive_gap_select,
)
from privsel.oracle import (
    BudgetOracle, EqualBudgetAdapter, RELATIVE_BUDGET_SLACK, equal_budget_simulate,
    plan_equal_budget,
)
from privsel.queries import Base, BaseBatch, build_tilde_loss, format_expr
from privsel.verify import check_good_subset_rate, point_checks

INST = LossInstance((2.0, 5.0, 1.0, 7.0))
UNIFORM = generate_instance("uniform", 8, 1.0, 0)
LAYERED = generate_instance("layered", 64, 2.0, seed=1)
SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
MAX = sys.float_info.max


def typed(value):
    return type(value), value


def fields(record):
    """A dataclass's field values with their types: 1 and 1.0 differ here."""
    return tuple(map(typed, dataclasses.astuple(record)))


def plain(call):
    return lambda: call


def on_oracle(run, total=4.0, instance=UNIFORM):
    """A site's call on a fresh oracle, made before the call: (result, log)."""
    def make():
        oracle = BudgetOracle(instance, total, seed=0)
        return lambda v: (run(oracle, v), oracle.log_csv())
    return make


def with_rng(run):
    def make():
        rng = np.random.default_rng(0)
        return lambda v: run(rng, v)
    return make


def simulated(rho):
    result, adapter = equal_budget_simulate(
        UNIFORM, lambda o: binary_tree_select(o, 1.0), 4, rho, seed=0)
    return fields(result), adapter.log_csv()


# site id: (argument named in the message, the domain's top, a valid value,
# a function that makes the site's call; the call's results are comparable).
# Every valid value is a float32, so each numpy type can carry it exactly.
SITES = {
    "MechanismConstants.c_xi": (
        "c_xi", MAX, 2.0, plain(lambda v: typed(MechanismConstants(c_xi=v).c_xi))),
    "gap_threshold.rho": ("rho", math.inf, 2.0, plain(lambda v: gap_threshold(1024, v, 0.125))),
    "gap_threshold.beta": ("beta", 0.5, 0.125, plain(lambda v: gap_threshold(1024, 1.0, v))),
    "loss_scale.rho": ("rho", math.inf, 2.0, plain(lambda v: loss_scale(3, v, 0.125))),
    "loss_scale.beta": ("beta", math.inf, 2.0, plain(lambda v: loss_scale(3, 1.0, v))),
    "error_scale.rho": ("rho", math.inf, 2.0, plain(lambda v: error_scale(4, v, 0.5))),
    "error_scale.beta": ("beta", math.inf, 0.5, plain(lambda v: error_scale(4, 1.0, v))),
    "build_tilde_loss.xi_value": (
        "xi_value", math.inf, 2.0,
        plain(lambda v: format_expr(build_tilde_loss([0, 1], 2, v, range(4))))),
    "BudgetOracle.total_budget": (
        "total_budget", MAX, 2.0, plain(lambda v: typed(BudgetOracle(INST, v).total_budget))),
    "BudgetOracle.noisy_query.rho_i": (
        "rho_i", math.inf, 2.0, on_oracle(lambda o, v: o.noisy_query(Base(0), v))),
    "BudgetOracle.noisy_tournament.rho": (
        "rho", math.inf, 2.0, on_oracle(lambda o, v: o.noisy_tournament(range(8), v))),
    "BudgetOracle.noisy_query_batch.rho_each": (
        "rho_each", math.inf, 0.5,
        on_oracle(lambda o, v: o.noisy_query_batch(BaseBatch(range(8)), v).tolist())),
    # the adapter's rho is its total budget, checked under its own name
    "EqualBudgetAdapter.rho": (
        "rho", MAX, 2.0,
        plain(lambda v: EqualBudgetAdapter(INST, 4, v, seed=0).noisy_query(Base(1), 1.0))),
    "equal_budget_simulate.rho": ("rho", MAX, 2.0, plain(simulated)),
    "plan_equal_budget.rho": (
        "rho", math.inf, 2.0, plain(lambda v: fields(plan_equal_budget(1.0, 10, v)))),
    "plan_equal_budget.rho_i": (
        "rho_i", 1.0 * (1.0 + RELATIVE_BUDGET_SLACK), 0.5,
        plain(lambda v: fields(plan_equal_budget(v, 10, 1.0)))),
    "binary_tree_select.rho": (
        "rho", math.inf, 1.0, on_oracle(lambda o, v: fields(binary_tree_select(o, v)))),
    "recursive_gap_select.rho": (
        "rho", math.inf, 1.0,
        on_oracle(lambda o, v: fields(recursive_gap_select(o, v, 0.5, SCALED)))),
    "recursive_gap_select.beta": (
        "beta", 1, 0.5, on_oracle(lambda o, v: fields(recursive_gap_select(o, 1.0, v, SCALED)))),
    "combined_select.rho": (
        "rho", math.inf, 3.0, on_oracle(lambda o, v: fields(combined_select(o, v, SCALED)))),
    "exponential_mechanism.rho": (
        "rho", math.inf, 1.0,
        with_rng(lambda rng, v: fields(exponential_mechanism(UNIFORM, v, rng)))),
    "query_all_baseline.rho": (
        "rho", math.inf, 1.0, on_oracle(lambda o, v: fields(query_all_baseline(o, v)))),
    "recursive_gap_round_bound.beta": (
        "beta", 1, 0.5, plain(lambda v: recursive_gap_round_bound(1024, v, SCALED))),
    "point_checks.rho": ("rho", math.inf, 1.0, plain(lambda v: point_checks(1000, v, 2**-10))),
    "point_checks.beta": ("beta", 0.001, 2**-10, plain(lambda v: point_checks(1000, 1.0, v))),
    "check_good_subset_rate.rho": (
        "rho", math.inf, 1.0,
        plain(lambda v: check_good_subset_rate(6, LAYERED, SCALED, rho=v, trials=50, seed=2))),
    "check_good_subset_rate.beta": (
        "beta", math.inf, 0.125,
        plain(lambda v: check_good_subset_rate(6, LAYERED, SCALED, beta=v, trials=50, seed=2))),
}


def outside(most):
    """Values just outside (0, most]."""
    return (0.0, -0.0) + ((math.nextafter(most, math.inf),) if math.isfinite(most) else ())


@pytest.mark.parametrize("site", SITES)
def test_non_reals_and_out_of_range_rejected_before_any_draw(site, monkeypatch):
    def no_randomness(*args, **kwargs):
        raise AssertionError("a generator or seed sequence was made")
    name, most, good, make = SITES[site]
    call = make()
    monkeypatch.setattr(np.random, "default_rng", no_randomness)
    monkeypatch.setattr(np.random, "SeedSequence", no_randomness)
    for bad in (True, False, math.nan, "1", None, Decimal("1"), 1 + 0j) + outside(most):
        message = (rf"^{name} must be a real number in \(0, {re.escape(repr(most))}\], "
                   rf"got {re.escape(repr(bad))}$")
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("site", SITES)
def test_other_real_types_act_as_their_float(site):
    _, _, good, make = SITES[site]
    assert np.float32(good) == good
    kinds = (np.float64, np.float32, Fraction)
    if float(good).is_integer():
        kinds += (int, np.int64)
    expected = make()(good)
    for kind in kinds:
        value = kind(good)
        assert type(value) is not float
        assert make()(value) == expected


# Public parameters named like a budget that stay outside the rule, with the reason.
KEPT = {
    "ExperimentConfig.rho": "JSON input: a ConfigError, with messages of its own",
    "ExperimentConfig.beta": "JSON input: a ConfigError, with messages of its own",
    "QueryRecord.rho_i": "a log record, filled by the oracle with a rho_i it admitted",
    "loss_scale_hp.rho": "mpmath numbers: float() would drop their digits",
    "loss_scale_hp.beta": "mpmath numbers: float() would drop their digits",
    "gap_threshold_hp.rho": "mpmath numbers: float() would drop their digits",
    "gap_threshold_hp.beta": "mpmath numbers: float() would drop their digits",
    "error_scale_from_log_hp.rho": "mpmath numbers: float() would drop their digits",
    "error_scale_from_log_hp.beta": "mpmath numbers: float() would drop their digits",
}
BUDGET_NAMES = {"rho", "rho_i", "rho_each", "beta", "total_budget", "xi_value", "c_xi"}


def public_callables():
    """Qualified name -> callable: the package's exports, each module's
    __all__, and BudgetOracle's public methods."""
    found = {name: getattr(privsel, name) for name in dir(privsel) if not name.startswith("_")}
    for info in pkgutil.iter_modules(privsel.__path__):
        module = importlib.import_module(f"privsel.{info.name}")
        found.update((name, getattr(module, name)) for name in getattr(module, "__all__", ()))
    found.update((f"BudgetOracle.{name}", method) for name, method
                 in inspect.getmembers(BudgetOracle, inspect.isfunction)
                 if not name.startswith("_"))
    return {name: obj for name, obj in found.items() if callable(obj)}


def test_every_budget_parameter_is_a_site_or_kept():
    params = set()
    for name, obj in public_callables().items():
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):  # builtins without one
            continue
        params |= {f"{name}.{p}" for p in signature.parameters if p in BUDGET_NAMES}
    assert not set(SITES) & set(KEPT)
    assert params == set(SITES) | set(KEPT)


def test_tree_log_is_the_same_for_every_type_of_one_budget():
    def log(rho):
        oracle = BudgetOracle(UNIFORM, 1.0, seed=0)
        binary_tree_select(oracle, rho)
        return oracle.log_csv()
    expected = log(1.0)
    assert expected.count("\n") == 4  # the header and three rounds
    for rho in (np.float64(1.0), Fraction(1), 1):
        assert log(rho) == expected


def test_exponential_mechanism_spends_a_float():
    for rho in (1, np.float64(1.0), Fraction(1)):
        spent = exponential_mechanism(UNIFORM, rho, np.random.default_rng(0)).to_json()
        assert typed(spent["budget_spent"]) == (float, 1.0)


def test_a_bool_is_no_budget():
    oracle = BudgetOracle(UNIFORM, 1.0, seed=0)
    for call in (lambda: binary_tree_select(oracle, True),
                 lambda: oracle.noisy_query(Base(0), True),
                 lambda: exponential_mechanism(UNIFORM, True, np.random.default_rng(0)),
                 lambda: BudgetOracle(UNIFORM, True)):
        with pytest.raises(ValueError, match=r"must be a real number in \(0, .*\], got True$"):
            call()
    assert (oracle.spent, oracle.rounds_used, oracle.log) == (0.0, 0, [])


def test_each_domain_is_closed_at_its_top():
    assert typed(MechanismConstants(c_xi=MAX).c_xi) == (float, MAX)
    assert gap_threshold(1024, math.inf, 0.5) == 0.0
    assert gap_threshold(1024, 5e-324, 0.5) > 0
    assert plan_equal_budget(1.0 + RELATIVE_BUDGET_SLACK, 10, 1.0).per_query_repeats == 11
    assert len(point_checks(1000, 1.0, 0.001)) == 3
    assert recursive_gap_round_bound(1024, 1, SCALED) >= 1


def test_a_number_beyond_every_float_is_rejected():
    huge = r"^rho must be a real number in \(0, inf\], got 10{400}$"  # 1 and 400 zeros
    with pytest.raises(ValueError, match=huge):
        gap_threshold(1024, 10**400, 0.125)
    with pytest.raises(ValueError, match=r"^rho must be a real number"):
        gap_threshold(1024, Fraction(10**400), 0.125)
