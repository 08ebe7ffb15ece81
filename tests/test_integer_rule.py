"""One integer rule, core._integer, at every argument that must be an integer."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import privsel
from privsel.core import (
    LossInstance, MechanismConstants, error_scale, gap_threshold, generate_instance, loss_scale,
)
from privsel.oracle import EqualBudgetAdapter, plan_equal_budget
from privsel.queries import MinCompare, build_tilde_loss, format_expr
from privsel.verify import (
    check_good_subset_rate, point_checks, sensitivity_fuzz, subset_event_mc,
)

INST = LossInstance((2.0, 5.0, 1.0, 7.0))
LAYERED = generate_instance("layered", 64, 2.0, seed=1)
SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)


def typed(value):
    return type(value), value


def constants_fields(consts):
    return typed(consts.p_xi), typed(consts.base_threshold_log)


# site id: (argument, a valid value, a call of the site whose result is comparable)
SITES = {
    "MechanismConstants.p_xi": (
        "p_xi", 2, lambda v: constants_fields(MechanismConstants(p_xi=v))),
    "MechanismConstants.base_threshold_log": (
        "base_threshold_log", 6,
        lambda v: constants_fields(MechanismConstants(base_threshold_log=v))),
    "loss_scale.k": ("k", 3, lambda v: loss_scale(v, 1.0, 0.1)),
    "gap_threshold.m": ("m", 1024, lambda v: gap_threshold(v, 1.0, 0.1)),
    "error_scale.m": ("m", 4, lambda v: error_scale(v, 1.0, 0.5)),
    "generate_instance.size": (
        "size", 8, lambda v: generate_instance("layered", v, 1.0, 0).losses),
    "generate_instance.seed": (
        "seed", 0, lambda v: generate_instance("uniform", 4, 1.0, v).losses),
    "MinCompare.split": ("split", 1, lambda v: typed(MinCompare([0, 1, 2], v).split)),
    "build_tilde_loss.k": (
        "k", 2, lambda v: format_expr(build_tilde_loss([0, 1], v, 1.0, range(4)))),
    "plan_equal_budget.m_bound": ("m_bound", 10, lambda v: plan_equal_budget(0.1, v, 1.0)),
    "EqualBudgetAdapter.m_bound": (
        "m_bound", 10, lambda v: typed(EqualBudgetAdapter(INST, v, 1.0, seed=0).m_bound)),
    "point_checks.k": ("k", 1000, lambda v: point_checks(v, 1.0, 1e-3)),
    "subset_event_mc.k": ("k", 4, lambda v: subset_event_mc(v, 1, 3, 50, seed=1)),
    "subset_event_mc.i_star": ("i_star", 1, lambda v: subset_event_mc(4, v, 3, 50, seed=1)),
    "subset_event_mc.k_star": ("k_star", 3, lambda v: subset_event_mc(4, 1, v, 50, seed=1)),
    "subset_event_mc.draws": ("draws", 50, lambda v: subset_event_mc(4, 1, 3, v, seed=1)),
    "check_good_subset_rate.k": (
        "k", 6, lambda v: check_good_subset_rate(v, LAYERED, SCALED, trials=50, seed=2)),
    "check_good_subset_rate.trials": (
        "trials", 50, lambda v: check_good_subset_rate(6, LAYERED, SCALED, trials=v, seed=2)),
    "sensitivity_fuzz.trials": ("trials", 5, lambda v: sensitivity_fuzz(v, seed=3)),
}


@pytest.mark.parametrize("site", SITES)
def test_bools_and_floats_rejected_before_any_draw(site, monkeypatch):
    def no_randomness(*args, **kwargs):
        raise AssertionError("a generator or seed sequence was made")
    name, good, call = SITES[site]
    monkeypatch.setattr(np.random, "default_rng", no_randomness)
    monkeypatch.setattr(np.random, "SeedSequence", no_randomness)
    for bad in (True, False, 2.0, float(good)):
        message = rf"^{name} must be an integer >= \d+, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_act_as_ints(site):
    _, good, call = SITES[site]
    expected = call(good)
    for integer in (np.int64, np.int32):
        assert call(integer(good)) == expected


# Functions that may still test for an integer type themselves, by module and
# qualified name: the rule itself; eval_expr's per-node Base index check, whose
# TypeError is its documented contract; and the JSON config reader, which
# reads 5.0 as 5.
KEPT = {("core", "_integer"), ("queries", "eval_expr.ev"), ("experiments", "_number")}


def is_integer_type(node) -> bool:
    if isinstance(node, ast.Tuple):
        return any(map(is_integer_type, node.elts))
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("int", "Integral", "integer")


def integer_checks(tree) -> set[str]:
    """Qualified names of the functions holding an isinstance(..., <integer
    type>) or operator.index call; "" for module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == "isinstance" and len(child.args) == 2
                        and is_integer_type(child.args[1])) or (
                        isinstance(f, ast.Attribute) and f.attr == "index"
                        and isinstance(f.value, ast.Name) and f.value.id == "operator"):
                    found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_integer_checks_only_at_kept_sites():
    sites = set()
    for path in sorted(Path(privsel.__file__).parent.glob("*.py")):
        sites |= {(path.stem, name) for name in integer_checks(ast.parse(path.read_text()))}
    assert sites == KEPT
