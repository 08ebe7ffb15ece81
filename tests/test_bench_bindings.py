"""The names the bench binds in privsel, checked without running the bench.

``bench/instrument.py`` and ``bench/workloads.py`` wrap or call privsel
functions by module attribute, so a refactor that drops or moves one of those
names breaks a traced bench run while every other test passes.  This module
loads ``bench/instrument.py`` from its path (it imports only numpy and the stdlib)
and checks each such name where the bench looks it up.
"""

import inspect
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

from privsel import cli, core, experiments, mechanisms, oracle, queries, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
PKG = SimpleNamespace(core=core, queries=queries, oracle=oracle, mechanisms=mechanisms,
                      experiments=experiments, verify=verify, cli=cli)

# module -> names the bench's instrument and workloads wrap or call there
BOUND = {
    "cli": ("main", "equal_budget_simulate", "generate_instance"),
    "experiments": ("run_trials", "ExperimentConfig", "generate_instance"),
    "oracle": ("eval_expr", "sensitivity_bound"),
    "verify": ("eval_expr", "sensitivity_bound", "build_bintree_query", "build_tilde_loss",
               "LossInstance"),
    "mechanisms": ("binary_tree_round_bound", "query_all_round_bound",
                   "recursive_gap_round_bound", "combined_round_bound"),
    "queries": ("Base",),
    "core": ("generate_instance", "DEFAULT_CONSTANTS"),
}


@pytest.fixture(scope="module")
def instrument():
    # executed from its source, so no bytecode cache is written under bench/
    path = BENCH / "instrument.py"
    module = ModuleType("bench_instrument")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_verify_phases_are_bound_in_cli(instrument):
    assert [name for name in instrument.VERIFY_PHASES if not hasattr(cli, name)] == []


@pytest.mark.parametrize("module", sorted(BOUND))
def test_bench_names_exist(module):
    missing = [name for name in BOUND[module] if not hasattr(getattr(PKG, module), name)]
    assert missing == []


def test_eval_expr_takes_three_positional_arguments():
    # the counting wrapper calls fn(expr, instance, memo)
    inspect.signature(oracle.eval_expr).bind(queries.Base(0), None, None)


@pytest.mark.parametrize("install", ["install_tracing", "install_counting"])
def test_instrumentation_installs_and_undoes(instrument, install):
    # each install looks up every name it wraps; undo restores the originals
    before = {(m, name): getattr(getattr(PKG, m), name) for m in BOUND for name in BOUND[m]}
    patches = instrument.Patches()
    probe = (instrument.Tracer() if install == "install_tracing"
             else instrument.Counts(queries.Base))
    try:
        getattr(instrument, install)(patches, PKG, probe)
    finally:
        patches.undo()
    after = {(m, name): getattr(getattr(PKG, m), name) for m in BOUND for name in BOUND[m]}
    assert all(after[key] is value for key, value in before.items())
