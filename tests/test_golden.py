"""Golden digests: the randomness contract pinned against committed values.

The README freezes the randomness contract: identical (seed, instance,
mechanism, parameters) yield byte-identical logs and outputs.  Each test here
hashes one such output with SHA-256 and compares it with a committed digest,
so any change to noise draws, query order, budget splits, float formatting or
CSV layout fails here.  A change that alters an output on purpose recomputes
the affected digest and records why in CHANGES.md.  The last test pins where
the library makes random streams, so a new stream cannot slip in unnoticed.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import privsel
from privsel.cli import main
from privsel.core import LossInstance, MechanismConstants, generate_instance
from privsel.mechanisms import (
    binary_tree_round_bound, binary_tree_select, combined_round_bound,
    combined_select, query_all_baseline, query_all_round_bound,
    recursive_gap_select,
)
from privsel.oracle import BudgetOracle, equal_budget_simulate
from privsel.verify import appendix_grid
from zero_noise import ExactOracle

SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
SCALED_DOC = {"c_xi": 1.0, "p_xi": 1, "base_threshold_log": 6}
UNIFORM = generate_instance("uniform", 256, 1000.0, 3)
LAYERED = generate_instance("layered", 1024, 1.0, 0)
CONSTANT = generate_instance("constant", 1024, 1.0, 0)
GAPPED = generate_instance("gapped", 1024, 50.0, 0)
SIGNED_ZERO = LossInstance([-0.0, 0.0, 0.5, 2.0, 0.0, 1.0, 3.0, 4.0])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# name -> (instance, mechanism, digest of BudgetOracle.log_csv())
ORACLE_LOGS = {
    "binary_tree": (
        UNIFORM, lambda o: binary_tree_select(o, 1.0),
        "1628eeb0bf543b16aa08ecb0e162db93085518cbc9eb69b820a0089aeea9d1bc"),
    "query_all": (
        UNIFORM, lambda o: query_all_baseline(o, 1.0),
        "d7064f2e8cc36978354fe568e6f5592634de1d8838d033e03c133d6983fbd94c"),
    "combined": (
        LAYERED, lambda o: combined_select(o, 1.0, SCALED),
        "a670e21a9e84b85746ff5f23f238068136e3f2606e21117841a5195142d3095b"),
    "recursive_gap": (
        LAYERED, lambda o: recursive_gap_select(o, 1.0, 0.1),
        "982ebe18f958fd37d534b1f0fc69ae734c65202db05fe9ce6b3aea8e3ad6c990"),
    "recursive_gap_scaled": (
        LAYERED, lambda o: recursive_gap_select(o, 1.0, 0.1, SCALED),
        "56e16568b3c30400242cbc51591922689c0edf80a9912a6dcf6ba2b63d874ce3"),
}

# Edge cases of the derived-loss recursion (scaled constants, n = 1024, about
# 15 derived levels each): constant losses tie everywhere, so gaps are 0 and
# derived values -0.0; gapped has one isolated optimum.  Noiseless logs, run
# on the zero-noise fake ExactOracle, print exact values, so they pin the tie
# rules as well as the query order.  Their zero answers are +0.0 but for
# signed_zero's: its 8 candidates go straight to the base-case tournament,
# whose first round compares a left half holding -0.0 ahead of +0.0 with a
# right half whose minimum is +0.0.  It logs 0.5 * (-0.0 - 0.0) = -0.0, which
# only a noise of -0.0 keeps.  The noisy layered runs are ORACLE_LOGS'
# combined and recursive_gap_scaled.
# name -> (instance, mechanism, exact, digest of BudgetOracle.log_csv())
RECURSIVE = lambda o: recursive_gap_select(o, 1.0, 0.1, SCALED)  # noqa: E731
COMBINED = lambda o: combined_select(o, 1.0, SCALED)  # noqa: E731
RECURSION_LOGS = {
    "recursive_gap/layered/noiseless": (
        LAYERED, RECURSIVE, True,
        "1fce0a1ba76ce19ec6052a5ec3e0a70ac3c329ab48f0be7d970952d6d5af881e"),
    "recursive_gap/constant/noiseless": (
        CONSTANT, RECURSIVE, True,
        "9dd1f56775e62cc30dbeee479dfb8020d714bcc66de680658d91acd11dacbb85"),
    "recursive_gap/constant/noisy": (
        CONSTANT, RECURSIVE, False,
        "d9a276e5faa0d7fa86bde90a19797e0de90a622bc4d990534cde5275b2251dc7"),
    "recursive_gap/gapped/noiseless": (
        GAPPED, RECURSIVE, True,
        "4a5cd194fd5c07f5d3a8b17cef67553fc4026b5d66792bb4845d08367691f2e5"),
    "recursive_gap/gapped/noisy": (
        GAPPED, RECURSIVE, False,
        "217d898daecf3e06dcec23f48894ee91c40da11fdc39116a6919ca2c062f9fd2"),
    "recursive_gap/signed_zero/noiseless": (
        SIGNED_ZERO, RECURSIVE, True,
        "4f7fa9e38940ff71a2522353940afccc70c98cf51bb8c389d536e441ea5d1762"),
    "combined/layered/noiseless": (
        LAYERED, COMBINED, True,
        "af421b1519f1e66faf712c21cef2217521f010ee586eacc2413907d0c4a6aa55"),
    "combined/constant/noiseless": (
        CONSTANT, COMBINED, True,
        "73ad6c85442f5b4e4f5e0f9a8f5762fd1f38929744de581c794e2b5b380a431d"),
    "combined/constant/noisy": (
        CONSTANT, COMBINED, False,
        "6c7e333a8cbb681ff59bb62c65d4c64f1e8140208fa4320feeb3f8fadf365965"),
    "combined/gapped/noiseless": (
        GAPPED, COMBINED, True,
        "871448c49b4076bc83e29d6b0c06174a93ae6417fdb356ef75f72ae90f0da813"),
    "combined/gapped/noisy": (
        GAPPED, COMBINED, False,
        "f318caa46df99758ab48f87f613587e4965d03499fef79ce145518a20cce5235"),
}

# name -> (mechanism, declared round bound, digest of the adapter's query log).
# One round above each mechanism's bound makes every query take two or more
# equal-budget rounds plus a top-up draw; at the exact bound, binary_tree and
# query_all would draw exactly as the plain oracle does.
ADAPTER_LOGS = {
    "binary_tree": (
        lambda o: binary_tree_select(o, 1.0), binary_tree_round_bound(256) + 1,
        "fd849ca6f0223fcf54405311ba8c93238093dd7332edbf93ce701d6d7b86dca5"),
    "query_all": (
        lambda o: query_all_baseline(o, 1.0), query_all_round_bound(256) + 1,
        "f9e3cb0f3b88db9a245bf632df7e2d9b15eae77cf95564d698a3ed0e4d314204"),
    "combined": (
        lambda o: combined_select(o, 1.0, SCALED), combined_round_bound(256, SCALED) + 1,
        "6b15ea2e4f7dd9e6bd30a6b43fd345f6928eea9a3467343449c8198350ca0186"),
}

RUN_CONFIG = {
    "instance": {"family": "uniform", "size": 256, "scale": 1000.0, "seed": 5},
    "mechanisms": [{"name": "binary_tree"},
                   {"name": "recursive_gap", "constants": SCALED_DOC},
                   {"name": "combined"},
                   {"name": "exponential"},
                   {"name": "query_all"}],
    "rho": 1.0, "beta": 0.1, "trials": 6, "master_seed": 3,
}
RUN_SUMMARY_DIGEST = "61a38350763e208e31fbec0f5d4e29202184ec2967b4e4ec5199c3117a49da65"
RUN_RECORDS_DIGEST = "44a33c07d4890dfd8cd36f87a0028f2bc7db8d4866193d405579e0bcf4b26cd7"

SIMULATE_CONFIG = {
    "instance": {"family": "uniform", "size": 256, "scale": 1000.0, "seed": 5},
    "mechanisms": [{"name": "binary_tree"},
                   {"name": "recursive_gap", "constants": SCALED_DOC},
                   {"name": "combined"},
                   {"name": "query_all"}],
    "rho": 1.0, "beta": 0.1, "trials": 4, "master_seed": 3,
}
SIMULATE_DIGEST = "d432bebc035a9bec62ab6dd2af2e29cc3635d4e3707740bb9172639297b37141"

# privsel verify reports: --grid quick with small counts, and every CLI
# default (--grid full, 10**4 fuzz trials), the report the bench's certify
# workload digests.
VERIFY_REPORTS = {
    "quick": (["--grid", "quick", "--fuzz-trials", "300", "--subset-draws", "20000",
               "--rate-trials", "3000"],
              "4a288600c16e34cc7701a3bc1377738e89d403761361d6720283e37e32d910a0"),
    "full": ([], "a6674ac37aea63e80461dff7677923bc9b2b2552c3ce4322c6bb864c1549b7f6"),
}

# The full default grid (6 K x 31 beta x 3 rho points, three checks each) as
# report CSV rows: pins every verdict, margin and note the full report prints.
APPENDIX_GRID_DIGEST = "476e1b0ec587f9930f3e047a340ca3ebb092735a61b74313c977a45f64b35dc9"


def oracle_log(name: str) -> str:
    instance, mechanism, _ = ORACLE_LOGS[name]
    oracle = BudgetOracle(instance, 1.0, seed=11)
    mechanism(oracle)
    return oracle.log_csv()


def recursion_log(name: str) -> str:
    instance, mechanism, exact, _ = RECURSION_LOGS[name]
    oracle = (ExactOracle if exact else BudgetOracle)(instance, 1.0, seed=11)
    mechanism(oracle)
    return oracle.log_csv()


def adapter_log(name: str) -> str:
    mechanism, m_bound, _ = ADAPTER_LOGS[name]
    _, adapter = equal_budget_simulate(UNIFORM, mechanism, m_bound, 1.0, seed=11)
    return BudgetOracle.log_csv(adapter)


def cli_outputs(tmp_path, argv: list[str], doc: dict | None = None,
                outputs: tuple[str, ...] = ("--out",)) -> list[str]:
    """Run the CLI with each of ``outputs`` pointed at a file; return their texts."""
    if doc is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = argv[:1] + [str(config)] + argv[1:]
    paths = [tmp_path / f"out{i}" for i in range(len(outputs))]
    for flag, path in zip(outputs, paths):
        argv = argv + [flag, str(path)]
    assert main(argv) == 0
    return [path.read_text() for path in paths]


@pytest.mark.parametrize("name", sorted(ORACLE_LOGS))
def test_oracle_log(name):
    assert sha256(oracle_log(name)) == ORACLE_LOGS[name][2]


@pytest.mark.parametrize("name", sorted(RECURSION_LOGS))
def test_recursion_log(name):
    assert sha256(recursion_log(name)) == RECURSION_LOGS[name][3]


@pytest.mark.parametrize("name", sorted(ADAPTER_LOGS))
def test_equal_budget_adapter_log(name):
    assert sha256(adapter_log(name)) == ADAPTER_LOGS[name][2]


def test_run_summary_and_records(tmp_path):
    summary, records = cli_outputs(tmp_path, ["run"], RUN_CONFIG, ("--out", "--records"))
    assert sha256(summary) == RUN_SUMMARY_DIGEST
    assert sha256(records) == RUN_RECORDS_DIGEST


def test_simulate_equal_budget_csv(tmp_path):
    (csv,) = cli_outputs(tmp_path, ["simulate-equal-budget"], SIMULATE_CONFIG)
    assert sha256(csv) == SIMULATE_DIGEST


@pytest.mark.parametrize("grid", sorted(VERIFY_REPORTS, reverse=True))
def test_verify_quick_report(tmp_path, grid):
    flags, digest = VERIFY_REPORTS[grid]
    (csv,) = cli_outputs(tmp_path, ["verify"] + flags)
    assert sha256(csv) == digest


def test_appendix_grid_full_rows():
    rows = "".join(f"{r.claim},{r.params},{r.verdict.value},{r.margin!r},{r.note}\n"
                   for r in appendix_grid())
    assert rows.count("\n") == 3 * 6 * 31 * 3
    assert sha256(rows) == APPENDIX_GRID_DIGEST


# Every call that makes a random stream (default_rng, SeedSequence, .spawn) in
# src/privsel, by module, enclosing function and callee, with the reason.
STREAM_SITES = {
    ("core", "generate_instance", "default_rng"): "a uniform instance's losses, from its seed",
    ("experiments", "_rng", "default_rng"): "a mechanism's own stream, from its seed entropy",
    ("experiments", "_derived_seed", "SeedSequence"): "a fresh instance's seed per trial",
    ("experiments", "run_trials", "SeedSequence"): "a trial's oracle seed",
    ("cli", "_cmd_simulate_equal_budget", "SeedSequence"): "a trial's adapter seed",
    ("oracle", "BudgetOracle.__init__", "SeedSequence"): "the oracle's seed, unless given one",
    ("oracle", "BudgetOracle.__init__", "default_rng"): "the oracle's noise stream",
    ("oracle", "BudgetOracle.spawn_rng", "spawn"): "a child seed for mechanism randomness",
    ("oracle", "BudgetOracle.spawn_rng", "default_rng"): "the child seed's stream",
    ("verify", "subset_event_mc", "default_rng"): "the Monte Carlo subset draws",
    ("verify", "check_good_subset_rate", "default_rng"): "the good-subset rate's draws",
    ("verify", "sensitivity_fuzz", "default_rng"): "the fuzzer's trees and perturbations",
}
STREAM_MAKERS = {"default_rng", "SeedSequence", "spawn"}


def stream_calls(module: str, tree) -> list[tuple[str, str, str]]:
    """(module, enclosing function's qualified name, callee) for each call in
    tree to a stream maker; "" for module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in STREAM_MAKERS:
                    found.append((module, ".".join(scope), name))
            visit(child, scope)

    visit(tree, [])
    return found


def test_random_streams_are_made_only_at_the_listed_sites():
    calls = []
    for path in sorted(Path(privsel.__file__).parent.glob("*.py")):
        calls += stream_calls(path.stem, ast.parse(path.read_text()))
    assert sorted(calls) == sorted(STREAM_SITES)
    assert len({(module, function) for module, function, _ in STREAM_SITES}) == 10
