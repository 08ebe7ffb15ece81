"""Golden digests: the randomness contract pinned against committed values.

The README freezes the randomness contract: identical (seed, instance,
mechanism, parameters) yield byte-identical logs and outputs.  Each test here
hashes one such output with SHA-256 and compares it with a committed digest,
so any change to noise draws, query order, budget splits, float formatting or
CSV layout fails here.  A change that alters an output on purpose recomputes
the affected digest and records why in CHANGES.md.
"""

import hashlib
import json

import pytest

from privsel.cli import main
from privsel.core import MechanismConstants, generate_instance
from privsel.mechanisms import (
    binary_tree_round_bound, binary_tree_select, combined_round_bound,
    combined_select, query_all_baseline, query_all_round_bound,
    recursive_gap_select,
)
from privsel.oracle import BudgetOracle, equal_budget_simulate

SCALED = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
SCALED_DOC = {"c_xi": 1.0, "p_xi": 1, "base_threshold_log": 6}
UNIFORM = generate_instance("uniform", 256, 1000.0, 3)
LAYERED = generate_instance("layered", 1024, 1.0, 0)


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

VERIFY_QUICK_DIGEST = "4a288600c16e34cc7701a3bc1377738e89d403761361d6720283e37e32d910a0"


def oracle_log(name: str) -> str:
    instance, mechanism, _ = ORACLE_LOGS[name]
    oracle = BudgetOracle(instance, 1.0, seed=11)
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


def test_verify_quick_report(tmp_path):
    (csv,) = cli_outputs(tmp_path, ["verify", "--grid", "quick", "--fuzz-trials", "300",
                                    "--subset-draws", "20000", "--rate-trials", "3000"])
    assert sha256(csv) == VERIFY_QUICK_DIGEST
