"""Behaviour corpus: every mechanism's observable output over sizes at every cutoff.

The golden digests pin a few fixed instances.  This corpus pins each
mechanism on instances whose sizes sit around every tournament cutoff and
block alignment (1-5, 31-33, 63-65, 127-129, 2**j +- 1 up to 513, and
1025, where a derived level spans several derive blocks; 1023 is left out,
as its recursion alone would cost a sixth of the corpus), with losses drawn from
{-0.0, 0.0, 1, 2, 3.5}, so ties and signed zeros occur throughout.

Each query-model mechanism runs on both oracle classes, twice on one shared
instance (so the rent rule builds its block table) and once on a fresh one.
A row hashes, for every run, the SelectionResult, the spend, the query log
and the final state of the oracle's and the mechanism's generators; there is
one row per (mechanism, oracle class), so a change names the row it moved.
``queries._SMALL``, ``oracle._WINDOW_MIN_MEMBERS`` and
``queries._SEGMENT_BLOCK`` are speed settings only: every variant below must
give the default rows.  The exponential mechanism's row hashes its winner
and final generator state over the same instances.

The corpus sees only what a caller can observe; a change that moves only the
sign of a zero the noise then absorbs shows in the tree cross-checks of
test_queries, not here.
"""

import hashlib

import numpy as np
import pytest

from privsel import oracle as oracle_module
from privsel import queries
from privsel.core import LossInstance, MechanismConstants
from privsel.mechanisms import (
    binary_tree_round_bound, binary_tree_select, combined_round_bound, combined_select,
    exponential_mechanism, query_all_baseline, query_all_round_bound,
    recursive_gap_round_bound, recursive_gap_select,
)
from privsel.oracle import BudgetOracle, EqualBudgetAdapter

SIZES = (1, 2, 3, 4, 5, 7, 9, 15, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
         255, 257, 511, 513, 1025)
VALUES = np.array([-0.0, 0.0, 1.0, 2.0, 3.5])
LOSSES = {n: np.random.default_rng(n).choice(VALUES, n).tolist() for n in SIZES}
# Base case at K <= 8: sizes above 256 recurse through one or two derived
# levels, and the K = 8 plateau's repeats, which run the same code, are cut.
CONSTS = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=8)
BETA = 0.1

# name -> (mechanism(oracle, rng), round bound(n) for the adapter)
MECHANISMS = {
    "binary_tree": (lambda o, rng: binary_tree_select(o, 1.0), binary_tree_round_bound),
    "query_all": (lambda o, rng: query_all_baseline(o, 1.0), query_all_round_bound),
    "recursive_gap": (lambda o, rng: recursive_gap_select(o, 1.0, BETA, CONSTS, rng),
                      lambda n: recursive_gap_round_bound(n, BETA, CONSTS)),
    "combined": (lambda o, rng: combined_select(o, 1.0, CONSTS, rng),
                 lambda n: combined_round_bound(n, CONSTS)),
}

# One round above each bound makes every adapter query take two or more
# equal-budget rounds plus a top-up draw.
ORACLES = {
    "BudgetOracle": lambda inst, bound, seed: BudgetOracle(inst, 1.0, seed),
    "EqualBudgetAdapter": lambda inst, bound, seed: EqualBudgetAdapter(inst, bound + 1, 1.0, seed),
}

SETTINGS = {
    "default": (),
    "small_2": ((queries, "_SMALL", 2),),
    "small_4096": ((queries, "_SMALL", 4096),),
    "window_2": ((oracle_module, "_WINDOW_MIN_MEMBERS", 2),),
    "window_off": ((oracle_module, "_WINDOW_MIN_MEMBERS", 1 << 62),),
    "segment_block_64": ((queries, "_SEGMENT_BLOCK", 64),),
}

# "mechanism/oracle class" -> SHA-256 of the row
ROWS = {
    "binary_tree/BudgetOracle":
        "bca6c7425418c1560decde28c9655717db6d0cf788124943534e9c62ac47d80a",
    "binary_tree/EqualBudgetAdapter":
        "c964194ff0dfa4d6ebc2dab2caea1b0bb53f63a7dfbeb93ecb62b7614bd6c566",
    "query_all/BudgetOracle":
        "4c0229a69893aa7809ed47dff0f1940794522bf958e89d8b3f8d0e1c272ce233",
    "query_all/EqualBudgetAdapter":
        "19dc36987d7e2de85641aba7b1aa42411af62d627e8c0dfc3cacf3f91a604f84",
    "recursive_gap/BudgetOracle":
        "ac3c29085a8984fc05c467d573e3ad685409845af7e92a6f9aeccf6b8ed5d6ee",
    "recursive_gap/EqualBudgetAdapter":
        "e453e8b69286f095f77faf0e0ecd55eade61aa411017db11bbc7a0b4e44aa1e0",
    "combined/BudgetOracle":
        "83f33fc6cb3a22bfd3abafde00ab1b490faeab95e22a145ddc217005b054c7fd",
    "combined/EqualBudgetAdapter":
        "a73786dfd5c524f7e6a740f68757886e70138cf118600a7d398bddba6f7c95e7",
}
EXPONENTIAL = "fd85f408df0089250b07d3867a05c91d0c911a893e4fe883e21a8ea636e09f74"


def _row(mechanism, bound, make_oracle) -> str:
    h = hashlib.sha256()
    for n in SIZES:
        shared = LossInstance(LOSSES[n])
        for run, instance in enumerate((shared, shared, LossInstance(LOSSES[n]))):
            oracle = make_oracle(instance, bound(n), np.random.SeedSequence([n, run]))
            rng = oracle.spawn_rng()
            try:
                result = mechanism(oracle, rng)
            except ValueError as exc:  # combined_select on one candidate
                h.update(repr(exc).encode())
                continue
            h.update(repr((result, oracle.spent, oracle._rng.bit_generator.state,
                           rng.bit_generator.state)).encode())
            h.update(oracle.log_csv().encode())
    return h.hexdigest()


@pytest.mark.parametrize("setting", SETTINGS)
def test_query_model_rows(setting, monkeypatch):
    for module, name, value in SETTINGS[setting]:
        monkeypatch.setattr(module, name, value)
    rows = {f"{name}/{cls}": _row(mechanism, bound, make_oracle)
            for name, (mechanism, bound) in MECHANISMS.items()
            for cls, make_oracle in ORACLES.items()}
    assert rows == ROWS


def test_exponential_row():
    h = hashlib.sha256()
    for n in SIZES:
        instance = LossInstance(LOSSES[n])
        rng = np.random.default_rng(n)
        for rho in (0.01, 1.0, 100.0):
            for _ in range(3):
                winner = exponential_mechanism(instance, rho, rng).winner
                h.update(repr((winner, rng.bit_generator.state)).encode())
    assert h.hexdigest() == EXPONENTIAL
