"""Self-test of the benchmark: a minimal-length run of every workload.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and twice traced at ``--seconds 0`` (one
block, or one untraced/traced pair of blocks).  The test checks that every
metric BENCHMARK.json names is emitted with its unit, that outputs pass their
checks, that traced and untraced record digests agree, and that the exact
counters repeat across the two traced runs of one seed.  Runs take about two
minutes in total.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

EXACT_COUNTERS = (
    "mechanisms.rounds_per_trial",
    "mechanisms.depth_per_trial",
    "oracle.queries_per_trial",
    "oracle.rejected_frac",
    "oracle.repeats_per_query",
    "oracle.equal_rounds_per_trial",
    "queries.nodes_per_query",
    "queries.nodes_evaluated_per_query",
    "queries.memo_reuse_frac",
    "queries.index_slots_per_query",
    "queries.index_bytes_per_query.computed",
    "verify.checks_per_run",
)


def run_bench(root: str, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc, spec_metrics) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    return {name: m["value"] for name, m in result["metrics"].items()}


def record_of(workload: str, trace: int, seed: int = 0) -> dict:
    with open(os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    plain = result_of(run_bench(ROOT, workload, 0), SPEC["end_to_end"])
    assert all(value > 0 for value in plain.values())
    plain_record = record_of(workload, 0)

    counters = []
    for _ in range(2):
        traced = result_of(run_bench(ROOT, workload, 1), SPEC["per_layer"])
        record = record_of(workload, 1)
        assert record["pair_digests"]
        for pair in record["pair_digests"]:
            assert pair["traced"] == pair["untraced"]
        assert record["block0_digests"] == plain_record["block0_digests"]
        assert set(record["provenance"]) >= {"nproc", "cpu_model", "python", "numpy",
                                             "mpmath", "git_commit", "seed"}
        counters.append({name: traced[name] for name in EXACT_COUNTERS})
    assert counters[0] == counters[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), "query_model.binary_tree", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
