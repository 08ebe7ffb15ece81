"""The benchmark's workloads.

Each workload builds its inputs from the ``--seed`` argument (the program only
ever sees the generated config and instance), runs one block of user-facing
work at a time through privsel's own entry points, and checks every output:

* ``run_trials`` (``privsel run``) for the query-model and recursive workloads;
* ``privsel simulate-equal-budget`` for ``equal_budget``;
* ``privsel verify --grid full`` for ``certify``.

A block's records are canonical text lines, hashed per mechanism with SHA-256
(winner, error, rounds_used, budget_spent, recursion_depth).  Block 0 is the
fixed prefix whose digest is compared with ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

RHO = 1.0
BETA = 0.1
BUDGET_SLACK = 1e-9
# Scaled constants: the defaults make the recursion vacuous at feasible sizes.
SCALED = {"c_xi": 1.0, "p_xi": 1, "base_threshold_log": 6}
# Block b of seed s runs master seed s * SEED_STRIDE + b; the warm-up uses the
# last slot, which no timed block reaches.
SEED_STRIDE = 1_000_000


class Block:
    """Outcome of one block: records per digest key, counts, and problems."""

    def __init__(self, ops: int):
        self.ops = ops
        self.lines: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, key: str, line: str) -> None:
        self.lines.setdefault(key, []).append(line)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def trial_line(winner, error, rounds_used, budget_spent, recursion_depth) -> str:
    return f"{winner},{error!r},{rounds_used},{budget_spent!r},{recursion_depth}"


def check_trial(block: Block, mechanism: str, losses, best: float, bound: int,
                winner: int, error: float, rounds_used: int, budget_spent: float,
                recursion_depth: int) -> None:
    """The per-trial invariants; a broken one fails the trial."""
    n = len(losses)
    block.attempted += 1
    if not 0 <= winner < n:
        block.fail(1, f"{mechanism}: winner {winner} out of range [0, {n})")
    elif error != losses[winner] - best or error < 0:
        block.fail(1, f"{mechanism}: error {error!r} != loss[winner] - min")
    elif not 0 < budget_spent <= RHO * (1.0 + BUDGET_SLACK):
        block.fail(1, f"{mechanism}: budget_spent {budget_spent!r} outside (0, rho]")
    elif not 0 <= rounds_used <= bound:
        block.fail(1, f"{mechanism}: rounds_used {rounds_used} above bound {bound}")
    elif recursion_depth < 0:
        block.fail(1, f"{mechanism}: negative recursion depth")
    else:
        block.add(mechanism, trial_line(winner, error, rounds_used, budget_spent,
                                        recursion_depth))


def _round_bound(pkg, mechanism: str, n: int, consts) -> int:
    m = pkg.mechanisms
    if mechanism == "binary_tree":
        return m.binary_tree_round_bound(n)
    if mechanism == "query_all":
        return m.query_all_round_bound(n)
    if mechanism == "recursive_gap":
        return m.recursive_gap_round_bound(n, BETA, consts)
    if mechanism == "combined":
        return m.combined_round_bound(n, consts)
    return 0  # exponential issues no query


class TrialsWorkload:
    """Mechanism trials through ``run_trials``, one config per block."""

    root_span = "experiments.run_trials"

    def __init__(self, name, why, family, size, scale, mechanisms, constants,
                 trials_per_block):
        self.name = name
        self.why = why
        self.family = family
        self.size = size
        self.scale = scale
        self.mechanisms = mechanisms
        self.constants = constants
        self.trials_per_block = trials_per_block

    def config_doc(self, block: int, trials: int) -> dict:
        mech = {"constants": self.constants} if self.constants else {}
        return {
            "instance": {"family": self.family, "size": self.size,
                         "scale": self.scale, "seed": self.seed},
            "mechanisms": [{"name": m} | mech for m in self.mechanisms],
            "rho": RHO, "beta": BETA, "trials": trials,
            "master_seed": self.seed * SEED_STRIDE + block,
        }

    def setup(self, pkg, seed: int, out_dir: str) -> None:
        self.pkg = pkg
        self.seed = seed
        warm = pkg.experiments.ExperimentConfig.from_json(
            self.config_doc(SEED_STRIDE - 1, 1))
        instance = pkg.core.generate_instance(self.family, self.size, self.scale, seed)
        self.losses = instance.losses
        self.best = instance.min_loss()
        consts = warm.mechanisms[0].constants or pkg.core.DEFAULT_CONSTANTS
        self.bounds = {m: _round_bound(pkg, m, self.size, consts) for m in self.mechanisms}
        pkg.experiments.run_trials(warm)

    def run(self, block: int):
        config = self.pkg.experiments.ExperimentConfig.from_json(
            self.config_doc(block, self.trials_per_block))
        return self.pkg.experiments.run_trials(config)

    def check(self, block_index: int, records) -> Block:
        block = Block(self.trials_per_block)
        expected = self.trials_per_block * len(self.mechanisms)
        if len(records) != expected:
            block.attempted += expected
            block.fail(expected, f"{len(records)} records, expected {expected}")
            return block
        for rec in records:
            check_trial(block, rec.mechanism, self.losses, self.best,
                        self.bounds[rec.mechanism], rec.winner, rec.error,
                        rec.rounds_used, rec.budget_spent, rec.recursion_depth)
        return block

    def expected_attempts(self) -> int:
        return self.trials_per_block * len(self.mechanisms)

    def close(self) -> None:
        pass


class EqualBudgetWorkload:
    """``privsel simulate-equal-budget`` on one config file, ``--seed`` per block.

    The CLI prints only aggregates, so each block also collects the per-trial
    (result, adapter) pairs by wrapping ``equal_budget_simulate`` where the
    CLI binds it; the wrapper calls through unchanged.
    """

    name = "equal_budget"
    root_span = "cli.main"
    why = ("uniform n=2^10 through the equal-budget adapter: every query takes the "
           "scalar admission path, so per-query oracle overhead dominates")
    mechanisms = ("binary_tree", "query_all", "combined")
    size = 1 << 10
    trials_per_block = 16

    def setup(self, pkg, seed: int, out_dir: str) -> None:
        self.pkg = pkg
        self.seed = seed
        self.config_path = os.path.join(out_dir, f"equal_budget-{os.getpid()}.json")
        doc = {
            "instance": {"family": "uniform", "size": self.size, "scale": 1000.0,
                         "seed": seed},
            "mechanisms": [{"name": m} for m in self.mechanisms],
            "rho": RHO, "beta": BETA, "trials": self.trials_per_block, "master_seed": 0,
        }
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)
        original = pkg.cli.equal_budget_simulate

        def capture(instance, mechanism, m_bound, rho, seed=None, **kwargs):
            result, adapter = original(instance, mechanism, m_bound, rho, seed, **kwargs)
            self.captured.append((instance, m_bound, result, adapter.inner_rounds_used))
            return result, adapter
        self._original = original
        pkg.cli.equal_budget_simulate = capture
        self._cli(SEED_STRIDE - 1, trials=1)

    def _cli(self, master_seed: int, trials: int | None = None):
        argv = ["simulate-equal-budget", self.config_path, "--seed", str(master_seed)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        self.captured = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue(), self.captured

    def run(self, block: int):
        return self._cli(self.seed * SEED_STRIDE + block)

    def check(self, block_index: int, output) -> Block:
        code, csv, captured = output
        block = Block(self.trials_per_block)
        expected = self.expected_attempts()
        if code != 0 or len(captured) != expected:
            block.attempted += expected
            block.fail(expected, f"exit code {code}, {len(captured)} trials of {expected}")
            return block
        for i, (instance, m_bound, result, equal_rounds) in enumerate(captured):
            mechanism = self.mechanisms[i // self.trials_per_block]
            before = block.failed
            check_trial(block, mechanism, instance.losses, instance.min_loss(), m_bound,
                        result.winner, instance.losses[result.winner] - instance.min_loss(),
                        result.rounds_used, result.budget_spent, result.recursion_depth)
            if block.failed == before and equal_rounds > 2 * m_bound:
                block.fail(1, f"{mechanism}: {equal_rounds} equal-budget rounds "
                              f"exceed 2 * {m_bound}")
        block.add("csv", csv)
        return block

    def expected_attempts(self) -> int:
        return self.trials_per_block * len(self.mechanisms)

    def close(self) -> None:
        self.pkg.cli.equal_budget_simulate = self._original
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.config_path)


class CertifyWorkload:
    """``privsel verify --grid full`` as a user runs it.

    The command takes no seeded input (its own ``--seed`` stays at the default
    a user gets), so its report digest is the same for every workload seed.
    Its statistical checks are 3-sigma tests; a seed sweep would make some
    seeds fail by chance, which is not a fault of the program.
    """

    name = "certify"
    root_span = "cli.main"
    why = ("privsel verify --grid full (1780 checks): the only workload for the verify "
           "layer, mpmath grid plus fuzzing of many tiny trees")
    trials_per_block = 1
    mechanisms = ()

    def setup(self, pkg, seed: int, out_dir: str) -> None:
        self.pkg = pkg
        self.seed = seed

    def run(self, block: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(["verify", "--grid", "full"])
        return code, out.getvalue()

    def check(self, block_index: int, output) -> Block:
        code, csv = output
        block = Block(1)
        rows = csv.splitlines()[1:]
        bad = [r for r in rows if r.split(",")[2] != "PASS"]
        block.attempted += max(len(rows), 1)
        if not rows:
            block.fail(1, f"verify printed no checks (exit code {code})")
        elif bad:
            block.fail(len(bad), f"{len(bad)} checks not PASS, first: {bad[0]}")
        elif code != 0:
            block.fail(1, f"verify exit code {code} with every check PASS")
        block.add("report", csv)
        return block

    def expected_attempts(self) -> int:
        return 1

    def close(self) -> None:
        pass


def _query_model(mechanism: str, trials_per_block: int, why: str) -> TrialsWorkload:
    return TrialsWorkload(
        f"query_model.{mechanism}", why, "uniform", 1 << 16, 1000.0,
        (mechanism,), None, trials_per_block)


def all_workloads() -> dict:
    """Workload name -> a fresh workload object."""
    items = [
        _query_model("binary_tree", 512,
                     "uniform n=2^16: 16 comparison queries a trial, each an O(n) slice "
                     "minimum on eval_expr's fast path; the tree walkers are skipped"),
        _query_model("query_all", 40,
                     "uniform n=2^16: one 65536-query batch per trial, dominated by the "
                     "oracle's per-element type check and gather"),
        _query_model("exponential", 256,
                     "uniform n=2^16: outside the query model, touches neither queries "
                     "nor oracle; the control that must not move"),
        TrialsWorkload(
            "recursive",
            "layered n=2^12, scaled constants: the recursion stalls for ~15 levels and "
            "the bd/ev walkers over nested derived losses dominate",
            "layered", 1 << 12, 1.0, ("recursive_gap", "combined"), SCALED, 1),
        EqualBudgetWorkload(),
        CertifyWorkload(),
    ]
    return {w.name: w for w in items}
