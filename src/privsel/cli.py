"""Command-line interface.

Subcommands:

    run <config.json>             seeded Monte Carlo experiments -> summary CSV
    verify                        certification report -> CSV (claim, params,
                                  verdict, margin, note)
    gen <family> <size> <scale> <seed>   emit an instance as CSV (index,loss)
    simulate-equal-budget <config.json>  run mechanisms through the
                                  equal-budget adapter -> accounting CSV

Exit codes: 0 all checks pass, 1 any non-PASS verdict, 2 config error (a bad
config, constants file or argument, or a path that cannot be opened).  Each
output path is checked before any work and written only after all of it, so a
failed command leaves every path as it found it.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .core import DEFAULT_CONSTANTS, MechanismConstants, generate_instance
from .experiments import (
    MECHANISM_TABLE, ConfigError, ExperimentConfig, _known_fields, run_trials, summarize,
)
from .oracle import NonFiniteQueryError, equal_budget_simulate
from .verify import (
    CheckResult, Verdict, appendix_grid, check_good_subset_rate, sensitivity_fuzz,
    subset_event_mc, subset_event_probability, subset_event_probability_dp,
    subset_event_probability_enum, ENUM_MAX_SUBSETS, GRID_BETAS,
)

REPORT_CSV_HEADER = "claim,params,verdict,margin,note"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_writable(*paths: str | None) -> None:
    """Fail at once on a path that cannot be written, leaving each path as
    it found it: an existing file (a regular one, or one like /dev/stdout)
    is opened to append, which keeps its bytes, and a new one is created and
    removed; for a dangling symlink that is the link's resolved target.  So
    until _write_text no output file exists, and a command that fails at any
    step creates none.  A named pipe is only checked for write permission:
    opening it would block until a reader came, and closing it would end
    that reader's input.  Two paths that name one regular file, or one new
    file, are refused: the second write would replace the first."""
    files = {}
    for path in filter(None, paths):
        if not os.path.exists(path):
            file = os.path.realpath(path)
            open(file, "x").close()
            os.remove(file)
        else:
            st = os.stat(path)
            if not stat.S_ISFIFO(st.st_mode):
                open(path, "a").close()
            elif not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            if not stat.S_ISREG(st.st_mode):
                continue  # a pipe or a device takes each write in turn
            file = (st.st_dev, st.st_ino)
        if file in files:
            raise ConfigError(f"{files[file]} and {path} name the same file")
        files[file] = path


def _load_constants(path: str | None) -> MechanismConstants | None:
    if path is None:
        return None
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return MechanismConstants(**_known_fields(doc, MechanismConstants, "constants"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad constants file {path}: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    with open(args.config) as fh:
        text = fh.read()
    config = ExperimentConfig.from_json_text(text, _load_constants(args.constants))
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    return dataclasses.replace(config, **overrides)


def _cmd_run(args) -> int:
    config = _load_config(args)
    _check_writable(args.out, args.records)
    records = run_trials(config)
    summary = summarize(records, config.failure_threshold, config.master_seed)
    _write_text(args.out, summary.to_csv())
    if args.records:
        _write_text(args.records, "".join(json.dumps(rec.to_json()) + "\n" for rec in records))
    return 0


def _report_csv(results) -> str:
    lines = [REPORT_CSV_HEADER]
    lines.extend(f"{r.claim},{r.params},{r.verdict.value},{r.margin!r},{r.note}"
                 for r in results)
    return "\n".join(lines) + "\n"


def _grid_rows(consts: MechanismConstants, grid: str) -> list[CheckResult]:
    """The appendix grid, then the closed-form subset probability against two
    exact oracles on all small cases: the sequential-draw DP, then literal
    enumeration where it is tractable."""
    if grid == "quick":
        results = appendix_grid(consts, ks=(1000, 10**4, 10**6), betas=GRID_BETAS[::6])
    else:
        results = appendix_grid(consts)
    exact_oracles = (
        ("subset_event_dp_match", subset_event_probability_dp, math.inf),
        ("subset_event_enum_match", subset_event_probability_enum, ENUM_MAX_SUBSETS),
    )
    for claim, exact, cap in exact_oracles:
        for k in range(1, 7):
            for k_star in range(1, k + 1):
                if math.comb(1 << k, 1 << (k - k_star)) > cap:
                    continue
                for i_star in range(0, k_star):
                    closed = subset_event_probability(k, i_star, k_star)
                    value = exact(k, i_star, k_star)
                    ok = closed == value
                    results.append(CheckResult(
                        claim, f"K={k};i*={i_star};k*={k_star}",
                        Verdict.PASS if ok else Verdict.FAIL,
                        0.0 if ok else float(abs(closed - value))))
    return results


def _sampler_rows(args) -> list[CheckResult]:
    """The Monte Carlo subset check and the good-subset rate check.  Their time
    is spent in numpy's samplers, which release the GIL, and neither touches
    mpmath, whose precision is process-global: so they run on a worker thread
    beside the main thread's checks."""
    # Monte Carlo subset sampling vs the closed form
    k, i_star, k_star = 16, 2, 6
    target = float(subset_event_probability(k, i_star, k_star))
    draws = args.subset_draws
    freq = subset_event_mc(k, i_star, k_star, draws, seed=args.seed)
    se = math.sqrt(target * (1 - target) / draws)
    z = (freq - target) / se if se > 0 else 0.0
    rows = [CheckResult(
        "subset_event_mc", f"K={k};i*={i_star};k*={k_star};draws={draws}",
        Verdict.PASS if abs(z) <= 3 else Verdict.FAIL, -abs(z) + 3,
        note=f"freq={freq!r};target={target!r}")]

    # empirical good-subset rate on a layered instance, scaled constants
    # (the derived-loss scale must sit near the instance scale to be visible)
    scaled = MechanismConstants(c_xi=1.0, p_xi=1, base_threshold_log=6)
    k = 10
    inst = generate_instance("layered", 1 << k, scale=1.0, seed=0)
    empirical, bound = check_good_subset_rate(
        k, inst, scaled, rho=1.0, beta=0.1, trials=args.rate_trials, seed=args.seed)
    se = math.sqrt(max(bound * (1 - bound), 1e-12) / args.rate_trials)
    ok = empirical >= bound - 3 * se
    rows.append(CheckResult(
        "good_subset_rate", f"K={k};trials={args.rate_trials}",
        Verdict.PASS if ok else Verdict.FAIL, empirical - (bound - 3 * se),
        note=f"empirical={empirical!r};bound={bound!r}"))
    return rows


def _cmd_verify(args) -> int:
    for flag, least in (("fuzz_trials", 1), ("subset_draws", 1), ("rate_trials", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            raise ValueError(
                f"--{flag.replace('_', '-')} must be >= {least}, got {getattr(args, flag)}")
    consts = _load_constants(args.constants) or MechanismConstants()
    _check_writable(args.out)

    from concurrent.futures import ThreadPoolExecutor  # loads logging: only verify pays for it

    # The sampler checks run on one worker while this thread runs the
    # Python-bound ones, and the first failure in serial order is raised: an
    # error in the grid or the exact sweeps leaves before the worker's result
    # is read, and a worker error, raised in the finally, replaces the fuzz's.
    with ThreadPoolExecutor(max_workers=1) as pool:
        sampled = pool.submit(_sampler_rows, args)
        results = _grid_rows(consts, args.grid)
        try:
            report = sensitivity_fuzz(args.fuzz_trials, seed=args.seed)
        finally:
            results.extend(sampled.result())
    ok = report.violations == 0
    results.append(CheckResult(
        "sensitivity_fuzz", f"trials={args.fuzz_trials}",
        Verdict.PASS if ok else Verdict.FAIL, 1.0 - report.max_ratio,
        note=f"max_ratio={report.max_ratio!r}"))

    _write_text(args.out, _report_csv(results))
    n_pass = sum(r.verdict is Verdict.PASS for r in results)
    n_fail = sum(r.verdict is Verdict.FAIL for r in results)
    n_inc = len(results) - n_pass - n_fail
    print(f"verify: {n_pass} PASS, {n_fail} FAIL, {n_inc} INCONCLUSIVE "
          f"({len(results)} checks)", file=sys.stderr)
    return 0 if n_pass == len(results) else 1


def _cmd_gen(args) -> int:
    _check_writable(args.out)
    inst = generate_instance(args.family, args.size, args.scale, args.seed)
    lines = ["index,loss"]
    lines.extend(f"{i},{x!r}" for i, x in enumerate(inst.as_array().tolist()))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate_equal_budget(args) -> int:
    config = _load_config(args)
    if config.fresh_instance_per_trial:
        raise ConfigError("simulate-equal-budget runs every trial on one instance: "
                          "fresh_instance_per_trial must be false")
    for spec in config.mechanisms:
        if MECHANISM_TABLE[spec.name][1] is None:  # no round bound: not a query-model mechanism
            raise ConfigError(f"mechanism {spec.name!r} does not run in the query model")
    _check_writable(args.out)
    instance = generate_instance(config.instance.family, config.instance.size,
                                 config.instance.scale, config.instance_seed)
    best = instance.min_loss()
    n = len(instance)
    lines = ["mechanism,trials,m_bound,equal_rounds_budget,mean_error,"
             "mean_equal_rounds_used,max_equal_rounds_used,mean_repeats,"
             "mean_topup_variance,min_topup_variance"]
    for mi, spec in enumerate(config.mechanisms):
        run, round_bound = MECHANISM_TABLE[spec.name]
        consts = spec.constants or DEFAULT_CONSTANTS
        m_bound = round_bound(n, config.beta, consts)
        mech = lambda o: run(o, config.rho, config.beta, consts, None)
        errors, rounds, runs = [], [], []
        for trial in range(config.trials):
            seed = np.random.SeedSequence([config.master_seed, trial, 7000 + mi])
            result, adapter = equal_budget_simulate(
                instance, mech, m_bound, config.rho, seed, record_log=False)
            errors.append(instance.as_array().item(result.winner) - best)
            rounds.append(adapter.inner_rounds_used)
            runs.extend(adapter.plan_runs)
        # np.mean sums pairwise: it needs all trials' values in query order
        counts = [count for _, count in runs]
        repeats = np.repeat(np.array([p.per_query_repeats for p, _ in runs], int), counts)
        topups = np.repeat(np.array([p.topup_variance for p, _ in runs], float), counts)
        plan = ((np.mean(repeats), np.mean(topups), np.min(topups)) if repeats.size
                else (math.nan,) * 3)  # no trial answered a query: no plan to average
        lines.append(
            f"{spec.name},{config.trials},{m_bound},{2 * m_bound},"
            f"{float(np.mean(errors))!r},{float(np.mean(rounds))!r},{int(np.max(rounds))},"
            + ",".join(repr(float(x)) for x in plan))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The privsel argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="privsel",
        description="Private selection with budgeted Gaussian queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_config = argparse.ArgumentParser(add_help=False)
    p_config.add_argument("config")
    p_config.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_config.add_argument("--trials", type=int, default=None, help="override trials")
    p_config.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_config.add_argument("--constants", default=None,
                          help="JSON file of default mechanism constants")

    p_run = sub.add_parser("run", parents=[p_config], help="run a Monte Carlo experiment config")
    p_run.add_argument("--records", default=None, help="per-trial JSONL path")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="emit the certification report")
    p_ver.add_argument("--grid", choices=("full", "quick"), default="full")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fuzz-trials", type=int, default=10**4)
    p_ver.add_argument("--subset-draws", type=int, default=10**6)
    p_ver.add_argument("--rate-trials", type=int, default=10**5)
    p_ver.add_argument("--out", default=None, help="report CSV path (default stdout)")
    p_ver.add_argument("--constants", default=None,
                       help="JSON constants file; the grid reads only c_xi and p_xi "
                            "and checks K >= 1000 whatever base_threshold_log is")
    p_ver.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="emit a generated instance as CSV")
    p_gen.add_argument("family")
    p_gen.add_argument("size", type=int)
    p_gen.add_argument("scale", type=float)
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_eq = sub.add_parser("simulate-equal-budget", parents=[p_config],
                          help="run mechanisms through the equal-budget adapter")
    p_eq.set_defaults(func=_cmd_simulate_equal_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a path that cannot be opened is a config error
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteQueryError as exc:  # losses are finite, so the query read a derived one
        print(f"config error: the mechanism constants make a derived loss non-finite ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
