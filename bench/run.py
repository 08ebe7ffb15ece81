#!/usr/bin/env python3
"""privsel benchmark: one workload per run, in one process on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with nothing instrumented:

* ``ops_per_ref_s``: user operations per reference second.  An operation is
  one trial of the workload's mechanisms (``run_trials`` /
  ``simulate-equal-budget``) or one ``privsel verify --grid full`` run.  A
  fixed numpy reference kernel runs between blocks; each block's wall seconds
  per operation are divided by the kernel's time around it, and the median
  ratio is converted back to seconds at the kernel's nominal time
  REF_KERNEL_S.  On a shared machine whose speed drifts by 10-40% within a
  minute this cuts run-to-run spread from 15-30% to about 4-8% (16% on
  ``certify``, whose few long operations the kernel tracks least well); the
  raw wall-clock figure is written to the result file as ``wall_ops_per_s``.
* ``setup_s``: median over fresh child processes of the time from process
  start to the first timed trial (imports, config validation,
  ``generate_instance`` and one untimed warm-up trial per mechanism), in
  seconds at the same reference speed.
* ``peak_rss_mb``: peak resident set of the measuring process.

``--trace 1`` gives the per-layer split.  It first counts (exactly, over
block 0) trials, queries and expression work, then runs every block twice,
untraced and traced, alternating which goes first; the two must produce equal
record digests.  Self times per layer come from the traced blocks.

Every block's outputs are checked (see workloads.py).  Block 0's digests are
compared with ``reference.json`` when it has the seed; otherwise block 0 is
run again and must repeat exactly.  The last line of stdout is one JSON
object (correct, attempted, failed, metrics); a failed check makes the exit
code 1.  Each run also writes ``bench/out/<workload>-seed<N>-trace<T>.json``
with provenance, digests and every metric, and a traced run writes its spans
next to it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from instrument import (  # noqa: E402
    LAYERS, MECHANISMS, Counts, Patches, Tracer, install_counting, install_tracing,
    percentiles,
)
from workloads import Block, all_workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The reference kernel's nominal time: about its median on the 2-core Xeon
# (Python 3.11) the benchmark was tuned on.  Throughput is reported at this
# kernel speed, so drift in machine speed between and within runs cancels.
KERNEL_ROUNDS = 40
REF_KERNEL_S = 0.008
KERNEL_REPEATS = 3

END_TO_END_UNITS = {"ops_per_ref_s": "ops/ref_s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for m in MECHANISMS:
        units[f"experiments.{m}.trial_ms.p50"] = "ms"
        units[f"experiments.{m}.trial_ms.tail"] = "ms"
        units[f"experiments.{m}.trial_ms.tail_pct"] = "%"
        units[f"experiments.{m}.trials"] = "count"
    units |= {
        "mechanisms.self_ms_per_trial": "ms",
        "oracle.self_us_per_query": "us",
        "queries.bound_us_per_query": "us",
        "queries.eval_us_per_query": "us",
        "verify.grid_s": "s",
        "verify.combinatorics_s": "s",
        "verify.rate_s": "s",
        "verify.fuzz_s": "s",
        "core.instance_build_ms": "ms",
        "trace_overhead_frac": "fraction",
    }
    units |= {f"{layer}.self_frac": "fraction" for layer in LAYERS}
    units |= {
        "trace.residual_frac": "fraction",
        "mechanisms.rounds_per_trial": "count",
        "mechanisms.depth_per_trial": "count",
        "oracle.queries_per_trial": "count",
        "oracle.rejected_frac": "fraction",
        "oracle.repeats_per_query": "count",
        "oracle.equal_rounds_per_trial": "count",
        "queries.nodes_per_query": "count",
        "queries.nodes_evaluated_per_query": "count",
        "queries.memo_reuse_frac": "fraction",
        "queries.index_slots_per_query": "count",
        "queries.index_bytes_per_query.computed": "bytes",
        "verify.checks_per_run": "count",
        "fail_frac": "fraction",
    }
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# Program, provenance, set-up.


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "privsel", "__init__.py")):
        raise SystemExit(f"bench: privsel sources not found under {SRC}")


def load_program() -> SimpleNamespace:
    """Import privsel from this checkout's ``src/``, never from elsewhere."""
    require_sources()
    sys.path.insert(0, SRC)
    import privsel
    from privsel import cli, core, experiments, mechanisms, oracle, queries, verify
    if not os.path.abspath(privsel.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported privsel from {privsel.__file__}, not {SRC}")
    return SimpleNamespace(core=core, queries=queries, oracle=oracle,
                           mechanisms=mechanisms, experiments=experiments,
                           verify=verify, cli=cli)


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "privsel")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import mpmath
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def probe_setup(args) -> list[dict]:
    """Set-up seconds of fresh processes, each timed from its spawn, with the
    reference kernel's time measured in the same process right after."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: set-up probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Blocks and checks.


class Tally:
    """Attempts, failures and problems over every block of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, block: Block) -> None:
        self.attempted += block.attempted
        self.failed += block.failed
        self.problems.extend(block.problems)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def digests(block: Block) -> dict[str, str]:
    return {key: hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
            for key, lines in sorted(block.lines.items())}


def run_block(workload, index: int, tracer: Tracer | None = None) -> tuple[Block, float]:
    """Run and check one block; returns it with the wall seconds of the run.

    With a tracer, the run (not the check) is the block's root span.
    """
    start = perf_counter()
    if tracer is not None:
        tracer.enter(workload.root_span)
    try:
        output = workload.run(index)
    except Exception:  # a raising block fails all of its trials; keep measuring
        block = Block(workload.trials_per_block)
        expected = workload.expected_attempts()
        block.attempted += expected
        block.fail(expected, f"block {index} raised:\n{traceback.format_exc()}")
        output = None
    finally:
        if tracer is not None:
            tracer.exit()
    elapsed = perf_counter() - start
    if output is None:
        return block, elapsed
    return workload.check(index, output), elapsed


def compare(tally: Tally, what: str, got: dict, want: dict, count: int) -> None:
    if got != want:
        tally.fail(count, f"{what}: digests differ: {got} vs {want}")


def check_block0(tally: Tally, workload, seed: int, block0: Block) -> str:
    """Reference digests for seeds that have them; otherwise a second run."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh).get(workload.name, {})
    want = refs.get(str(seed), refs.get("any"))
    if want is not None:
        compare(tally, "block 0 vs reference.json", digests(block0), want,
                block0.attempted)
        return "reference"
    again, _ = run_block(workload, 0)
    compare(tally, "block 0 rerun", digests(again), digests(block0), block0.attempted)
    return "rerun"


def reference_kernel() -> float:
    """Seconds for a fixed numpy computation that shares no code with privsel.

    A softmax over 2^16 floats, like the vector work of the mechanisms.  When
    the shared machine slows, this kernel slows by about a quarter, inside
    the range of the workloads' own slowdowns (a tenth to two fifths), so
    dividing by it leaves the least error on any one workload; a pure-Python
    loop slows by more than any workload and over-corrects.
    """
    start = perf_counter()
    x = np.linspace(0.0, 1.0, 1 << 16)
    for scale in range(1, KERNEL_ROUNDS + 1):
        weights = np.exp(-scale * x)
        weights /= weights.sum()
    return perf_counter() - start


def kernel_samples() -> list[float]:
    return [reference_kernel() for _ in range(KERNEL_REPEATS)]


def untraced_run(workload, seconds: float, tally: Tally):
    """Timed blocks until ``seconds`` have passed (at least one).

    The reference kernel runs a few times between blocks; each block's seconds
    per op are divided by the median kernel time of the runs on either side
    of it.  Returns the wall ms per op, those ratios, and block 0.
    """
    ms_per_op, per_kernel = [], []
    block0 = None
    kernel_before = kernel_samples()
    kernels = [kernel_before]
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        block, elapsed = run_block(workload, index)
        kernel_after = kernel_samples()
        kernels.append(kernel_after)
        tally.add(block)
        if not block.failed:
            ms_per_op.append(elapsed * 1e3 / block.ops)
            per_kernel.append(elapsed / block.ops
                              / statistics.median(kernel_before + kernel_after))
        kernel_before = kernel_after
        if index == 0:
            block0 = block
        index += 1
    return ms_per_op, per_kernel, kernels, block0


def traced_run(workload, pkg, seconds: float, tally: Tally):
    """Counting pass over block 0, then untraced/traced pairs of each block."""
    counts = Counts(pkg.queries.Base)
    count_digests = None
    if workload.mechanisms:
        patches = Patches()
        install_counting(patches, pkg, counts)
        try:
            block, _ = run_block(workload, 0)
        finally:
            patches.undo()
        tally.add(block)
        count_digests = (digests(block), block.attempted)

    tracer = Tracer()
    plain_ms, traced_ms, traced_wall = [], [], 0.0
    block0 = None
    pair_digests = []
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        pair = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                patches = Patches()
                install_tracing(patches, pkg, tracer)
                try:
                    block, elapsed = run_block(workload, index, tracer)
                finally:
                    patches.undo()
                traced_wall += elapsed
            else:
                block, elapsed = run_block(workload, index)
            tally.add(block)
            if not block.failed:
                (traced_ms if traced else plain_ms).append(elapsed * 1e3 / block.ops)
            pair[traced] = block
        pair_digests.append({"block": index, "untraced": digests(pair[False]),
                             "traced": digests(pair[True])})
        compare(tally, f"block {index} traced vs untraced", pair_digests[-1]["traced"],
                pair_digests[-1]["untraced"], pair[True].attempted)
        if index == 0:
            block0 = pair[False]
        index += 1
    if count_digests is not None:
        compare(tally, "block 0 counted vs untraced", count_digests[0], digests(block0),
                count_digests[1])
    return SimpleNamespace(counts=counts, tracer=tracer, plain_ms=plain_ms,
                           traced_ms=traced_ms, traced_wall=traced_wall, block0=block0,
                           pair_digests=pair_digests)


# ---------------------------------------------------------------------------
# Metrics.


def layer_metrics(workload, run, tally) -> dict[str, float]:
    def per(num, den):
        return num / den if den else 0.0

    tracer, plain_ms, traced_ms, traced_wall = (
        run.tracer, run.plain_ms, run.traced_ms, run.traced_wall)
    metrics = {}
    for m in MECHANISMS:
        pct = percentiles(tracer.trial_ms[m])
        metrics[f"experiments.{m}.trial_ms.p50"] = pct["p50"]
        metrics[f"experiments.{m}.trial_ms.tail"] = pct["tail"]
        metrics[f"experiments.{m}.trial_ms.tail_pct"] = pct["tail_pct"]
        metrics[f"experiments.{m}.trials"] = pct["n"]
    layer_self = tracer.layer_self_s()
    blocks = tracer.calls[workload.root_span]
    metrics["mechanisms.self_ms_per_trial"] = per(layer_self["mechanisms"] * 1e3,
                                                  tracer.trials)
    metrics["oracle.self_us_per_query"] = per(layer_self["oracle"] * 1e6, tracer.queries)
    for short, span in (("bound", "queries.sensitivity_bound"),
                        ("eval", "queries.eval_expr")):
        metrics[f"queries.{short}_us_per_query"] = per(tracer.total_s[span] * 1e6,
                                                       tracer.calls[span])
    verify_runs = blocks if workload.name == "certify" else 0
    for phase in ("grid", "combinatorics", "rate", "fuzz"):
        metrics[f"verify.{phase}_s"] = per(tracer.total_s[f"verify.{phase}"], verify_runs)
    metrics["core.instance_build_ms"] = per(
        tracer.total_s["core.generate_instance"] * 1e3,
        tracer.calls["core.generate_instance"])
    metrics["trace_overhead_frac"] = (
        1.0 - statistics.median(plain_ms) / statistics.median(traced_ms)
        if plain_ms and traced_ms else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = per(layer_self[layer], traced_wall)
    metrics["trace.residual_frac"] = (1.0 - per(sum(layer_self.values()), traced_wall)
                                      if traced_wall else 0.0)
    metrics |= run.counts.metrics()
    metrics["verify.checks_per_run"] = run.block0.attempted if verify_runs else 0
    metrics["fail_frac"] = per(tally.failed, tally.attempted)
    return metrics


def write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent",
                                        "trial"],
                             "kept": len(tracer.spans), "recorded": tracer.next_id}) + "\n")
        for span in sorted(tracer.spans):
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)  # spawn time; set up, report, exit
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    workload = all_workloads()[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe is not None:
        pkg = load_program()
        workload.setup(pkg, args.seed, OUT_DIR)
        setup_s = time.time() - args.setup_probe
        workload.close()
        kernel_s = statistics.median(kernel_samples())
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0

    setup_samples = [] if args.trace else probe_setup(args)
    own_setup_start = perf_counter()
    pkg = load_program()
    workload.setup(pkg, args.seed, OUT_DIR)
    own_setup_s = perf_counter() - own_setup_start
    tally = Tally()
    record = {"provenance": provenance(args), "setup_samples_s": setup_samples,
              "own_setup_s": own_setup_s}
    try:
        if args.trace:
            run = traced_run(workload, pkg, args.seconds, tally)
            block0 = run.block0
            block0_check = check_block0(tally, workload, args.seed, block0)
            metrics = layer_metrics(workload, run, tally)
            units = PER_LAYER_UNITS
            spans_path = os.path.join(
                OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
            write_spans(spans_path, run.tracer)
            record |= {"untraced_ms_per_op": run.plain_ms,
                       "traced_ms_per_op": run.traced_ms,
                       "pair_digests": run.pair_digests,
                       "spans_file": os.path.relpath(spans_path, ROOT)}
        else:
            ms_per_op, per_kernel, kernels, block0 = untraced_run(
                workload, args.seconds, tally)
            block0_check = check_block0(tally, workload, args.seed, block0)
            metrics = {
                "ops_per_ref_s": (1.0 / (statistics.median(per_kernel) * REF_KERNEL_S)
                                  if per_kernel else 0.0),
                "setup_s": statistics.median(
                    p["setup_s"] / p["kernel_s"] * REF_KERNEL_S for p in setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            record |= {"ms_per_op": ms_per_op, "op_per_kernel": per_kernel,
                       "kernel_s": kernels,
                       "wall_ops_per_s": 1e3 / statistics.median(ms_per_op)
                       if ms_per_op else 0.0}
    finally:
        workload.close()

    correct = tally.failed == 0 and not tally.problems
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record |= {"result": result, "block0_digests": digests(block0),
               "block0_check": block0_check, "problems": tally.problems}
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={tally.failed / max(tally.attempted, 1)!r} block0={block0_check}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]!r} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
