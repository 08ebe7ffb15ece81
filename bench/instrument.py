"""Spans and exact counters recorded from outside the privsel package.

Nothing under ``src/`` is edited.  Each layer is measured by replacing, for
the duration of one block, the names through which another module calls it:

* mechanism entry points where ``privsel.experiments`` and ``privsel.cli``
  bind them; the wrapper hands the mechanism a forwarding proxy in place of
  its oracle, so every ``noisy_query`` / ``noisy_query_batch`` is seen too;
* ``sensitivity_bound`` / ``eval_expr`` where ``privsel.oracle`` and
  ``privsel.verify`` bind them, and the fuzzer's query builders;
* ``generate_instance`` / ``LossInstance`` (core) and the verify phases where
  ``privsel.cli`` binds them, and ``equal_budget_simulate`` (oracle).

``Patches`` undoes every replacement, so untraced blocks run the original
functions.  A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("core", "queries", "oracle", "mechanisms", "experiments", "verify", "cli")

MECHANISM_OF = {
    "binary_tree_select": "binary_tree",
    "recursive_gap_select": "recursive_gap",
    "combined_select": "combined",
    "query_all_baseline": "query_all",
    "exponential_mechanism": "exponential",
}
MECHANISMS = tuple(MECHANISM_OF.values())

VERIFY_PHASES = {
    "appendix_grid": "verify.grid",
    "subset_event_probability": "verify.combinatorics",
    "subset_event_probability_dp": "verify.combinatorics",
    "subset_event_probability_enum": "verify.combinatorics",
    "subset_event_mc": "verify.combinatorics",
    "check_good_subset_rate": "verify.rate",
    "sensitivity_fuzz": "verify.fuzz",
}

# Bytes one candidate slot moves when a node is evaluated: an int64 index and
# the float64 loss it gathers.  Derived from the slot count, not measured.
BYTES_PER_SLOT = 16


class Patches:
    """Module attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, name, make) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def undo(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# Timing spans.


class Tracer:
    """In-memory spans with self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Every span is aggregated; the first ``keep`` spans are also
    kept whole (id, name, start, end, parent id, trial id) for writing out.
    """

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.trial_ms = defaultdict(list)
        self.spans = []
        self.next_id = 0
        self.trial = -1
        self.trials = 0
        self.queries = 0
        self._stack = []

    def enter(self, name: str) -> None:
        self._stack.append([self.next_id, name, perf_counter(), 0.0])
        self.next_id += 1

    def exit(self) -> float:
        end = perf_counter()
        sid, name, start, child_s = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        if sid < self.keep:
            self.spans.append((sid, name, start, end, parent, self.trial))
        return duration

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def wrap_mechanism(self, mechanism: str, fn, takes_oracle: bool):
        name = "mechanisms." + mechanism
        durations = self.trial_ms[mechanism]

        def traced(first, *args, **kwargs):
            self.trial = self.trials
            self.trials += 1
            self.enter(name)
            try:
                return fn(TracedOracle(first, self) if takes_oracle else first, *args, **kwargs)
            finally:
                durations.append(self.exit() * 1e3)
                self.trial = -1
        return traced

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


class TracedOracle:
    """Forwards to the real oracle, timing the two query entry points."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def noisy_query(self, expr, rho_i):
        tracer = self._tracer
        tracer.queries += 1
        tracer.enter("oracle.noisy_query")
        try:
            return self._oracle.noisy_query(expr, rho_i)
        finally:
            tracer.exit()

    def noisy_query_batch(self, exprs, rho_each):
        tracer = self._tracer
        tracer.queries += len(exprs)
        tracer.enter("oracle.noisy_query_batch")
        try:
            return self._oracle.noisy_query_batch(exprs, rho_each)
        finally:
            tracer.exit()


def install_tracing(patches: Patches, pkg, tracer: Tracer) -> None:
    """Time every layer boundary listed in the module docstring."""
    for module in (pkg.experiments, pkg.cli):
        for fn_name, mechanism in MECHANISM_OF.items():
            if hasattr(module, fn_name):
                patches.wrap(module, fn_name, lambda fn, m=mechanism: tracer.wrap_mechanism(
                    m, fn, takes_oracle=m != "exponential"))
        patches.wrap(module, "generate_instance",
                     lambda fn: tracer.wrap("core.generate_instance", fn))
    patches.wrap(pkg.cli, "equal_budget_simulate",
                 lambda fn: tracer.wrap("oracle.equal_budget_simulate", fn))
    for fn_name, span in VERIFY_PHASES.items():
        patches.wrap(pkg.cli, fn_name, lambda fn, s=span: tracer.wrap(s, fn))
    for module in (pkg.oracle, pkg.verify):
        patches.wrap(module, "sensitivity_bound",
                     lambda fn: tracer.wrap("queries.sensitivity_bound", fn))
        patches.wrap(module, "eval_expr", lambda fn: tracer.wrap("queries.eval_expr", fn))
    for fn_name in ("build_bintree_query", "build_tilde_loss"):
        patches.wrap(pkg.verify, fn_name, lambda fn: tracer.wrap("queries.build", fn))
    patches.wrap(pkg.verify, "LossInstance", lambda fn: tracer.wrap("core.LossInstance", fn))


def percentiles(ms: list[float]) -> dict[str, float]:
    """Median and the highest nearest-rank percentile with >= 10 samples above it.

    With ten samples or fewer no such percentile exists; the tail is then
    reported at percentile 0 (the minimum), and the sample count says why.
    """
    if not ms:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ordered = sorted(ms)
    n = len(ordered)
    rank = max(n - 10, 0)
    return {
        "p50": ordered[(n + 1) // 2 - 1],
        "tail": ordered[rank - 1] if rank else ordered[0],
        "tail_pct": 100.0 * rank / n,
        "n": n,
    }


# ---------------------------------------------------------------------------
# Exact counters.


_FIELDS: dict[type, tuple[str, ...]] = {}


def _field_names(node) -> tuple[str, ...]:
    cls = type(node)
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def _is_node(value) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def node_slots(node, base_type) -> int:
    """Candidate positions a node reads itself: 1 for a base loss, plus the
    length of every index-array field (``base_indices``, ``Gap.indices``)."""
    slots = 1 if type(node) is base_type else 0
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, np.ndarray):
            slots += value.size
    return slots


def reachable(expr, base_type) -> tuple[int, int]:
    """(distinct nodes, their candidate slots) reachable from expr.

    Walks dataclass fields generically, so node types added later are still
    counted.
    """
    seen = set()
    stack = [expr]
    nodes = slots = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        slots += node_slots(node, base_type)
        for name in _field_names(node):
            value = getattr(node, name)
            if isinstance(value, tuple):
                stack.extend(v for v in value if _is_node(v))
            elif _is_node(value):
                stack.append(value)
    return nodes, slots


class Counts:
    """Exact counts over a fixed set of trials; they repeat for a given seed."""

    def __init__(self, base_type):
        self.base_type = base_type
        self.trials = 0
        self.rounds = 0
        self.depth = 0
        self.queries = 0
        self.rejected = 0
        self.reachable = 0
        self.evaluated = 0
        self.slots = 0
        self.eval_calls = 0
        self.adapters = 0
        self.equal_rounds = 0
        self.plans = 0
        self.repeats = 0

    def wrap_mechanism(self, fn, takes_oracle: bool):
        def counted(first, *args, **kwargs):
            result = fn(CountedOracle(first, self) if takes_oracle else first, *args, **kwargs)
            self.trials += 1
            self.rounds += result.rounds_used
            self.depth += result.recursion_depth
            return result
        return counted

    def wrap_eval(self, fn):
        """Memo growth and slots touched per evaluation.

        Nodes newly memoised are the ones evaluated; a call that leaves the
        memo unchanged on an uncached root took a memo-free fast path and
        evaluated every reachable node.
        """
        def counted(expr, instance, memo=None):
            self.eval_calls += 1
            if memo is None:
                return fn(expr, instance, memo)
            before = len(memo)
            cached = id(expr) in memo
            value = fn(expr, instance, memo)
            growth = len(memo) - before
            if growth:
                self.evaluated += growth
                self.slots += sum(node_slots(entry[0], self.base_type) for entry in
                                  itertools.islice(reversed(memo.values()), growth))
            elif not cached:
                nodes, slots = reachable(expr, self.base_type)
                self.evaluated += nodes
                self.slots += slots
            return value
        return counted

    def wrap_adapter_run(self, fn):
        def counted(*args, **kwargs):
            result, adapter = fn(*args, **kwargs)
            self.adapters += 1
            self.equal_rounds += adapter.inner_rounds_used
            self.plans += len(adapter.plans)
            self.repeats += sum(p.per_query_repeats for p in adapter.plans)
            return result, adapter
        return counted

    def submitted(self, exprs, call):
        """Count one oracle submission of ``exprs`` made by ``call()``."""
        calls_before = self.eval_calls
        nodes = slots = 0
        for expr in exprs:
            n, s = reachable(expr, self.base_type)
            nodes += n
            slots += s
        self.queries += len(exprs)
        self.reachable += nodes
        try:
            answer = call()
        except Exception:
            self.rejected += len(exprs)
            raise
        if self.eval_calls == calls_before:  # vectorised path: every node read once
            self.evaluated += nodes
            self.slots += slots
        return answer

    def metrics(self) -> dict[str, float]:
        def per(num, den):
            return num / den if den else 0.0
        return {
            "mechanisms.rounds_per_trial": per(self.rounds, self.trials),
            "mechanisms.depth_per_trial": per(self.depth, self.trials),
            "oracle.queries_per_trial": per(self.queries, self.trials),
            "oracle.rejected_frac": per(self.rejected, self.queries),
            "oracle.repeats_per_query": per(self.repeats, self.plans),
            "oracle.equal_rounds_per_trial": per(self.equal_rounds, self.adapters),
            "queries.nodes_per_query": per(self.reachable, self.queries),
            "queries.nodes_evaluated_per_query": per(self.evaluated, self.queries),
            "queries.memo_reuse_frac": 1.0 - per(self.evaluated, self.reachable)
            if self.reachable else 0.0,
            "queries.index_slots_per_query": per(self.slots, self.queries),
            "queries.index_bytes_per_query.computed": per(self.slots * BYTES_PER_SLOT,
                                                          self.queries),
        }


class CountedOracle:
    """Forwards to the real oracle, counting what each query submits."""

    def __init__(self, oracle, counts: Counts):
        self._oracle = oracle
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def noisy_query(self, expr, rho_i):
        return self._counts.submitted(
            (expr,), lambda: self._oracle.noisy_query(expr, rho_i))

    def noisy_query_batch(self, exprs, rho_each):
        return self._counts.submitted(
            exprs, lambda: self._oracle.noisy_query_batch(exprs, rho_each))


def install_counting(patches: Patches, pkg, counts: Counts) -> None:
    """Count trials, queries and expression work at the oracle boundary."""
    for module in (pkg.experiments, pkg.cli):
        for fn_name, mechanism in MECHANISM_OF.items():
            if hasattr(module, fn_name):
                patches.wrap(module, fn_name, lambda fn, m=mechanism: counts.wrap_mechanism(
                    fn, takes_oracle=m != "exponential"))
    patches.wrap(pkg.cli, "equal_budget_simulate", counts.wrap_adapter_run)
    patches.wrap(pkg.oracle, "eval_expr", counts.wrap_eval)
