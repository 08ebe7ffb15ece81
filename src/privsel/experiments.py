"""Seeded Monte Carlo experiment harness.

A run is a pure function of its config: per trial, the oracle stream is
derived from (master_seed, trial index) and each mechanism's internal
randomness from (master_seed, trial index, mechanism position), so repeated
runs are byte-identical and trials can be distributed freely as long as
aggregation stays in trial order.

Config files are a single JSON document:

    {
      "instance": {"family": "uniform", "size": 4096, "scale": 1000.0,
                   "seed": 7},
      "mechanisms": [{"name": "binary_tree"},
                     {"name": "recursive_gap",
                      "constants": {"c_xi": 1.0, "p_xi": 1,
                                    "base_threshold_log": 6}}],
      "rho": 1.0,
      "beta": 0.1,
      "trials": 1000,
      "master_seed": 42,
      "failure_threshold": 0.0,
      "fresh_instance_per_trial": false
    }

`instance.seed` defaults to the master seed; `constants` entries override the
default mechanism constants field-wise.  Summary CSV columns are frozen:

    mechanism,trials,mean_error,p50_error,p90_error,p99_error,
    failure_frequency,threshold,mean_rounds,mean_budget_spent,master_seed
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_CONSTANTS, INSTANCE_FAMILIES, MechanismConstants, generate_instance,
)
from .mechanisms import (
    binary_tree_round_bound, binary_tree_select, combined_round_bound, combined_select,
    exponential_mechanism, query_all_baseline, query_all_round_bound,
    recursive_gap_round_bound, recursive_gap_select,
)
from .oracle import BudgetOracle

__all__ = [
    "MECHANISM_TABLE", "MECHANISM_NAMES", "ConfigError", "EmptyRecordsError",
    "InstanceSpec", "MechanismSpec", "ExperimentConfig",
    "TrialRecord", "MechanismSummary", "ExperimentSummary",
    "SUMMARY_CSV_HEADER", "nearest_rank_quantile",
    "run_trials", "summarize", "run_experiment",
]


def _rng(seed) -> np.random.Generator | None:
    """The Generator of a mechanism's seed entropy; None stays None."""
    return None if seed is None else np.random.default_rng(seed)


# name -> (run(oracle, rho, beta, consts, seed), round_bound(n, beta, consts)).
# A round bound of None marks a mechanism outside the query model; its run
# takes the instance in place of an oracle.  seed is the entropy of the
# mechanism's own stream, turned into a Generator only by the runs that draw
# from it; with seed=None a mechanism spawns its stream from the oracle.  The
# entries call the mechanisms through this module's names so that wrapping a
# name here reaches every caller.
MECHANISM_TABLE = {
    "binary_tree": (
        lambda o, rho, beta, consts, seed: binary_tree_select(o, rho),
        lambda n, beta, consts: binary_tree_round_bound(n)),
    "recursive_gap": (
        lambda o, rho, beta, consts, seed: recursive_gap_select(
            o, rho, beta, consts, _rng(seed)),
        recursive_gap_round_bound),
    "combined": (
        lambda o, rho, beta, consts, seed: combined_select(o, rho, consts, _rng(seed)),
        lambda n, beta, consts: combined_round_bound(n, consts)),
    "exponential": (
        lambda instance, rho, beta, consts, seed: exponential_mechanism(
            instance, rho, _rng(seed)),
        None),
    "query_all": (
        lambda o, rho, beta, consts, seed: query_all_baseline(o, rho),
        lambda n, beta, consts: query_all_round_bound(n)),
}

MECHANISM_NAMES = tuple(MECHANISM_TABLE)

SUMMARY_CSV_HEADER = ("mechanism,trials,mean_error,p50_error,p90_error,p99_error,"
                      "failure_frequency,threshold,mean_rounds,mean_budget_spent,master_seed")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _number(spec, name: str, integral: bool, least: float = -math.inf) -> None:
    """Store spec.name as an int (integral) or a float, not below least.  A
    bool, a string or any other non-number is a ConfigError, as is a fraction
    for an integer field: int() would read 2.7 as 2 and true as 1.  5.0 reads
    as 5.  NaN is a ConfigError too: every comparison with it is false."""
    value = getattr(spec, name)
    if (type(value) is bool or not isinstance(value, numbers.Real) or integral
            and not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError(
            f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")
    if value != value:
        raise ConfigError(f"{name} must not be NaN")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    object.__setattr__(spec, name, int(value) if integral else float(value))


def _known_fields(doc, cls, key: str) -> dict:
    """A copy of the JSON object doc, the value of key: its keys are field
    names of cls and include every field of cls without a default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{key} must be a JSON object, got {doc!r}")
    fields = dataclasses.fields(cls)
    if extra := set(doc) - {f.name for f in fields}:
        raise ConfigError(f"unknown {key} fields: {sorted(extra)}")
    if missing := [f.name for f in fields if f.default is dataclasses.MISSING
                   and f.name not in doc]:
        raise ConfigError(f"missing required {key} fields: {missing}")
    return dict(doc)


class EmptyRecordsError(ValueError):
    """summarize() needs at least one trial record."""


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    size: int
    scale: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.family not in INSTANCE_FAMILIES:
            raise ConfigError(f"unknown instance family {self.family!r}")
        _number(self, "size", integral=True, least=1)
        _number(self, "scale", integral=False, least=0)
        if not math.isfinite(self.scale):  # uniform draws overflow on an infinite scale
            raise ConfigError(f"instance scale must be finite, got {self.scale!r}")
        if self.seed is not None:
            _number(self, "seed", integral=True, least=0)


@dataclass(frozen=True)
class MechanismSpec:
    name: str
    constants: MechanismConstants | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; __post_init__ checks and normalises every field, for
    from_json and Python callers alike."""

    instance: InstanceSpec
    mechanisms: tuple[MechanismSpec, ...]
    rho: float
    beta: float = 0.1
    trials: int = 1000
    master_seed: int = 0
    failure_threshold: float = 0.0
    fresh_instance_per_trial: bool = False

    def __post_init__(self):
        if type(self.instance) is not InstanceSpec:
            raise ConfigError(f"instance must be an InstanceSpec, got {self.instance!r}")
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if not self.mechanisms:
            raise ConfigError("at least one mechanism is required")
        for spec in self.mechanisms:
            if type(spec) is not MechanismSpec or not isinstance(
                    spec.constants, (MechanismConstants, type(None))):
                raise ConfigError(f"mechanisms must be MechanismSpecs with MechanismConstants"
                                  f" or None as constants, got {spec!r}")
            if spec.name not in MECHANISM_NAMES:
                raise ConfigError(
                    f"unknown mechanism {spec.name!r}; expected one of {MECHANISM_NAMES}")
        names = [spec.name for spec in self.mechanisms]
        if twice := sorted({name for name in names if names.count(name) > 1}):
            # summaries are keyed by name, so two specs' trials would pool in one row
            raise ConfigError(f"mechanisms listed more than once: {twice}")
        for name in ("rho", "beta", "failure_threshold"):
            _number(self, name, integral=False)
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        _number(self, "trials", integral=True, least=1)
        _number(self, "master_seed", integral=True, least=0)
        if type(self.fresh_instance_per_trial) is not bool:
            raise ConfigError("fresh_instance_per_trial must be true or false, got "
                              f"{self.fresh_instance_per_trial!r}")

    @property
    def instance_seed(self) -> int:
        """The seed of the instance: instance.seed, else the master seed."""
        return self.master_seed if self.instance.seed is None else self.instance.seed

    def to_json(self) -> dict:
        return dataclasses.asdict(
            self, dict_factory=lambda items: {k: v for k, v in items if v is not None})

    @classmethod
    def from_json(cls, doc: dict, default_constants: MechanismConstants | None = None
                  ) -> "ExperimentConfig":
        """The config of a JSON document keyed by the dataclasses' field names;
        absent fields take their defaults, absent constants default_constants."""
        try:
            doc = _known_fields(doc, cls, "config")
            doc["instance"] = InstanceSpec(**_known_fields(doc["instance"], InstanceSpec,
                                                           "instance"))
            if not isinstance(doc["mechanisms"], (list, tuple)):  # to_json gives a tuple
                raise ConfigError(f"mechanisms must be a JSON array, got {doc['mechanisms']!r}")
            mechanisms = []
            for m in doc["mechanisms"]:
                m = _known_fields(m, MechanismSpec, "mechanism")
                consts = m.get("constants")
                m["constants"] = (default_constants if consts is None else MechanismConstants(
                    **_known_fields(consts, MechanismConstants, "constants")))
                mechanisms.append(MechanismSpec(**m))
            doc["mechanisms"] = mechanisms
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json_text(cls, text: str,
                       default_constants: MechanismConstants | None = None
                       ) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(doc, default_constants)


@dataclass(frozen=True)
class TrialRecord:
    mechanism: str
    trial: int
    winner: int
    error: float
    rounds_used: int
    budget_spent: float
    recursion_depth: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class MechanismSummary:
    mechanism: str
    trials: int
    mean_error: float
    p50_error: float
    p90_error: float
    p99_error: float
    failure_frequency: float
    threshold: float
    mean_rounds: float
    mean_budget_spent: float


@dataclass(frozen=True)
class ExperimentSummary:
    master_seed: int | None
    rows: tuple[MechanismSummary, ...] = field(default_factory=tuple)

    def row(self, mechanism: str) -> MechanismSummary:
        for r in self.rows:
            if r.mechanism == mechanism:
                return r
        raise KeyError(mechanism)

    def to_csv(self) -> str:
        lines = [SUMMARY_CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.mechanism},{r.trials},{r.mean_error!r},{r.p50_error!r},"
                f"{r.p90_error!r},{r.p99_error!r},{r.failure_frequency!r},"
                f"{r.threshold!r},{r.mean_rounds!r},{r.mean_budget_spent!r},"
                f"{'' if self.master_seed is None else self.master_seed}")
        return "\n".join(lines) + "\n"


def nearest_rank_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q/100 * n)-th smallest value."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[rank - 1])


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """All trial records, in (trial, mechanism) order."""
    inst, fresh, seed = config.instance, config.fresh_instance_per_trial, config.instance_seed
    records = []
    for trial in range(config.trials):
        if trial == 0 or fresh:
            instance = generate_instance(inst.family, inst.size, inst.scale,
                                         _derived_seed(seed, trial) if fresh else seed)
            best = instance.min_loss()
        for mi, spec in enumerate(config.mechanisms):
            run, round_bound = MECHANISM_TABLE[spec.name]
            mech_seed = [config.master_seed, trial, 1 + mi]
            target = instance
            if round_bound is not None:
                oracle_seed = np.random.SeedSequence([config.master_seed, trial])
                target = BudgetOracle(instance, config.rho, oracle_seed, record_log=False)
            result = run(target, config.rho, config.beta,
                         spec.constants or DEFAULT_CONSTANTS, mech_seed)
            records.append(TrialRecord(
                mechanism=spec.name,
                trial=trial,
                winner=result.winner,
                error=instance.as_array().item(result.winner) - best,
                rounds_used=result.rounds_used,
                budget_spent=result.budget_spent,
                recursion_depth=result.recursion_depth,
            ))
    return records


def summarize(records: list[TrialRecord], threshold: float,
              master_seed: int | None = None) -> ExperimentSummary:
    """Exact sample statistics per mechanism.

    Failure frequency is the fraction of trials with error strictly above the
    threshold; quantiles are nearest-rank.
    """
    if not records:
        raise EmptyRecordsError("no trial records to summarize")
    grouped: dict[str, list[TrialRecord]] = {}  # in order of first appearance
    for rec in records:
        grouped.setdefault(rec.mechanism, []).append(rec)
    rows = []
    for name, recs in grouped.items():
        errors = np.sort(np.asarray([r.error for r in recs]))
        rows.append(MechanismSummary(
            mechanism=name,
            trials=len(recs),
            mean_error=float(errors.mean()),
            p50_error=nearest_rank_quantile(errors, 50),
            p90_error=nearest_rank_quantile(errors, 90),
            p99_error=nearest_rank_quantile(errors, 99),
            failure_frequency=float(np.count_nonzero(errors > threshold) / len(recs)),
            threshold=threshold,
            mean_rounds=float(np.mean([r.rounds_used for r in recs])),
            mean_budget_spent=float(np.mean([r.budget_spent for r in recs])),
        ))
    return ExperimentSummary(master_seed=master_seed, rows=tuple(rows))


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run all trials and aggregate; a pure function of the config."""
    return summarize(run_trials(config), config.failure_threshold, config.master_seed)
