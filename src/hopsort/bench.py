"""Experiment runner, verification sweep, and model table.

Row protocol: n walks powers of two from 2**exp_min to 2**exp_max; shuffled
and kdistinct rows average over ``trials`` seeded runs (seeds base_seed ..
base_seed+trials-1), sawtooth is seedless and runs once per row.  Both
engines see the same generated sequence each trial, so per-trial counts are
directly comparable.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from .costmodel import per_element, predicted_cost
from .datasets import DatasetKind, DatasetSpec, Rng64
from .engines import MergeEngine, mergesort
from .listcore import (
    check_hop_valid,
    check_sorted_stable,
    dispose,
    distinct_key_count,
    from_keys,
    to_keys,
)

# refusal threshold for n * trials of a single row; roughly bounds both the
# node churn and the wall time a row may cost before the user must opt in
DEFAULT_BUDGET = 1 << 25

REPORT_HEADER = (
    "n",
    "dataset",
    "k",
    "engine",
    "comparisons_mean",
    "comparisons_min",
    "comparisons_max",
    "per_element_mean",
    "predicted",
)

MODEL_HEADER = ("n", "k", "predicted", "predicted_per_element")


class ConfigError(ValueError):
    """Invalid or refused run configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetKind
    exp_min: int
    exp_max: int
    k: int = 1024
    trials: int = 100
    base_seed: int = 1
    engines: tuple[MergeEngine, ...] = (MergeEngine.BASELINE, MergeEngine.HOP)
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class ReportRow:
    n: int
    dataset: str
    k: int
    engine: str
    comparisons_mean: float
    comparisons_min: int
    comparisons_max: int
    per_element_mean: float
    predicted: float


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    notes: list[str] = field(default_factory=list)
    # raw per-trial comparison counts, keyed by (n, engine name); trials are
    # aligned across engines because both sort the same generated sequence
    samples: dict[tuple[int, str], list[int]] = field(default_factory=dict)


def _validate(config: ExperimentConfig) -> None:
    if not 0 <= config.exp_min <= config.exp_max:
        raise ConfigError(
            f"need 0 <= exp_min <= exp_max, got {config.exp_min}..{config.exp_max}"
        )
    if config.exp_max > 30:
        raise ConfigError(f"exp_max {config.exp_max} is past any sane in-memory run")
    if config.k < 1:
        raise ConfigError(f"k must be >= 1, got {config.k}")
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    if config.budget < 1:
        raise ConfigError(f"budget must be >= 1, got {config.budget}")
    if not config.engines:
        raise ConfigError("at least one engine is required")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    _validate(config)
    rows: list[ReportRow] = []
    notes: list[str] = []
    samples: dict[tuple[int, str], list[int]] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()  # node graphs are huge and disposed by hand; keep sweeps out of the timings
    try:
        for exp in range(config.exp_min, config.exp_max + 1):
            n = 1 << exp
            trials = 1 if config.dataset is DatasetKind.SAWTOOTH else config.trials
            if n * trials > config.budget:
                raise ConfigError(
                    f"refusing row n=2^{exp}: n*trials = {n * trials} exceeds the "
                    f"budget of {config.budget}; raise --budget to opt in"
                )
            counts: dict[MergeEngine, list[int]] = {eng: [] for eng in config.engines}
            for trial in range(trials):
                spec = DatasetSpec(config.dataset, n, config.k, config.base_seed + trial)
                keys = spec.generate()
                for eng in config.engines:
                    lst, stats = mergesort(from_keys(keys), eng)
                    counts[eng].append(stats.comparisons)
                    dispose(lst)
            k_eff = n if config.dataset is DatasetKind.SHUFFLED else min(config.k, n)
            for eng in config.engines:
                vals = counts[eng]
                mean = sum(vals) / len(vals)
                rows.append(
                    ReportRow(
                        n=n,
                        dataset=config.dataset.value,
                        k=k_eff,
                        engine=eng.value,
                        comparisons_mean=mean,
                        comparisons_min=min(vals),
                        comparisons_max=max(vals),
                        per_element_mean=per_element(mean, n),
                        predicted=predicted_cost(n, k_eff),
                    )
                )
                samples[(n, eng.value)] = vals
    finally:
        if gc_was_enabled:
            gc.enable()
    if (
        config.dataset is DatasetKind.SAWTOOTH
        and config.k == 1024
        and config.exp_min <= 11 <= config.exp_max
        and MergeEngine.HOP in config.engines
    ):
        notes.append(
            "note: sawtooth hop n=2048 k=1024 measures 11265 comparisons total "
            "(5.50049 per element); an alternate reference total of 11275 is in "
            "circulation for this cell and is treated here as a misprint"
        )
    return ExperimentReport(rows=rows, notes=notes, samples=samples)


def _decimal(x: float) -> str:
    """Plain decimal: integral floats lose the .0, others keep shortest repr."""
    if x == int(x):
        return str(int(x))
    return repr(x)


def render_report(report: ExperimentReport, fmt: str = "tsv") -> str:
    """Canonical table: fixed header, per-element to exactly 5 decimals."""
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(REPORT_HEADER)]
    for r in report.rows:
        lines.append(
            sep.join(
                (
                    str(r.n),
                    r.dataset,
                    str(r.k),
                    r.engine,
                    _decimal(r.comparisons_mean),
                    str(r.comparisons_min),
                    str(r.comparisons_max),
                    f"{r.per_element_mean:.5f}",
                    _decimal(r.predicted),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_per_element_view(report: ExperimentReport, fmt: str = "tsv") -> str:
    """Compact stdout view for --mode per-element."""
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(("n", "dataset", "k", "engine", "per_element_mean", "predicted_per_element"))]
    for r in report.rows:
        lines.append(
            sep.join(
                (
                    str(r.n),
                    r.dataset,
                    str(r.k),
                    r.engine,
                    f"{r.per_element_mean:.5f}",
                    f"{r.predicted / r.n:.5f}",
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclass
class VerifySummary:
    trials: int
    passed: int
    failures: list[tuple[int, str]] = field(default_factory=list)
    dominance_failures: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_verify(trials: int, max_n: int, max_key: int, base_seed: int) -> VerifySummary:
    """Randomized audit of both engines.

    Each trial draws n <= max_n keys in 0..max_key-1, sorts with both
    engines, and checks: output equals the reference stable sort, origins
    stay increasing inside equal-key runs, every hop survives the full
    audit, the distinct count matches brute force, the stack depth equals
    the population count of the push counter after every push, and the hop
    engine never inspects more pairs than the baseline.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if max_n < 0:
        raise ConfigError(f"max-n must be >= 0, got {max_n}")
    if max_key < 1:
        raise ConfigError(f"max-key must be >= 1, got {max_key}")
    summary = VerifySummary(trials=trials, passed=0)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for trial in range(trials):
            rng = Rng64(base_seed + trial)
            n = rng.next() % (max_n + 1)
            keys = [rng.next() % max_key for _ in range(n)]
            expected = sorted(keys)
            distinct = len(set(keys))
            problems: list[str] = []
            counts: dict[MergeEngine, int] = {}
            for eng in (MergeEngine.BASELINE, MergeEngine.HOP):
                depth_bad: list[int] = []

                def watch(pushed: int, depth: int, _bad=depth_bad) -> None:
                    if depth != pushed.bit_count():
                        _bad.append(pushed)

                out, stats = mergesort(from_keys(keys), eng, on_push=watch)
                counts[eng] = stats.comparisons
                if to_keys(out) != expected:
                    problems.append(f"{eng.value}: output differs from reference sort")
                verdict = check_sorted_stable(out, keys)
                if not verdict:
                    problems.append(
                        f"{eng.value}: {verdict.reason} at position {verdict.position}"
                    )
                verdict = check_hop_valid(out)
                if not verdict:
                    problems.append(
                        f"{eng.value}: hop audit {verdict.reason} at position {verdict.position}"
                    )
                if distinct_key_count(out) != distinct:
                    problems.append(f"{eng.value}: distinct-key count mismatch")
                if depth_bad:
                    problems.append(
                        f"{eng.value}: stack depth != popcount after push {depth_bad[0]}"
                    )
                dispose(out)
            if counts[MergeEngine.HOP] > counts[MergeEngine.BASELINE]:
                summary.dominance_failures += 1
                problems.append(
                    f"dominance: hop {counts[MergeEngine.HOP]} > "
                    f"baseline {counts[MergeEngine.BASELINE]}"
                )
            if problems:
                summary.failures.append((trial, "; ".join(problems)))
            else:
                summary.passed += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return summary


@dataclass(frozen=True)
class ModelRow:
    n: int
    k: int
    predicted: float


def run_model(k: int, exp_min: int, exp_max: int) -> list[ModelRow]:
    """Model table rows; k is capped at n per row (all-distinct behavior)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0 <= exp_min <= exp_max:
        raise ConfigError(f"need 0 <= exp_min <= exp_max, got {exp_min}..{exp_max}")
    rows = []
    for exp in range(exp_min, exp_max + 1):
        n = 1 << exp
        k_eff = min(k, n)
        rows.append(ModelRow(n=n, k=k_eff, predicted=predicted_cost(n, k_eff)))
    return rows


def render_model(rows: list[ModelRow], fmt: str = "tsv") -> str:
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(MODEL_HEADER)]
    for r in rows:
        lines.append(
            sep.join((str(r.n), str(r.k), _decimal(r.predicted), f"{r.predicted / r.n:.5f}"))
        )
    return "\n".join(lines) + "\n"
