"""Experiment runner, verification sweep, and the table writer.

Row protocol: n walks powers of two from 2**exp_min to 2**exp_max; shuffled
and kdistinct rows average over ``trials`` seeded runs (seeds base_seed ..
base_seed+trials-1), sawtooth is seedless and runs once per row.  Every
row runs both engines, baseline then hop, on the same generated sequence
each trial, so per-trial counts are directly comparable.  A sweep builds
each input once: the hop engine sorts the baseline's nodes chained again in
input order.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field, fields

from .costmodel import predicted_cost
from .datasets import _MASK64, DatasetKind, Rng64, _check_ints, generate
from .engines import MergeEngine, mergesort
from .listcore import (
    Node,
    SortList,
    _sorted_output_ok,
    check_hop_valid,
    check_sorted_stable,
    dispose,
    distinct_key_count,
    from_keys,
    to_keys,
)

# the work limit: the most n * trials a bench row, or trials * max_n a verify
# sweep, may cost; it bounds both the node churn and the wall time.  A larger
# sweep runs in --seed/--trials chunks, since trial t uses seed base + t
BUDGET = 1 << 25
EXP_LIMIT = 30  # the largest exp_max; a longer row is past any sane in-memory run

class ConfigError(ValueError):
    """Invalid or refused run configuration."""


@contextlib.contextmanager
def _gc_paused():
    """Collector off for a sweep, then back as it was: node graphs are large
    and disposed by hand, so a collection would only walk them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _check_trials(trials: int, base_seed: int) -> None:
    """A sweep runs at least one trial, and its seeds base_seed ..
    base_seed+trials-1 must all lie in 0..2**64-1, the seeds ``Rng64``
    accepts, so a sweep is refused before its first sort."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    last = base_seed + trials - 1
    if base_seed < 0 or last > _MASK64:
        raise ConfigError(f"seeds {base_seed}..{last} leave the range 0..2**64-1")


def _check_budget(what: str, cost: int) -> None:
    """Refuse a sweep, or a row of one, whose ``cost`` exceeds ``BUDGET``."""
    if cost > BUDGET:
        raise ConfigError(f"refusing {what} = {cost} exceeds the budget of {BUDGET}")


# the optional fields' defaults, and per dataset the fields it ignores (refused
# when set) with the values that make them moot: shuffled keys are all distinct
# and k = 2**EXP_LIMIT, the largest n, keeps each row's k at n; sawtooth is seedless
_DEFAULTS = {"k": 1024, "trials": 100, "base_seed": 1}
_IGNORED = {
    DatasetKind.SHUFFLED: {"k": 1 << EXP_LIMIT},
    DatasetKind.SAWTOOTH: {"trials": 1, "base_seed": 1},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep configuration; construction raises ConfigError for an invalid
    one, or for one with a row whose n * trials exceeds the fixed ``BUDGET``
    (2**25), so no sweep can start on it.  ``dataset`` may be given by name
    ("sawtooth") and is coerced to its enum; every other field keeps what
    was given, so ``dataclasses.replace`` works and an unset field stays
    None.  A set field the dataset ignores (``k`` on shuffled, ``trials``
    and ``base_seed`` on sawtooth) is refused, and ``effective()`` derives
    the values a sweep runs with."""

    dataset: DatasetKind | str
    exp_min: int
    exp_max: int
    k: int | None = None
    trials: int | None = None
    base_seed: int | None = None

    def __post_init__(self) -> None:
        try:
            dataset = DatasetKind(self.dataset)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "dataset", dataset)
        given = {n: getattr(self, n) for n in _DEFAULTS if getattr(self, n) is not None}
        _check_ints(ConfigError, exp_min=self.exp_min, exp_max=self.exp_max, **given)
        if not 0 <= self.exp_min <= self.exp_max:
            raise ConfigError(f"need 0 <= exp_min <= exp_max, got {self.exp_min}..{self.exp_max}")
        if self.exp_max > EXP_LIMIT:
            raise ConfigError(f"exp_max {self.exp_max} is past any sane in-memory run")
        for name in _IGNORED.get(dataset, {}):
            if name in given:
                raise ConfigError(f"{name} has no effect on dataset {dataset.value}")
        k, trials, base_seed = self.effective()
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        _check_trials(trials, base_seed)
        for exp in range(self.exp_min, self.exp_max + 1):
            _check_budget(f"row n=2^{exp}: n*trials", (1 << exp) * trials)

    def effective(self) -> tuple[int, int, int]:
        """The ``(k, trials, base_seed)`` every row runs with (a row of n keys
        has ``min(k, n)`` distinct keys): each unset field takes its default
        (1024, 100, 1), and each field the dataset ignores its moot value."""
        moot = _IGNORED.get(self.dataset, {})
        return tuple(
            moot.get(n, default if getattr(self, n) is None else getattr(self, n))
            for n, default in _DEFAULTS.items()
        )


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


# the canonical table's columns, in ReportRow's field order; render_table writes them
REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    # raw per-trial comparison counts, keyed by (n, engine name); trials are
    # aligned across engines because both sort the same generated sequence
    samples: dict[tuple[int, str], list[int]] = field(default_factory=dict)


def _relinked(nodes: list[Node]) -> SortList:
    """The nodes of one build, sorted or not, chained again in build order.

    Only ``next`` is rewritten: keys and origins are as ``from_keys`` set
    them, and ``mergesort`` puts every node it detaches back on a self-hop,
    so the list sorts exactly as a fresh build of the same keys does.
    """
    head = None
    for node in reversed(nodes):
        node.next = head
        head = node
    return SortList(head)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    k, trials, base_seed = config.effective()
    rows: list[ReportRow] = []
    samples: dict[tuple[int, str], list[int]] = {}
    with _gc_paused():
        for exp in range(config.exp_min, config.exp_max + 1):
            n = 1 << exp
            counts: dict[MergeEngine, list[int]] = {eng: [] for eng in MergeEngine}
            for trial in range(trials):
                lst = from_keys(generate(config.dataset, n, k, base_seed + trial))
                nodes = list(lst.nodes())
                lst, stats = mergesort(lst, MergeEngine.BASELINE)
                counts[MergeEngine.BASELINE].append(stats.comparisons)
                lst, stats = mergesort(_relinked(nodes), MergeEngine.HOP)
                counts[MergeEngine.HOP].append(stats.comparisons)
                dispose(lst)
            k_eff = min(k, n)
            for eng in MergeEngine:
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
                        per_element_mean=mean / n,
                        predicted=predicted_cost(n, k_eff),
                    )
                )
                samples[(n, eng.value)] = vals
    return ExperimentReport(rows=rows, samples=samples)


def _cell(column: str, value) -> str:
    if column == "per_element_mean":
        return f"{value:.5f}"
    if column in ("comparisons_mean", "predicted") and value == int(value):
        return str(int(value))  # plain decimal: an integral mean or prediction loses the .0
    return str(value)


def render_table(rows: list[ReportRow]) -> str:
    """The one table writer: a header of ``REPORT_COLUMNS``, then one
    tab-separated line per row.

    Means and predictions print as plain decimals, ``per_element_mean`` to
    exactly 5 decimals.
    """
    lines = ["\t".join(REPORT_COLUMNS)]
    lines += ["\t".join(_cell(c, getattr(r, c)) for c in REPORT_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


@dataclass
class VerifySummary:
    trials: int
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _name_faults(out: SortList, keys: list[int], expected: list[int], name: str) -> list[str]:
    """The problems the named checks report on an output that failed the
    one-walk audit.

    The hop audit runs first, since it is the one check that ends on a
    cyclic chain: a cycle is reported alone.  On sorted keys with valid
    hops, the distinct-key count names a changed set of keys; any other hop
    fault or a drop in the keys skips it, so such a report names only what
    the other checks see.
    """
    hops = check_hop_valid(out)
    if hops.reason == "cycle":
        return [f"{name}: hop audit cycle at position {hops.position}"]
    problems = []
    got = to_keys(out)
    if got != expected:
        problems.append(f"{name}: output differs from reference sort")
    verdict = check_sorted_stable(out, keys)
    if not verdict:
        problems.append(f"{name}: {verdict.reason} at position {verdict.position}")
    if not hops:
        problems.append(f"{name}: hop audit {hops.reason} at position {hops.position}")
    elif got == sorted(got) and distinct_key_count(out) != len(set(keys)):
        problems.append(f"{name}: distinct-key count mismatch")
    return problems


def run_verify(trials: int, max_n: int, max_key: int, base_seed: int) -> VerifySummary:
    """Randomized audit of both engines.

    Each trial draws n <= max_n keys in 0..max_key-1, sorts with both
    engines, and checks: output equals the reference stable sort, origins
    stay increasing inside equal-key runs, every hop survives the full
    audit, and the hop engine never inspects more pairs than the baseline.
    A dominance failure is reported only as a ``dominance: hop X >
    baseline Y`` problem of its trial in ``failures``.  A passing output is
    not counted: its keys equal the reference sort's, so its distinct keys
    do too.  A sweep with an argument that is not an int, or whose
    trials * max_n exceeds the fixed ``BUDGET`` (2**25), raises ConfigError
    before the first trial.

    The hop engine sorts the nodes the baseline sorted, chained again in
    input order, when the baseline output passed its audit, and a fresh
    build of the keys otherwise.  Each output is audited in one walk
    (``listcore._sorted_output_ok``), and only an output that fails it goes
    through the named checks
    (``to_keys``, ``check_sorted_stable``, ``check_hop_valid``), whose
    verdicts name the fault.  A cyclic output is reported as a hop-audit
    cycle alone, so every trial ends and reports instead of raising; the
    distinct-key count runs only on sorted keys whose hops pass the audit.
    """
    _check_ints(ConfigError, trials=trials, max_n=max_n, max_key=max_key, base_seed=base_seed)
    _check_trials(trials, base_seed)
    if max_n < 0:
        raise ConfigError(f"max-n must be >= 0, got {max_n}")
    if max_key < 1:
        raise ConfigError(f"max-key must be >= 1, got {max_key}")
    _check_budget("verify: trials*max_n", trials * max_n)
    summary = VerifySummary(trials=trials)
    with _gc_paused():
        for trial in range(trials):
            rng = Rng64(base_seed + trial)
            n = rng.next() % (max_n + 1)
            keys = [key % max_key for key in rng.take(n)]
            expected = sorted(keys)
            problems: list[str] = []
            lst = from_keys(keys)
            nodes = list(lst.nodes())
            out, stats = mergesort(lst, MergeEngine.BASELINE)
            baseline = stats.comparisons
            if _sorted_output_ok(out, expected):
                lst = _relinked(nodes)
            else:
                problems += _name_faults(out, keys, expected, "baseline")
                # the output may have lost, mangled or foreign nodes
                dispose(out)
                lst = from_keys(keys)
            out, stats = mergesort(lst, MergeEngine.HOP)
            hop = stats.comparisons
            if not _sorted_output_ok(out, expected):
                problems += _name_faults(out, keys, expected, "hop")
            dispose(out)
            if hop > baseline:
                problems.append(f"dominance: hop {hop} > baseline {baseline}")
            if problems:
                summary.failures.append((trial, "; ".join(problems)))
    return summary

