"""Experiment runner, report rendering, verify sweep, and the CLI surface."""

import ast
import gc
import importlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hopsort import MergeEngine, bench, cli, sort_with_stats
from hopsort.bench import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    VerifySummary,
    render_table,
    run_experiment,
    run_verify,
)
from hopsort.datasets import DatasetKind, Rng64
from hopsort.engines import SortStats
from hopsort.listcore import from_keys, to_keys

def sawtooth_config(**kw):
    base = dict(dataset=DatasetKind.SAWTOOTH, exp_min=7, exp_max=10, k=1024)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_row_bookkeeping():
    report = run_experiment(sawtooth_config(exp_min=7, exp_max=11))
    by_n = {r.n: r for r in report.rows}
    # k column records the effective distinct-key bound, capped at n
    assert by_n[128].k == 128
    assert by_n[2048].k == 1024
    assert by_n[128].predicted == 128 + 128 * 7
    assert by_n[2048].predicted == 2 * 2048 + 2048 * 10 - 1024


def test_config_coerces_dataset_names(monkeypatch):
    config = ExperimentConfig(dataset="sawtooth", exp_min=3, exp_max=3)
    assert config.dataset is DatasetKind.SAWTOOTH
    # sawtooth by name is still seedless: one trial, not the default 100
    assert config.effective() == (1024, 1, 1)
    report = run_experiment(config)
    # every sweep runs both engines, and the table names each by its value
    assert [(r.n, r.dataset, r.engine) for r in report.rows] == [
        (8, "sawtooth", engine.value) for engine in MergeEngine
    ]
    assert [len(report.samples[(8, engine.value)]) for engine in MergeEngine] == [1, 1]
    # and the budget counts its rows once as well
    monkeypatch.setattr(bench, "BUDGET", 8)
    ExperimentConfig(dataset="sawtooth", exp_min=3, exp_max=3)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="zigzag", exp_min=3, exp_max=3)


@pytest.mark.parametrize("by_name", [False, True], ids=["enum", "name"])
def test_config_refuses_the_fields_a_dataset_ignores(monkeypatch, by_name):
    def config(kind, **kw):
        dataset = kind.value if by_name else kind
        return ExperimentConfig(dataset=dataset, exp_min=4, exp_max=6, **kw)

    # unset, a field stays None; a sweep runs with its default, or the value that makes it moot
    sawtooth = config(DatasetKind.SAWTOOTH)
    assert (sawtooth.k, sawtooth.trials, sawtooth.base_seed) == (None, None, None)
    assert sawtooth.effective() == (1024, 1, 1)
    kdistinct = config(DatasetKind.KDISTINCT, trials=2)
    assert kdistinct.effective() == (1024, 2, 1)
    # a field keeps what was set, so replace passes on no default and no moot value
    shuffled = replace(kdistinct, dataset="shuffled")
    assert [(r.n, r.k) for r in run_experiment(shuffled).rows] == [
        (n, n) for n in (16, 32, 64) for _ in MergeEngine
    ]
    for kept in (sawtooth, kdistinct, shuffled):
        assert replace(replace(kept, exp_max=7), exp_max=6) == kept
    # set, it is refused before any sort, even at its default or its moot value
    monkeypatch.setattr(bench, "mergesort", _no_sort)
    ignored = [
        (DatasetKind.SHUFFLED, "k", (5, 64, 1024)),
        (DatasetKind.SAWTOOTH, "trials", (1, 50, 100)),
        (DatasetKind.SAWTOOTH, "base_seed", (1, 9)),
    ]
    for kind, name, values in ignored:
        refusal = f"^{name} has no effect on dataset {kind.value}$"
        for value in values:
            with pytest.raises(ConfigError, match=refusal):
                run_experiment(config(kind, **{name: value}))


def test_run_experiment_budget_refusal():
    with pytest.raises(ConfigError, match="budget"):
        ExperimentConfig(dataset=DatasetKind.SHUFFLED, exp_min=13, exp_max=13, trials=100_000)
    # a row of exactly 2^25 keys is within the limit; one key-trial more is not
    ExperimentConfig(dataset=DatasetKind.SHUFFLED, exp_min=25, exp_max=25, trials=1)
    with pytest.raises(ConfigError, match=r"n\*trials = 67108864 exceeds the budget of 33554432$"):
        ExperimentConfig(dataset=DatasetKind.SHUFFLED, exp_min=25, exp_max=25, trials=2)


@pytest.mark.parametrize(
    "kw",
    [
        dict(exp_min=5, exp_max=3),
        dict(exp_min=-1, exp_max=3),
        dict(k=0),
        dict(dataset=DatasetKind.KDISTINCT, trials=0),  # sawtooth refuses any trials
        dict(k=True),
        dict(exp_min=26, exp_max=26),
        dict(exp_min=31, exp_max=31),
        dict(exp_min=4.0, exp_max=5),  # a number that is not an int is refused before any sort
        dict(exp_min=True, exp_max=3),
        dict(k=2.5),
        dict(dataset=DatasetKind.KDISTINCT, trials=2.0),
        dict(dataset=DatasetKind.KDISTINCT, base_seed="1"),
    ],
)
def test_run_experiment_rejects_bad_config(kw):
    # sawtooth counts one trial per row, so 2^26 is refused by the fixed budget
    # alone; the exponent cap is checked before the budget, so it is what
    # refuses 2^31, before any 2^exp is computed
    match = {26: "exceeds the budget of 33554432$", 31: "past any sane in-memory run"}.get(
        kw.get("exp_max")
    )
    with pytest.raises(ConfigError, match=match):
        run_experiment(sawtooth_config(**kw))


def test_per_element_view():
    # per_element_mean on the canonical table, at the two reference cells
    # that need rounding: 11265/2048 and 65524/8192
    report = run_experiment(
        ExperimentConfig(dataset=DatasetKind.SAWTOOTH, exp_min=11, exp_max=13, k=1024)
    )
    lines = render_table(report.rows).splitlines()
    assert "2048\tsawtooth\t1024\thop\t11265\t11265\t11265\t5.50049\t23552" in lines
    assert "8192\tsawtooth\t1024\tbaseline\t65524\t65524\t65524\t7.99854\t97280" in lines


def test_run_verify_edge_shapes_pass():
    # max_n=0 forces empty inputs; max_key=1 forces all-equal keys
    assert run_verify(trials=1, max_n=0, max_key=1, base_seed=3).ok
    assert run_verify(trials=5, max_n=1, max_key=1, base_seed=3).ok


def test_run_verify_rejects_bad_arguments():
    for name, value in (("trials", 2.0), ("max_n", 4.5), ("max_key", 2.5), ("base_seed", True)):
        with pytest.raises(ConfigError, match=f"^{name} must be an int, got {value!r}$"):
            run_verify(**{**dict(trials=1, max_n=8, max_key=2, base_seed=1), name: value})


def _no_sort(*args, **kwargs):
    raise AssertionError("a refused sweep must not sort anything")


def test_run_verify_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(bench, "BUDGET", 32)
    assert run_verify(trials=4, max_n=8, max_key=2, base_seed=1).ok


class _SortError(Exception):
    pass


def test_sweeps_leave_the_collector_as_they_found_it(monkeypatch):
    sweeps = (
        lambda: run_experiment(sawtooth_config(exp_min=3, exp_max=3)),
        lambda: run_verify(5, 8, 3, 1),
    )
    seen_during_sort = []

    def failing_sort(lst, engine):
        seen_during_sort.append(gc.isenabled())
        raise _SortError

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            for sweep in sweeps:
                gc.enable() if enabled else gc.disable()
                sweep()
                assert gc.isenabled() is enabled
        monkeypatch.setattr(bench, "mergesort", failing_sort)
        for enabled in (True, False):
            for sweep in sweeps:
                gc.enable() if enabled else gc.disable()
                with pytest.raises(_SortError):
                    sweep()
                assert gc.isenabled() is enabled
        assert seen_during_sort == [False] * 4
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_entry_points_leave_no_cyclic_garbage():
    # a self-hop makes every node a reference cycle, so each entry point must
    # dispose the nodes it builds or leave them for the cyclic collector
    entry_points = (
        lambda: sort_with_stats(list(range(1000, 0, -1)), "hop"),
        lambda: run_experiment(sawtooth_config(exp_min=3, exp_max=6)),
        lambda: run_verify(20, 64, 4, 1),
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for entry_point in entry_points:
            gc.collect()
            entry_point()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _drawn_keys(trials, max_n, max_key, base_seed):
    """The key lists run_verify sorts, drawn one next() at a time."""
    drawn = []
    for trial in range(trials):
        rng = Rng64(base_seed + trial)
        n = rng.next() % (max_n + 1)
        drawn.append([rng.next() % max_key for _ in range(n)])
    return drawn


# every run_verify failure test sorts these inputs; small keys force duplicates
FAULT_SWEEP = dict(trials=30, max_n=24, max_key=3, base_seed=1)
FAULT_KEYS = _drawn_keys(**FAULT_SWEEP)


def _swap_first_equal_pair(lst):
    # the shape of perfbench's broken sort: two adjacent equal keys trade places
    prev, node = None, lst.head
    while node is not None and node.next is not None:
        nxt = node.next
        if nxt.key == node.key:
            node.next, nxt.next = nxt.next, node
            if prev is None:
                lst.head = nxt
            else:
                prev.next = nxt
            return
        prev, node = node, nxt


def test_run_verify_sorts_a_fresh_build_after_a_baseline_fault(monkeypatch):
    # a baseline output that fails its audit is not relinked: the hop engine
    # sorts a second build of the keys, and passes on it
    real = bench.mergesort
    built = []

    def mergesort(lst, engine):
        out, stats = real(lst, engine)
        if engine is MergeEngine.BASELINE:
            _swap_first_equal_pair(out)
        return out, stats

    def recording_from_keys(keys):
        built.append(list(keys))
        return from_keys(keys)

    monkeypatch.setattr(bench, "mergesort", mergesort)
    monkeypatch.setattr(bench, "from_keys", recording_from_keys)
    failures = dict(run_verify(**FAULT_SWEEP).failures)
    expected_builds = []
    for trial, keys in enumerate(FAULT_KEYS):
        ordered = sorted(keys)
        equal = [i for i in range(1, len(keys)) if ordered[i] == ordered[i - 1]]
        if equal:
            assert failures.pop(trial) == f"baseline: stability at position {equal[0]}"
            expected_builds += [keys, keys]
        else:
            expected_builds.append(keys)
    assert failures == {}
    assert built == expected_builds
    assert len(built) == 59  # 29 of the 30 trials have equal keys


def test_run_verify_reports_an_unsorted_output(monkeypatch):
    # fresh self-hops pass the hop audit, so each engine's report names the
    # read-back and the first order fault, and a trial joins both reports
    real = bench.mergesort

    def mergesort(lst, engine):
        out, stats = real(lst, engine)
        return from_keys(to_keys(out)[::-1]), stats

    monkeypatch.setattr(bench, "mergesort", mergesort)
    summary = run_verify(**FAULT_SWEEP)
    failures = dict(summary.failures)
    assert sorted(failures) == [t for t, keys in enumerate(FAULT_KEYS) if len(set(keys)) > 1]
    for trial, message in failures.items():
        # descending keys first drop right after the run of the largest key
        p = FAULT_KEYS[trial].count(max(FAULT_KEYS[trial]))
        assert message == "; ".join(
            f"{eng}: output differs from reference sort; {eng}: order at position {p}"
            for eng in ("baseline", "hop")
        )


CYCLIC_VERIFY = """
from hopsort import bench

real = bench.mergesort


def mergesort(lst, engine):
    out, stats = real(lst, engine)
    if out.head is not None:
        node = out.head
        while node.next is not None:
            node = node.next
        node.next = out.head  # the last node links back to the first
    return out, stats


bench.mergesort = mergesort
for trial, message in bench.run_verify(**{sweep}).failures:
    print(trial, message, sep=":")
"""


def test_run_verify_ends_and_reports_a_cyclic_output():
    # a subprocess with a timeout, so a walk that never ends fails the test
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", CYCLIC_VERIFY.format(sweep=FAULT_SWEEP)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"{t}:baseline: hop audit cycle at position {len(keys)}; "
        f"hop: hop audit cycle at position {len(keys)}"
        for t, keys in enumerate(FAULT_KEYS)
        if keys
    ]


def test_run_verify_counts_no_keys_on_a_clean_sweep(monkeypatch):
    # an output that passes the one-walk audit is disposed uncounted
    def count(lst):
        raise AssertionError("a passing output must not reach the distinct-key count")

    monkeypatch.setattr(bench, "distinct_key_count", count)
    summary = run_verify(200, 64, 4, 1)
    assert summary.ok
    assert summary.passed == 200


PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _bench_imports():
    # read from the source, so the test runs without importing perfbench
    tree = ast.parse(PERFBENCH_RUN.read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BENCH_IMPORTS"]
    ]
    return ast.literal_eval(value)


def test_every_name_the_benchmark_traces_in_bench_is_there():
    # the traced audit swaps each bench.<name> for a wrapper and raises on a
    # missing one; each span names the module function the name imports
    names = _bench_imports()
    assert names
    for name, span in names.items():
        module, attr = span.split(".")
        assert module in ("listcore", "engines"), span
        source = importlib.import_module(f"hopsort.{module}")
        assert getattr(bench, name) is getattr(source, attr), name


def test_run_verify_counts_a_dominance_failure(monkeypatch):
    real = bench.mergesort

    def mergesort(lst, engine):
        out, stats = real(lst, engine)
        if engine is MergeEngine.HOP:
            stats = SortStats(stats.comparisons + 1000)  # past any baseline count here
        return out, stats

    monkeypatch.setattr(bench, "mergesort", mergesort)
    summary = run_verify(**FAULT_SWEEP)
    assert summary.passed == 0
    dominance = [m for _, m in summary.failures if m.startswith("dominance: hop ")]
    assert len(dominance) == FAULT_SWEEP["trials"]


def _table(name):
    """The rows of the tab-separated table ``tests/<name>``, comments skipped."""
    path = Path(__file__).resolve().parent / name
    return [line.split("\t") for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize(
    "code, message, argv",
    [pytest.param(*row, id=label) for label, *row in _table("cli_refusals.tsv")],
)
def test_cli_refusal(code, message, argv, monkeypatch, capsys):
    # each row exits with its code before any sort, its message on stderr, no stdout
    monkeypatch.setattr(bench, "mergesort", _no_sort)
    try:
        rc = cli.main(argv.split())
    except SystemExit as exc:  # argparse's refusals exit from parse_args
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out) == (int(code), "")
    assert message in captured.err


def test_cli_bench_unset_flags_take_the_config_defaults(monkeypatch):
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentReport([])

    monkeypatch.setattr(cli, "run_experiment", record)
    for kind in DatasetKind:
        assert cli.main(["bench", "--dataset", kind.value, "--exp-min", "4", "--exp-max", "4"]) == 0
    assert seen == [ExperimentConfig(dataset=kind, exp_min=4, exp_max=4) for kind in DatasetKind]


def test_cli_bench_prints_only_the_table_on_the_2048_sawtooth_cell(capsys):
    # the cell with the 11265-versus-11275 erratum gets no note on any stream
    args = ["--dataset", "sawtooth", "--k", "1024", "--exp-min", "11", "--exp-max", "11"]
    assert cli.main(["bench", *args]) == 0
    captured = capsys.readouterr()
    config = ExperimentConfig(dataset=DatasetKind.SAWTOOTH, exp_min=11, exp_max=11, k=1024)
    assert captured.out == render_table(run_experiment(config).rows)
    assert captured.err == ""


def test_cli_verify_passes(capsys):
    rc = cli.main(["verify", "--trials", "50", "--max-n", "32", "--max-key", "4"])
    assert rc == 0
    assert "50/50 trials passed" in capsys.readouterr().out


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerifySummary(trials=3, failures=[(1, "baseline: output differs")])
    monkeypatch.setattr(cli, "run_verify", lambda *a, **kw: failing)
    rc = cli.main(["verify", "--trials", "3"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "2/3 trials passed" in out
    assert "first failure: trial 1" in out


def _run_cli_module(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "hopsort.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_module_runs_as_a_process():
    # goes through the module's __main__ guard and its sys.exit(main())
    done = _run_cli_module("verify", "--trials", "20", "--max-n", "16", "--max-key", "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "verify: 20/20 trials passed\n"
    done = _run_cli_module("bench", "--dataset", "sawtooth", "--exp-max", "31")
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert done.stdout == ""


def test_run_verify_sorts_the_scalar_drawn_inputs(monkeypatch):
    # perfbench's audit workload draws run_verify's inputs one next() at a
    # time and sorts them next to it, so the block draw must not drift
    built = []

    def recording_from_keys(keys):
        built.append(list(keys))
        return from_keys(keys)

    monkeypatch.setattr(bench, "from_keys", recording_from_keys)
    assert run_verify(50, 64, 5, 9).ok
    # one build per trial: the hop engine sorts the baseline's nodes again
    assert built == _drawn_keys(50, 64, 5, 9)
    assert any(len(keys) > 32 for keys in built)


@pytest.mark.parametrize(
    "dataset, k, trials", [("shuffled", None, 3), ("kdistinct", 16, 2), ("sawtooth", 16, None)]
)
def test_run_experiment_builds_each_input_once(monkeypatch, dataset, k, trials):
    built = []

    def counting_from_keys(keys):
        built.append(len(keys))
        return from_keys(keys)

    monkeypatch.setattr(bench, "from_keys", counting_from_keys)
    config = ExperimentConfig(dataset=dataset, exp_min=2, exp_max=6, k=k, trials=trials)
    assert len(run_experiment(config).rows) == 10  # five n, two engines
    assert built == [n for n in (4, 8, 16, 32, 64) for _ in range(trials or 1)]


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "golden, args", [(golden, argv.split()) for golden, argv in _table("goldens.tsv")]
)
def test_cli_bench_tables_match_the_golden_bytes(golden, args, capsys):
    assert cli.main(args) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


SEED_TOP = 2**64 - 1  # the last seed Rng64 accepts


def test_config_accepts_seeds_at_both_edges():
    for base_seed, trials in ((0, 3), (SEED_TOP, 1), (SEED_TOP - 2, 3)):
        config = ExperimentConfig(
            dataset=DatasetKind.SHUFFLED, exp_min=4, exp_max=4, trials=trials, base_seed=base_seed
        )
        assert len(run_experiment(config).samples[(16, "hop")]) == trials
    # sawtooth is seedless: even a seed in range is refused
    with pytest.raises(ConfigError, match="trials has no effect on dataset sawtooth"):
        sawtooth_config(exp_min=4, exp_max=4, trials=50, base_seed=SEED_TOP)


def test_run_verify_accepts_seeds_at_both_edges():
    assert run_verify(trials=1, max_n=8, max_key=2, base_seed=0).ok
    assert run_verify(trials=1, max_n=8, max_key=2, base_seed=SEED_TOP).ok
    assert run_verify(trials=9, max_n=8, max_key=2, base_seed=SEED_TOP - 8).ok
