#!/usr/bin/env python3
"""hopsort benchmark: sort latency, throughput and comparison counts, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload dupes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The program is imported from ``src/`` unchanged.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it prints the per-layer
metrics of a traced run and writes its spans to ``perfbench/out/``.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; every output is checked
outside the timed region and a failed check makes the exit code 1.
``--workload all`` runs each workload in its own process and prints one
table.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import layertrace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    from hopsort import bench, datasets, engines, listcore
except ImportError as exc:  # no program next to the benchmark
    bench = datasets = engines = listcore = None
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

# claims measured on development seeds must also hold on this one
CHECK_SEED = 20121589
SETUP_PROBES = 9
# a traced audit run records ~200k spans; the file keeps the first ones
SPANS_WRITTEN = 50_000
AUDIT_CHUNK = 8
# cmp_per_key counts the rounds up to this many keys, so that it repeats
# exactly for a seed however many rounds fit in a run; a run lasts at least
# that long
CMP_KEYS = 1 << 18
# the timed calls of a round; "verify" (run_verify) runs on audit only
STAGES = ("gen", "verify", "build", "sort.baseline", "sort.hop", "read", "dispose")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "shuffled", "kdistinct", "sawtooth", or "audit" (run_verify)
    n: int  # keys per input; for audit, run_verify's max_n
    k: int  # distinct keys; for audit, run_verify's max_key


WORKLOADS = {
    w.name: w
    for w in (
        Workload("distinct", "shuffled", 1 << 12, 1 << 12),
        Workload("dupes", "kdistinct", 1 << 12, 1024),
        Workload("plateau", "sawtooth", 1 << 12, 16),
        Workload("audit", "audit", 256, 16),
    )
}

ENGINE_NAMES = ("baseline", "hop")

END_TO_END = {
    "setup_s": "s",
    "keys_per_s": "keys/s",
    "sort_ns_per_key.baseline": "ns/key",
    "sort_ns_per_key.hop": "ns/key",
    "cmp_per_key.baseline": "cmp/key",
    "cmp_per_key.hop": "cmp/key",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "datasets.gen_ms": "ms",
        "listcore.from_keys_ms": "ms",
        "listcore.to_keys_ms": "ms",
        "listcore.dispose_ms": "ms",
        "listcore.check_sorted_stable_ms": "ms",
        "listcore.check_hop_valid_ms": "ms",
        "listcore.distinct_key_count_ms": "ms",
    }
    for eng in ENGINE_NAMES:
        units[f"engines.merge_{eng}.ms"] = "ms"
        units[f"engines.merge_{eng}.calls"] = "count"
        for j in range(layertrace.LEVELS):
            units[f"engines.merge_{eng}.L{j}.cmp"] = "cmp"
            units[f"engines.merge_{eng}.L{j}.ms"] = "ms"
    units["engines.on_equal.calls"] = "count"
    units["engines.on_equal.ms"] = "ms"
    for eng in ENGINE_NAMES:
        units[f"engines.mergesort.{eng}.p50_ms"] = "ms"
        units[f"engines.mergesort.{eng}.p90_ms"] = "ms"
        units[f"engines.mergesort.{eng}.self_ms"] = "ms"
        units[f"engines.mergesort.{eng}.alloc_peak_kb"] = "kB"
        units[f"engines.cmp_over_bound.{eng}"] = "ratio"
    units["engines.hop_over_baseline"] = "ratio"
    units["bench.run_verify.self_ms"] = "ms"
    units["trace_overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()

# names hopsort.bench imports, traced while run_verify runs
BENCH_IMPORTS = {
    "mergesort": "engines.mergesort",
    "from_keys": "listcore.from_keys",
    "to_keys": "listcore.to_keys",
    "dispose": "listcore.dispose",
    "check_sorted_stable": "listcore.check_sorted_stable",
    "check_hop_valid": "listcore.check_hop_valid",
    "distinct_key_count": "listcore.distinct_key_count",
}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def multiset_bound_bits(keys) -> float:
    """log2(n! / prod m_i!), the comparison lower bound for sorting a multiset."""
    lg = math.lgamma(len(keys) + 1) - sum(math.lgamma(m + 1) for m in Counter(keys).values())
    return lg / math.log(2)


def audit_inputs(base_seed: int, trials: int, max_n: int, max_key: int) -> list[list[int]]:
    """The inputs ``run_verify(trials, max_n, max_key, base_seed)`` draws, drawn the same way."""
    out = []
    for trial in range(trials):
        rng = datasets.Rng64(base_seed + trial)
        n = rng.next() % (max_n + 1)
        out.append([rng.next() % max_key for _ in range(n)])
    return out


class Run:
    """One workload, one seed: the timed loop, its checks and its samples."""

    def __init__(self, workload: Workload, seed: int, timer: layertrace.Timer):
        self.w = workload
        self.seed = seed
        self.timer = timer
        self.engines = {name: engines.MergeEngine(name) for name in ENGINE_NAMES}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per round: (keys, {stage: timed ns})
        self.rounds: list[tuple[int, dict[str, int]]] = []
        self.sort_ns = {e: [] for e in ENGINE_NAMES}
        self.cmp = {e: 0 for e in ENGINE_NAMES}
        self.cmp_keys = 0  # keys behind ``cmp``, the same for both engines
        self.counting = True
        # traced runs only
        self.traced_sort_ns = {e: [] for e in ENGINE_NAMES}
        self.sort_traces = {e: [] for e in ENGINE_NAMES}
        self.bound_bits = {e: 0.0 for e in ENGINE_NAMES}
        self.traced_cmp = {e: 0 for e in ENGINE_NAMES}
        self.first_keys: list[int] | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def generate(self, trial_seed: int) -> list[int]:
        w = self.w
        if w.dataset == "shuffled":
            return datasets.gen_shuffled(w.n, trial_seed)
        if w.dataset == "kdistinct":
            return datasets.gen_kdistinct(w.n, w.k, trial_seed)
        return datasets.gen_sawtooth(w.n, w.k)

    def sort_once(self, keys, expected, eng: str, traced: bool, ns: dict[str, int]) -> int:
        """from_keys -> mergesort -> to_keys -> dispose; returns the comparisons.

        Untraced, the four call times add to the round's ``ns`` by stage.
        """
        timer = self.timer
        self.attempted += 1
        lst, t_build = timer.call("listcore.from_keys", listcore.from_keys, keys)
        trace = None
        merges_traced = contextlib.nullcontext()
        name = f"engines.mergesort.{eng}.untraced"
        if traced:
            trace = layertrace.SortTrace(keep_spans=not self.sort_traces[eng])
            merges_traced = layertrace.merge_probe(engines, trace)
            name = f"engines.mergesort.{eng}"
            span_index = len(timer.spans)
        with merges_traced:
            (out, stats), t_sort = timer.call(name, engines.mergesort, lst, self.engines[eng])
        got, t_read = timer.call("listcore.to_keys", listcore.to_keys, out)

        bad = []
        if got != expected:
            bad.append("output differs from sorted(keys)")
        verdict, _ = timer.call(
            "listcore.check_sorted_stable", listcore.check_sorted_stable, out, keys
        )
        if not verdict:
            bad.append(f"check_sorted_stable: {verdict.reason} at {verdict.position}")
        verdict, _ = timer.call("listcore.check_hop_valid", listcore.check_hop_valid, out)
        if not verdict:
            bad.append(f"check_hop_valid: {verdict.reason} at {verdict.position}")
        if trace is not None:
            span = timer.spans[span_index]
            bad += trace.problems(span[1], span[2], stats.comparisons)
            self.sort_traces[eng].append(trace)
            self.traced_sort_ns[eng].append(t_sort)
            if trace.spans is not None:
                for level, s, e, c, eq_calls, eq_ns in trace.spans:
                    attrs = {"level": level, "cmp": c}
                    if eq_calls:
                        attrs["on_equal_calls"] = eq_calls
                        attrs["on_equal_ns"] = eq_ns
                    timer.spans.append([f"engines.merge_{eng}", s, e, span_index, attrs])
        if bad:
            self.fail(f"{self.w.name} {eng} n={len(keys)}: " + "; ".join(bad))

        _, t_dispose = timer.call("listcore.dispose", listcore.dispose, out)
        if traced:
            self.traced_cmp[eng] += stats.comparisons
            return stats.comparisons
        self.sort_ns[eng].append(t_sort)
        ns["build"] += t_build
        ns[f"sort.{eng}"] += t_sort
        ns["read"] += t_read
        ns["dispose"] += t_dispose
        return stats.comparisons

    def sort_both(self, keys, round_index: int, ns: dict[str, int]) -> None:
        """Both engines on one input, order alternating by round; timings add to ``ns``."""
        expected = sorted(keys)
        order = ENGINE_NAMES if round_index % 2 == 0 else ENGINE_NAMES[::-1]
        counts = {}
        if self.counting:
            self.cmp_keys += len(keys)
        for eng in order:
            try:
                counts[eng] = self.sort_once(keys, expected, eng, False, ns)
                if self.timer.tracing:
                    traced_count = self.sort_once(keys, expected, eng, True, ns)
            except Exception as exc:  # a broken program fails the run instead of ending it
                self.fail(f"{self.w.name} {eng} n={len(keys)}: raised {exc!r}")
                return
            if self.counting:
                self.cmp[eng] += counts[eng]
            if self.timer.tracing:
                self.bound_bits[eng] += multiset_bound_bits(keys)
                if traced_count != counts[eng]:
                    self.fail(
                        f"{eng}: traced sort spent {traced_count} comparisons, "
                        f"untraced {counts[eng]}"
                    )
        if self.w.dataset == "shuffled" and counts["hop"] != counts["baseline"]:
            self.fail(
                f"distinct keys: hop spent {counts['hop']} comparisons, "
                f"baseline {counts['baseline']}"
            )

    def sweep_round(self, index: int, trial_seed: int) -> None:
        keys, t_gen = self.timer.call("datasets.gen", self.generate, trial_seed)
        if self.first_keys is None:
            self.first_keys = keys
        ns = dict.fromkeys(STAGES, 0)
        ns["gen"] = t_gen
        self.sort_both(keys, index, ns)
        self.rounds.append((len(keys), ns))

    def audit_round(self, index: int, base_seed: int) -> None:
        w = self.w
        patch = contextlib.nullcontext()
        if self.timer.tracing:
            patch = layertrace.patched(bench, self.timer, BENCH_IMPORTS)
        self.attempted += AUDIT_CHUNK
        try:
            with patch:
                summary, t_verify = self.timer.call(
                    "bench.run_verify", bench.run_verify, AUDIT_CHUNK, w.n, w.k, base_seed
                )
        except Exception as exc:  # a broken program fails the run instead of ending it
            t_verify = 0
            self.failed += AUDIT_CHUNK
            self.problems.append(f"run_verify at seed {base_seed} raised {exc!r}")
        else:
            if not summary.ok or summary.passed != AUDIT_CHUNK:
                self.failed += AUDIT_CHUNK - summary.passed
                self.problems.extend(
                    f"run_verify trial {t}: {msg}" for t, msg in summary.failures[:5]
                )
        inputs, t_gen = self.timer.call(
            "datasets.gen", audit_inputs, base_seed, AUDIT_CHUNK, w.n, w.k
        )
        if self.first_keys is None:
            self.first_keys = max(inputs, key=len)
        ns = dict.fromkeys(STAGES, 0)
        ns["verify"] = t_verify
        ns["gen"] = t_gen
        for i, keys in enumerate(inputs):
            self.sort_both(keys, index + i, ns)
        self.rounds.append((sum(map(len, inputs)), ns))

    def loop(self, seconds: float, setup_probes: int = 0) -> list[float]:
        """Rounds until ``seconds`` have passed; returns the set-up probe times.

        The probes run between rounds, spread over the run, so that they
        meet the same states of a shared machine as the rounds do.
        """
        seeds = datasets.Rng64(self.seed)
        probes: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()  # as run_experiment: node graphs are disposed by hand
        try:
            start = perf_counter()
            index = 0
            while perf_counter() < start + seconds or self.cmp_keys < CMP_KEYS:
                self.counting = self.cmp_keys < CMP_KEYS
                if len(probes) < setup_probes and (
                    perf_counter() >= start + seconds * len(probes) / setup_probes
                ):
                    probes.append(probe_setup(self.w.name, self.seed))
                round_seed = seeds.next()
                if self.w.dataset == "audit":
                    # a chunk of consecutive run_verify seeds
                    self.audit_round(index, round_seed >> 1)
                else:
                    self.sweep_round(index, round_seed)
                index += 1
            while len(probes) < setup_probes:
                probes.append(probe_setup(self.w.name, self.seed))
        finally:
            if gc_was_enabled:
                gc.enable()
        return probes

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        # best round per stage: the machine is shared and slows for seconds
        # at a time, so a full-run median measures the neighbours as much as
        # the program, and the shorter the timed call the likelier one of
        # its rounds ran undisturbed
        rounds = [(keys, ns) for keys, ns in self.rounds if keys]
        best = {s: min((ns[s] / keys for keys, ns in rounds), default=0.0) for s in STAGES}
        per_key = sum(best.values())
        m = {"setup_s": setup_s, "keys_per_s": 1e9 / per_key if per_key else 0.0}
        for eng in ENGINE_NAMES:
            m[f"sort_ns_per_key.{eng}"] = best[f"sort.{eng}"]
        for eng in ENGINE_NAMES:
            m[f"cmp_per_key.{eng}"] = self.cmp[eng] / max(self.cmp_keys, 1)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return m

    def alloc_peak_kb(self, eng: str) -> float:
        """tracemalloc peak of one mergesort call, list built beforehand."""
        lst = listcore.from_keys(self.first_keys)
        tracemalloc.start()
        try:
            out, _ = engines.mergesort(lst, self.engines[eng])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        listcore.dispose(out)
        return peak / 1024

    def per_layer(self) -> dict[str, float]:
        tracer: layertrace.Tracer = self.timer
        for problem in tracer.nesting_problems()[:5]:
            self.fail(f"trace: {problem}")

        def per_call_ms(name):
            return median([s[2] - s[1] for s in tracer.spans if s[0] == name]) / 1e6

        m = {
            "datasets.gen_ms": per_call_ms("datasets.gen"),
            "listcore.from_keys_ms": per_call_ms("listcore.from_keys"),
            "listcore.to_keys_ms": per_call_ms("listcore.to_keys"),
            "listcore.dispose_ms": per_call_ms("listcore.dispose"),
            "listcore.check_sorted_stable_ms": per_call_ms("listcore.check_sorted_stable"),
            "listcore.check_hop_valid_ms": per_call_ms("listcore.check_hop_valid"),
            "listcore.distinct_key_count_ms": per_call_ms("listcore.distinct_key_count"),
        }
        for eng in ENGINE_NAMES:
            traces = self.sort_traces[eng]
            sorts = max(len(traces), 1)
            m[f"engines.merge_{eng}.ms"] = median([t.merge_ns for t in traces]) / 1e6
            m[f"engines.merge_{eng}.calls"] = sum(t.merges for t in traces) / sorts
            for j in range(layertrace.LEVELS):
                m[f"engines.merge_{eng}.L{j}.cmp"] = sum(t.level_cmp[j] for t in traces) / sorts
                m[f"engines.merge_{eng}.L{j}.ms"] = median([t.level_ns[j] for t in traces]) / 1e6
        hop_traces = self.sort_traces["hop"]
        m["engines.on_equal.calls"] = sum(t.eq_calls for t in hop_traces) / max(len(hop_traces), 1)
        m["engines.on_equal.ms"] = median([t.eq_ns for t in hop_traces]) / 1e6
        for eng in ENGINE_NAMES:
            self_ns = [
                sort_ns - t.merge_ns
                for sort_ns, t in zip(self.traced_sort_ns[eng], self.sort_traces[eng])
            ]
            m[f"engines.mergesort.{eng}.p50_ms"] = median(self.sort_ns[eng]) / 1e6
            m[f"engines.mergesort.{eng}.p90_ms"] = p90(self.sort_ns[eng]) / 1e6
            m[f"engines.mergesort.{eng}.self_ms"] = median(self_ns) / 1e6
            m[f"engines.mergesort.{eng}.alloc_peak_kb"] = self.alloc_peak_kb(eng)
            bound = self.bound_bits[eng]
            m[f"engines.cmp_over_bound.{eng}"] = self.traced_cmp[eng] / bound if bound else 0.0
        base_p50 = median(self.sort_ns["baseline"])
        m["engines.hop_over_baseline"] = median(self.sort_ns["hop"]) / base_p50 if base_p50 else 0.0
        m["bench.run_verify.self_ms"] = median(tracer.self_ns("bench.run_verify")) / 1e6
        ratios = [
            traced / plain
            for eng in ENGINE_NAMES
            for traced, plain in zip(self.traced_sort_ns[eng], self.sort_ns[eng])
            if plain
        ]
        m["trace_overhead"] = median(ratios)
        return m


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metadata(args, run: Run) -> dict:
    return {
        "workload": run.w.name,
        "dataset": run.w.dataset,
        "n": run.w.n,
        "k": run.w.k,
        "seed": args.seed,
        "check_seed": CHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "gc": "disabled during the timed loop, enabled before and after",
        "samples": {
            "rounds": len(run.rounds),
            **{f"sort.{e}": len(run.sort_ns[e]) for e in ENGINE_NAMES},
            **{f"traced_sort.{e}": len(run.traced_sort_ns[e]) for e in ENGINE_NAMES},
        },
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its being ready to time.

    The probe imports the program and prepares the workload exactly as a
    run does, then reports ready; set-up work moved into import or
    preparation shows up here.
    """
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = perf_counter() - t0
        probe.stdout.read()
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {probe.returncode}")
    return elapsed


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")


def write_trace(args, run: Run, metrics: dict[str, float]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.w.name}-seed{args.seed}.json"
    doc = {
        "meta": metadata(args, run),
        "metrics": metrics,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
        "spans_recorded": len(run.timer.spans),
        "spans": run.timer.spans[:SPANS_WRITTEN],
    }
    path.write_text(json.dumps(doc))
    return path


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.probe:
        Run(workload, args.seed, layertrace.Timer())
        print("ready", flush=True)
        return 0
    run = Run(workload, args.seed, layertrace.Tracer() if args.trace else layertrace.Timer())
    probes = run.loop(args.seconds, setup_probes=0 if args.trace else SETUP_PROBES)
    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER
        print(f"# spans written to {write_trace(args, run, metrics).relative_to(ROOT)}")
    else:
        metrics, units = run.end_to_end(statistics.median(probes)), END_TO_END
    print(f"# {workload.name}: {run.attempted} checked operations, {run.failed} failed")
    print_metrics(metrics, units)
    print("# meta " + json.dumps(metadata(args, run)))
    for problem in run.problems:
        print(f"# FAILED {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process (so peak_rss_mb is its own); one table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith("# "):
                print(f"# {name}: {line[2:]}")
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if proc.returncode != 0 or results[name] is None:
            status = 1
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':40s} " + " ".join(f"{n:>12s}" for n in WORKLOADS) + "  unit")
    for metric, unit in units.items():
        cells = []
        for name in WORKLOADS:
            r = results[name]
            cells.append(f"{r['metrics'][metric]['value']:>12.5g}" if r else f"{'-':>12s}")
        print(f"{metric:40s} " + " ".join(cells) + f"  {unit}")
    print(json.dumps(results))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import hopsort from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
