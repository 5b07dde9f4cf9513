#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every run emits exactly the metrics BENCHMARK.json names, with
their units; that a traced run of ``distinct`` sees no ``on_equal`` call;
that ``cmp_per_key`` repeats exactly for a seed; that a deliberately broken
sort (equal keys swapped after sorting) is
counted as failed and turns the exit code non-zero; and that the benchmark
refuses to run, without printing a result, when the program is missing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "distinct": dict(n=64, k=64),
    "dupes": dict(n=64, k=8),
    "plateau": dict(n=64, k=4),
    "audit": dict(n=16, k=4),
}


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(workload: str, trace: int) -> dict:
    code, result = invoke(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    )
    expect(code == 0 and result["correct"], f"{workload} trace={trace}: {result}")
    expect(result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: counts {result}")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(
        list(metrics) == [m["name"] for m in declared],
        f"{workload} trace={trace}: emitted {sorted(set(metrics) ^ {m['name'] for m in declared})}",
    )
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}")
        expect(
            isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
            f"{m['name']}: value {got['value']!r}",
        )
        if not trace:
            expect(got["value"] > 0, f"{workload}: end-to-end {m['name']} is not positive")
    return metrics


def broken_mergesort(real):
    """``real``, then the first two adjacent equal keys trade places."""

    def mergesort(lst, engine, *args, **kwargs):
        lst, stats = real(lst, engine, *args, **kwargs)
        prev, node = None, lst.head
        while node is not None and node.next is not None:
            nxt = node.next
            if nxt.key == node.key:
                node.next, nxt.next = nxt.next, node
                if prev is None:
                    lst.head = nxt
                else:
                    prev.next = nxt
                break
            prev, node = node, nxt
        return lst, stats

    return mergesort


def check_broken_sort_fails(workload: str) -> None:
    real_engines, real_bench = run.engines.mergesort, run.bench.mergesort
    run.engines.mergesort = broken_mergesort(real_engines)
    run.bench.mergesort = broken_mergesort(real_bench)
    try:
        code, result = invoke(["--workload", workload, "--seconds", "0.2", "--trace", "0"])
    finally:
        run.engines.mergesort, run.bench.mergesort = real_engines, real_bench
    expect(code != 0, f"{workload}: broken sort still exits 0")
    expect(not result["correct"] and result["failed"] > 0, f"{workload}: broken sort {result}")


def check_counts_repeat() -> None:
    """cmp_per_key repeats exactly for a seed, whatever the run length."""
    short = invoke(["--workload", "dupes", "--seed", "5", "--seconds", "0.05"])[1]
    long = invoke(["--workload", "dupes", "--seed", "5", "--seconds", "0.5"])[1]
    for eng in run.ENGINE_NAMES:
        name = f"cmp_per_key.{eng}"
        expect(short["metrics"][name] == long["metrics"][name], f"{name} differs by run length")


def check_refuses_without_program() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*BENCHMARK["command"], "--workload", "distinct", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        )  # fmt: skip
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "runs without the program")
    expect('"metrics"' not in proc.stdout, "prints a result without the program")


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    expect(names == list(run.WORKLOADS), f"workloads {names} != {list(run.WORKLOADS)}")
    run.SETUP_PROBES = 1
    run.AUDIT_CHUNK = 4
    run.CMP_KEYS = 1024
    run.WORKLOADS = {
        name: dataclasses.replace(w, **TINY[name]) for name, w in run.WORKLOADS.items()
    }
    for workload in run.WORKLOADS:
        check_metrics(workload, trace=0)
        traced = check_metrics(workload, trace=1)
        if workload == "distinct":
            expect(traced["engines.on_equal.calls"]["value"] == 0, "on_equal called on distinct")
    check_counts_repeat()
    check_broken_sort_fails("dupes")
    check_broken_sort_fails("audit")
    check_refuses_without_program()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
