"""Outside-in layer tracing for the hopsort benchmark.

Spans are recorded by the benchmark around its calls into the program, and
by wrappers it installs on module attributes the program looks up at call
time: ``hopsort.engines.merge_baseline`` / ``merge_hop`` (and the
``on_equal`` hook handed to ``merge_hop``) while a traced ``mergesort`` runs,
and the listcore / engines names ``hopsort.bench`` imports while a traced
``run_verify`` runs.  Nothing in the program is edited.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``; spans stay in
memory and are written when the run ends.  Merge spans are many (n - 1 per
sort), so every traced sort is folded into per-level totals and only the
merge spans of the first traced sort per engine are kept.  ``on_equal``
calls are leaves with roughly one call per equal inspection; they are
counted and timed per merge span instead of getting spans of their own.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns

# merge level j: the left operand holds 2**j nodes; 12 levels cover n <= 2**12,
# the largest input of any workload
LEVELS = 12


class Timer:
    """Untraced timing: ``call`` returns (result, elapsed ns) and records nothing."""

    tracing = False

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter_ns()
        result = fn(*args, **kwargs)
        return result, perf_counter_ns() - t0


class Tracer(Timer):
    """Records a span per ``call``, parented to the innermost open span."""

    tracing = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0, 0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._open.pop()
        return result, span[2] - span[1]

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)[0]

        return traced

    def self_ns(self, name: str) -> list[int]:
        """Self time of each span named ``name``: duration minus its children's."""
        child_ns: dict[int, int] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        return [
            s[2] - s[1] - child_ns.get(i, 0)
            for i, s in enumerate(self.spans)
            if s[0] == name
        ]

    def nesting_problems(self) -> list[str]:
        """Children must lie inside their parent and must not overlap each other."""
        problems: list[str] = []
        last_end: dict[int, int] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent < 0:
                continue
            p = self.spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {i} ({name}) leaves its parent {parent} ({p[0]})")
            if start < last_end.get(parent, start):
                problems.append(f"span {i} ({name}) overlaps an earlier sibling")
            last_end[parent] = end
        return problems


class SortTrace:
    """Merge-level split of one traced ``mergesort`` call."""

    __slots__ = ("level_cmp", "level_ns", "merges", "eq_calls", "eq_ns", "spans")

    def __init__(self, keep_spans: bool) -> None:
        self.level_cmp = [0] * LEVELS
        self.level_ns = [0] * LEVELS
        self.merges = 0
        self.eq_calls = 0
        self.eq_ns = 0
        # (level, start, end, cmp, on_equal calls, on_equal ns) per merge, or None
        self.spans: list[tuple] | None = [] if keep_spans else None

    @property
    def merge_ns(self) -> int:
        return sum(self.level_ns)

    def problems(self, start: int, end: int, comparisons: int) -> list[str]:
        """Merges must be sequential inside the sort span; level counts must sum."""
        out: list[str] = []
        if sum(self.level_cmp) != comparisons:
            out.append(
                f"per-level comparisons sum to {sum(self.level_cmp)}, "
                f"SortStats says {comparisons}"
            )
        if self.merge_ns > end - start:
            out.append("merge spans cover more than their mergesort span")
        if self.spans is not None:
            prev = start
            for _, s, e, _, _, eq_ns in self.spans:
                if s < prev or e > end or eq_ns > e - s:
                    out.append("merge span outside its mergesort span or overlapping")
                    break
                prev = e
        return out


@contextlib.contextmanager
def merge_probe(engines, trace: SortTrace):
    """Wrap ``engines.merge_baseline`` / ``engines.merge_hop`` for one sort.

    The level of a merge is read from the size of its left operand.
    ``mergesort`` only ever passes run heads, so a size table keyed by head
    node (absent means a singleton) tracks every run without walking it.  The
    wrappers do their bookkeeping outside the timed merge interval, so it
    lands in the sort's self time; ``trace_overhead`` reports its cost.
    """
    real_baseline = engines.merge_baseline
    real_hop = engines.merge_hop
    sizes: dict[int, int] = {}
    level_cmp = trace.level_cmp
    level_ns = trace.level_ns
    spans = trace.spans
    sort_hook = [None]  # the on_equal mergesort handed to the current merge

    def counted(x, y):
        t0 = perf_counter_ns()
        sort_hook[0](x, y)
        trace.eq_ns += perf_counter_ns() - t0
        trace.eq_calls += 1

    def traced(real, a, b, counter, on_equal):
        la = sizes.get(id(a), 1)
        lb = sizes.get(id(b), 1)
        eq_calls = trace.eq_calls
        eq_ns = trace.eq_ns
        c0 = counter.invocations
        if on_equal is None:
            t0 = perf_counter_ns()
            out = real(a, b, counter)
            t1 = perf_counter_ns()
        else:
            t0 = perf_counter_ns()
            out = real(a, b, counter, on_equal=on_equal)
            t1 = perf_counter_ns()
        level = la.bit_length() - 1
        cmp = counter.invocations - c0
        level_cmp[level] += cmp
        level_ns[level] += t1 - t0
        trace.merges += 1
        sizes[id(out)] = la + lb
        if spans is not None:
            spans.append((level, t0, t1, cmp, trace.eq_calls - eq_calls, trace.eq_ns - eq_ns))
        return out

    def traced_baseline(a, b, counter):
        return traced(real_baseline, a, b, counter, None)

    def traced_hop(a, b, counter, *, on_equal=None):
        if on_equal is None:
            return traced(real_hop, a, b, counter, None)
        sort_hook[0] = on_equal
        return traced(real_hop, a, b, counter, counted)

    engines.merge_baseline = traced_baseline
    engines.merge_hop = traced_hop
    try:
        yield trace
    finally:
        engines.merge_baseline = real_baseline
        engines.merge_hop = real_hop


@contextlib.contextmanager
def patched(module, tracer: Tracer, names: dict[str, str]):
    """Replace ``module.<attr>`` by a span-recording wrapper named ``names[attr]``."""
    saved = {attr: getattr(module, attr) for attr in names}
    for attr, span_name in names.items():
        setattr(module, attr, tracer.wrap(span_name, saved[attr]))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
