"""Independent oracles for the test suite.

Everything here works on plain Python lists -- no linked nodes, no hop
links -- so the counts and shapes it produces are an independent route to
the values the package is expected to reproduce.

Counting convention used throughout: one unit per key pair inspected while
both inputs are nonempty, whether the inspection resolves to a single <=
verdict or to a full less/equal/greater verdict.
"""

from __future__ import annotations

from hopsort.listcore import Node


def count_merge_arrays(xs: list[int], ys: list[int]) -> tuple[list[int], int]:
    """Stable two-pointer merge; ties take from ``xs``.  Returns (merged, cost)."""
    out: list[int] = []
    i = j = 0
    cost = 0
    while i < len(xs) and j < len(ys):
        cost += 1
        if xs[i] <= ys[j]:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return out, cost


def carry_fold(runs, merge):
    """Fold ``runs`` in order on the driver's binary-counter schedule: after
    pushing run number c+1, each low 1-bit of the old count c triggers one
    merge with the popped (older) run as the left operand; a final fold
    drains the stack.  The package's driver holds its 2- and 4-node runs in
    locals instead of on the stack, but makes these same merges in this
    order.  ``merge(older, run)`` returns (merged, cost); the fold returns
    (last run, total cost), with None for the run when ``runs`` is empty."""
    stack = []
    total = 0
    for count, run in enumerate(runs):
        bits = count
        while bits & 1:
            run, cost = merge(stack.pop(), run)
            total += cost
            bits >>= 1
        stack.append(run)
    run = stack.pop() if stack else None
    while stack:
        run, cost = merge(stack.pop(), run)
        total += cost
    return run, total


def baseline_sort_count(keys: list[int]) -> tuple[list[int], int]:
    """Bottom-up mergesort over arrays on the carry schedule."""
    run, total = carry_fold([[x] for x in keys], count_merge_arrays)
    return run or [], total


def merge_schedule(n: int) -> list[tuple[int, int]]:
    """(left size, right size) of each merge ``baseline_sort_count`` makes
    on n keys, in order: the carry schedule on run sizes alone."""
    out: list[tuple[int, int]] = []

    def merge(older: int, run: int) -> tuple[int, int]:
        out.append((older, run))
        return older + run, 0

    carry_fold([1] * n, merge)
    return out


# Fragment-level simulation of the hop merge.  A fragment is a (key, length)
# pair; a list is a sequence of fragments.  Head selection emits the first
# fragment of the smaller side without touching the other side; an equal pair
# emits both fragments fused into one, so later merges step over the pair in
# a single inspection.  This reproduces exactly the fragment structure the
# hop-link engine builds, without any pointer at all.

Frag = tuple[int, int]


def hop_merge_frags(a: list[Frag], b: list[Frag]) -> tuple[list[Frag], int]:
    """Both sides nonempty, as the driver's merges always are."""
    out: list[Frag] = []
    i = j = 0
    cost = 1
    if a[0][0] <= b[0][0]:
        out.append(a[0])
        i = 1
    else:
        out.append(b[0])
        j = 1
    while i < len(a) and j < len(b):
        cost += 1
        ka, la = a[i]
        kb, lb = b[j]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif ka > kb:
            out.append(b[j])
            j += 1
        else:
            out.append((ka, la + lb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out, cost


def hop_sort_frags(keys: list[int]) -> tuple[list[Frag], int]:
    """Same carry schedule as ``baseline_sort_count`` but over fragment lists."""
    run, total = carry_fold([[(x, 1)] for x in keys], hop_merge_frags)
    return run or [], total


def maximal_segments(keys: list[int]) -> list[Frag]:
    """Run-length encoding of a key sequence (maximal equal-key runs)."""
    out: list[Frag] = []
    for key in keys:
        if out and out[-1][0] == key:
            out[-1] = (key, out[-1][1] + 1)
        else:
            out.append((key, 1))
    return out


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """Independent transcription of the splitmix64 step, mod-2**64 arithmetic."""
    m = 2**64
    state = seed % m
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % m
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % m
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % m
        out.append(z ^ (z >> 31))
    return out


def fisher_yates(values: list[int], seed: int) -> list[int]:
    """A shuffled copy of ``values``: for i from the top index down to 1,
    swap positions i and (draw % (i+1)), one ``splitmix64_stream`` draw per i."""
    out = list(values)
    draws = splitmix64_stream(seed, max(len(out) - 1, 0))
    for draw, i in zip(draws, reversed(range(1, len(out)))):
        j = draw % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# Audits of a linked chain by index.  They read only the ``next``, ``hop``,
# ``key`` and ``origin`` attributes and locate nodes by identity scans, so
# they are quadratic and meant for short chains.

Audit = tuple[bool, str | None, int | None]


def lone_node(key, origin=0) -> Node:
    """A node on no chain that hops to itself, its four slots set by hand."""
    node = Node()
    node.key, node.origin, node.next, node.hop = key, origin, None, node
    return node


def hop_audit(head) -> Audit:
    """(ok, reason, position) of the first fault: a ``next`` cycle, then the
    first node by index whose hop leaves the chain, points backward or spans
    a key change."""
    chain = []
    node = head
    while node is not None:
        if any(node is seen for seen in chain):
            return False, "cycle", len(chain)
        chain.append(node)
        node = node.next
    keys = [node.key for node in chain]
    for i, node in enumerate(chain):
        targets = [j for j, other in enumerate(chain) if other is node.hop]
        if not targets:
            return False, "hop-escape", i
        j = targets[0]
        if j < i:
            return False, "hop-backward", i
        if any(keys[m] != keys[m - 1] for m in range(i + 1, j + 1)):
            return False, "hop-key", i
    return True, None, None


def sorted_stable_audit(head, original: list[int]) -> Audit:
    """(ok, reason, position): the first key drop, then the first equal-key
    neighbour whose origin does not increase, then a key multiset that
    differs from ``original`` (position None).

    On a ``next`` cycle the walk stops one step after its last new node: with
    integer keys, a drop or a stability fault must occur by that step.
    """
    walk = []
    node = head
    while node is not None and not any(node is seen for seen in walk):
        walk.append(node)
        node = node.next
    if node is not None:
        walk.append(node)
    pairs = [(node.key, node.origin) for node in walk]
    for pos in range(1, len(pairs)):
        (prev_key, prev_origin), (key, origin) = pairs[pos - 1], pairs[pos]
        if key < prev_key:
            return False, "order", pos
        if key == prev_key and origin <= prev_origin:
            return False, "stability", pos
    balance: dict[int, int] = {}
    for key, _ in pairs:
        balance[key] = balance.get(key, 0) + 1
    for key in original:
        balance[key] = balance.get(key, 0) - 1
    if any(balance.values()):
        return False, "multiset", None
    return True, None, None


def fragment_heads(head) -> list:
    """The nodes a hop walk visits: ``head``, then each visited node's
    ``hop.next``, until nil.  A node already visited (the footprint of a
    backward hop or of a ``next`` cycle) or a nil hop ends the walk too, so
    it ends on any chain; the walk ended at nil exactly when its last node's
    hop is set and leads to nil."""
    walk = []
    seen = set()
    node = head
    while node is not None and node not in seen:
        seen.add(node)
        walk.append(node)
        node = None if node.hop is None else node.hop.next
    return walk
