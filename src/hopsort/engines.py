"""The two merge procedures and the shared bottom-up driver.

Both engines run under the same driver: input nodes are detached two at
a time and each pair is merged at once into a two-node run.  The pending 2-
and 4-node runs wait in two locals, not on the stack: a pair's run merges
straight into a waiting 2-node run, the 4-node result straight into a
waiting 4-node run, and only runs of 8 nodes or more are pushed.  The binary
pattern of the running count of 8-node runs decides how many merges precede
a push -- one merge per low 1-bit, so the stack never holds more than one
run per bit.  At the end the pending runs fold into the trailing odd node,
newest first: the 2-node run, the 4-node run, then the stack from the top
down.  The merge sequence is the carry schedule of detaching, pushing and
carrying one node at a time, unchanged: n - 1 calls of the module-level
``merge_baseline`` or ``merge_hop``, never with an empty operand.  The older
run, waiting or stacked, is always the left merge operand and ties take the
left node.

Comparison counting: one count per key pair inspected while both sides are
nonempty.  A single <= verdict (baseline) and a full less/equal/greater
verdict (hop) both cost exactly one count, so on inputs with no duplicate
contact the two engines inspect the identical pair sequence and report
identical totals.  Each merge keeps its tally in a local and adds it to the
``ComparisonCounter`` when it returns, so a key comparison that raises
mid-merge leaves that merge's partial tally uncounted.

Stability: the baseline merge is stable on its own.  The hop merge favors
the left side fragment-by-fragment, and every fragment is internally in
origin order, because the left operand always covers earlier input
positions.  The one place a merge leaves an equal-key fragment directly
behind another without fusing the two is a head-selection tie; there an
equal-splice later in the same merge can land right-side nodes ahead of a
left-side fragment of the same key.  A splice order could avoid that
without inspecting a key (splice the right-side fragment behind the last
marked fragment of the left-side region), but that costs a mark lookup on
every equal step, more than the final pass it saves (README gives the
numbers).  So a head tie marks the trailing fragment by adding its head to
the sort's ``ComparisonCounter.ties``.  Fragments are never split and two
fragments of one run never fuse later, so a mark stays directly behind its
equal-key region until the sort ends.  After the final fold the driver walks the
chain by hop and, in each region that carries marks, merges the fragments
by origin -- restoring input order for equal keys while leaving the
comparison count untouched.  A sort that saw no head tie has no mark, so it
skips the walk.  The marks live in the counter of the sort that made them,
so none can outlive it.

Stability rests on one precondition: within each key, origins rise along
the input chain, as ``from_keys`` numbers them.  On other input every node
is still kept and the keys are still sorted, but equal keys come out in an
unspecified order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .listcore import Node, SortList, dispose, from_keys, to_keys


class MergeEngine(enum.Enum):
    BASELINE = "baseline"
    HOP = "hop"


class ComparisonCounter:
    """Tally of key-pair inspections.  Never reset implicitly.

    ``ties`` is the set of fragment heads that ``merge_hop`` marked at a
    head-selection tie; ``mergesort`` hands it to its regroup pass.
    """

    __slots__ = ("invocations", "ties")

    def __init__(self) -> None:
        self.invocations = 0
        self.ties: set[Node] = set()


@dataclass(frozen=True, slots=True)
class SortStats:
    """What one sort call measured: its key-pair inspections."""

    comparisons: int


def merge_baseline(a: Node, b: Node, counter: ComparisonCounter) -> Node:
    """Stable merge of two nonempty sorted chains, one node per inspection.

    Neither operand may be None: the driver only passes detached nodes and
    runs.  Ties take from ``a``.  Hop links are left untouched.  Once either
    side runs out the rest of the other is appended without further
    inspections.  The merge's inspections are added to ``counter`` when it
    returns.
    """
    if a.key <= b.key:
        head = p = a
        a = a.next
    else:
        head = p = b
        b = b.next
    n = 1
    if a is not None and b is not None:
        ak = a.key
        bk = b.key
        # only the side that advanced can have run out or changed its key
        while True:
            n += 1
            if ak <= bk:
                p.next = a
                p = a
                a = a.next
                if a is None:
                    break
                ak = a.key
            else:
                p.next = b
                p = b
                b = b.next
                if b is None:
                    break
                bk = b.key
    p.next = b if a is None else a
    counter.invocations += n
    return head


def merge_hop(a: Node, b: Node, counter: ComparisonCounter) -> Node:
    """Merge two nonempty sorted chains, a whole hop fragment per inspection.

    On an equal pair the a-side fragment is emitted, the b-side fragment is
    spliced directly behind it, and the a-fragment head's hop is extended
    over both -- so the pair costs a single inspection and every later merge
    steps over the combined run in one jump.  The head-selection step emits
    the winning fragment without looking across, which can leave a maximal
    segment covered by more than one fragment; that fragmentation is legal
    and never repaired here, but a head tie adds ``b`` to ``counter.ties``
    so the driver's final pass knows where the segment may be out of origin
    order.  Neither operand may be None, as for ``merge_baseline``.
    """
    ak = a.key
    bk = b.key
    if ak > bk:
        head = b
        b = b.hop.next
    else:
        if ak == bk:
            counter.ties.add(b)
        head = a
        a = a.hop.next
    p = head.hop
    n = 1
    if a is not None and b is not None:
        ak = a.key
        bk = b.key
        while True:
            n += 1
            if ak < bk:
                p.next = a
                p = a.hop
                a = p.next
                if a is None:
                    break
                ak = a.key
            elif ak > bk:
                p.next = b
                p = b.hop
                b = p.next
                if b is None:
                    break
                bk = b.key
            else:
                # equal: emit a's fragment, splice b's fragment behind it, and
                # fuse the two by extending a's fragment-head hop to b's end
                p.next = a
                ah = a.hop
                p = b.hop
                nxt = ah.next
                ah.next = b
                a.hop = p
                a = nxt
                b = p.next
                if a is None or b is None:
                    break
                ak = a.key
                bk = b.key
    p.next = b if a is None else a
    counter.invocations += n
    return head


def _regroup_equal_regions(head: Node, marked: set[Node]) -> Node:
    """Merge the fragments of every multi-fragment equal-key region by origin.

    Walks the chain by hop, one step per fragment.  A fragment whose
    successor is not in ``marked`` (the sort's head-tie marks) is left
    alone; a run of marked successors is one equal-key region, cut into a
    list of its fragment heads.  Each fragment is in origin order already,
    so the region is rebuilt by merging them on ``origin``, folding from the
    back: each fragment, its end read from its head's ``hop``, merges into
    the merge of those after it and wins a tie, so equal origins keep chain
    order.  The region's first node then hops to its last; every other node
    keeps its hop, which a merge leaves pointing forward inside the region.
    ``marked`` is only read.  No keys are inspected.
    """
    tail: Node | None = None  # last node of the chain rebuilt so far
    node: Node | None = head
    while node is not None:
        end = node.hop
        nxt = end.next
        if nxt in marked:
            # cut the region into fragment heads; its last fragment, b .. end,
            # starts the fold (most regions have two fragments in all)
            heads = []
            b = node
            while nxt in marked:
                heads.append(b)
                b = nxt
                end = b.hop
                nxt = end.next
            while heads:
                # merge a .. a_end into b .. end on origin, a winning a tie, in
                # streaks: one node per step ran this pass 1.45-1.6x slower
                # (audit, CPython 3.11).  A popped fragment is untouched and a
                # merge writes no hop, so a still hops to a_end.  The merged end
                # is the end of the side left over, never the node of largest
                # origin, since origins may repeat.  A side whose end lies below
                # the other side's head is linked whole; otherwise that end
                # stops the streak's walk, so the walk needs no end test
                a = heads.pop()
                a_end = a.hop
                first = b if b.origin < a.origin else a
                while True:
                    ao = a.origin
                    if b.origin < ao:
                        if end.origin < ao:
                            end.next = a
                            end = a_end
                            break
                        p = b
                        while p.next.origin < ao:
                            p = p.next
                        b = p.next
                        p.next = a
                    bo = b.origin
                    if a_end.origin <= bo:
                        a_end.next = b
                        break
                    p = a
                    while p.next.origin <= bo:
                        p = p.next
                    a = p.next
                    p.next = b
                b = first
            b.hop = end
            end.next = nxt
            if tail is None:
                head = b
            else:
                tail.next = b
        tail = end
        node = nxt
    return head


def mergesort(lst: SortList, engine: MergeEngine | str) -> tuple[SortList, SortStats]:
    """Sort ``lst`` in place (nodes are re-linked) and return (lst, stats).

    ``engine`` is coerced with ``MergeEngine(engine)``, so ``"hop"`` works
    and an unknown name raises ValueError.  ``stats.comparisons`` is this
    call's count.

    Keys must be totally ordered (``int``, say); they are not checked, and
    a key outside a total order such as NaN makes the output order
    engine-dependent.

    Output is stable: equal keys appear in input (origin) order, provided
    that within each key the origins rise along the input chain, as
    ``from_keys`` numbers them.  Otherwise every node is kept and the keys
    come out sorted, but equal keys in an unspecified order.  For the hop
    engine stability is finished by a final hop walk that merges by origin
    the fragments of each equal-key region marked at a head-selection tie,
    which also coalesces the region to a single fragment (head hops to the
    region's last node); it performs no key inspections, so reported
    comparison counts are pure merge work.  A sort whose merges marked no
    tie skips the walk, which would change nothing.

    A raising key comparison propagates and leaves the list half relinked,
    so rebuild it from the keys.  On a cyclic chain, ``mergesort`` never
    returns.
    """
    if type(engine) is not MergeEngine:
        engine = MergeEngine(engine)  # skipped for a member: tiny sorts pay it per call
    node = lst.head
    merge = merge_hop if engine is MergeEngine.HOP else merge_baseline
    counter = ComparisonCounter()
    stack: list[Node] = []  # runs of 8 nodes or more, one per bit of octets
    pair: Node | None = None  # the pending 2-node run
    quad: Node | None = None  # the pending 4-node run
    octets = 0
    while node is not None:
        # a detached node must not hop into the chain it came from
        node.hop = node
        b = node.next
        if b is None:
            break  # a trailing odd node is a singleton run
        nxt = b.next
        node.next = None
        b.next = None
        b.hop = b
        run = merge(node, b, counter)
        node = nxt
        if pair is None:
            pair = run
            continue
        run = merge(pair, run, counter)
        pair = None
        if quad is None:
            quad = run
            continue
        run = merge(quad, run, counter)
        quad = None
        bits = octets
        while bits & 1:
            run = merge(stack.pop(), run, counter)
            bits >>= 1
        stack.append(run)
        octets += 1
    # fold the pending runs, newest first, into the trailing odd node (if any)
    for run in (pair, quad, *reversed(stack)):
        if run is not None:
            node = run if node is None else merge(run, node, counter)
    if counter.ties:
        node = _regroup_equal_regions(node, counter.ties)
    lst.head = node
    return lst, SortStats(counter.invocations)


def sort_with_stats(
    keys: Sequence[int], engine: MergeEngine | str
) -> tuple[list[int], SortStats]:
    """Convenience wrapper: build a list from ``keys``, sort, read keys back,
    then ``dispose`` the nodes so none is left for the cyclic collector."""
    lst, stats = mergesort(from_keys(keys), engine)
    out = to_keys(lst)
    dispose(lst)
    return out, stats
