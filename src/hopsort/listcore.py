"""Singly linked list with hop links over equal-key runs.

A *segment* is a maximal run of adjacent equal-key nodes.  Every node
carries a ``hop`` link that starts out pointing at the node itself; the
merge engines extend the hop of a run's first node so the whole run can be
stepped over in one jump.  A maximal segment may stay covered by several
hop *fragments* (merges are allowed to leave the cover fragmented);
``hop_walk`` visits one node per fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class HopError(ValueError):
    """A hop link broke its contract during traversal."""


class NotSortedError(ValueError):
    """A checked operation required nondecreasing keys and found a drop."""


class Node:
    """List element: integer key, origin index, ``next`` link, ``hop`` link.

    ``Node(key, origin)`` builds a single node.  ``from_keys``, the bulk
    builder, skips ``__init__`` and sets the same four slots itself.

    A node carries no sort state beyond its links: the hop engine's
    head-tie marks live in the ``ComparisonCounter`` of the sort that made
    them.
    """

    __slots__ = ("key", "origin", "next", "hop")

    def __init__(self, key: int, origin: int = 0):
        self.key = key
        self.origin = origin
        self.next: Node | None = None
        self.hop: Node = self

    def __repr__(self) -> str:
        return f"Node(key={self.key!r}, origin={self.origin!r})"


class SortList:
    """Handle to an acyclic, nil-terminated chain of nodes."""

    __slots__ = ("head", "length")

    def __init__(self, head: Node | None = None, length: int = 0):
        self.head = head
        self.length = length

    def __len__(self) -> int:
        return self.length

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
        return f"SortList([{body}{tail}], length={self.length})"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an invariant check; ``position`` locates the first violation."""

    ok: bool
    reason: str | None = None
    position: int | None = None

    def __bool__(self) -> bool:
        return self.ok


# every passing check returns this one frozen verdict, so an audit of a tiny
# list does not pay for building one per check
_PASS = Verdict(True)


def from_keys(keys: Iterable[int]) -> SortList:
    """Build a list whose i-th node has key ``keys[i]`` and origin ``i``.

    ``keys`` may be any iterable; it is read once.  Runs are never
    pre-scanned: every node starts with ``hop`` pointing at itself, and
    equal-key runs only coalesce later, during merges.  Keys must be totally
    ordered (``int``, say) for the sort to be meaningful; they are not
    checked, since a check would cost every build.

    Nodes are allocated with ``object.__new__`` and their four slots stored
    here, without calling ``Node.__init__``: on CPython 3.11 the class call
    and its Python frame are about 40% of a build.
    """
    new = object.__new__
    # a throwaway node to link the first one from, so the loop needs no
    # first-node case; its slots stay unset and it is dropped on return
    before = prev = new(Node)
    i = -1
    for i, key in enumerate(keys):
        node = new(Node)
        node.key = key
        node.origin = i
        node.hop = node
        prev.next = node
        prev = node
    prev.next = None
    return SortList(before.next, i + 1)


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
    otherwise sits around until the cyclic collector finds it.
    """
    node = lst.head
    while node is not None:
        nxt = node.next
        node.next = None
        node.hop = None  # breaks the cycle; the node is dead past this point
        node = nxt
    lst.head = None
    lst.length = 0


def hop_walk(lst: SortList) -> list[Node]:
    """Visit the head, then ``hop.next``, ``hop.next``, ... until nil.

    On a well-formed list this touches one node per hop fragment.  Raises
    HopError if a visited node's hop target carries a different key, or if
    a hop sends the walk to an already-visited node (the footprint of a
    backward hop).
    """
    walk: list[Node] = []
    seen: set[int] = set()
    node = lst.head
    while node is not None:
        if id(node) in seen:
            raise HopError(
                f"walk revisited a node at step {len(walk)}; some hop points backward"
            )
        seen.add(id(node))
        walk.append(node)
        target = node.hop
        if target.key != node.key:
            raise HopError(
                f"hop at walk step {len(walk) - 1} jumps from key {node.key} "
                f"to key {target.key}"
            )
        node = target.next
    return walk


def distinct_key_count(lst: SortList, check: bool = False) -> int:
    """Number of distinct keys in a sorted list, read off the hop walk.

    The walk touches at least one node per maximal segment and never mixes
    keys inside a fragment, so counting key changes along it is exact --
    provided the list is sorted.  On an unsorted list the result means
    nothing; pass ``check=True`` to scan the chain first and raise
    NotSortedError instead of returning garbage.  Past ``lst.length`` steps
    that scan remembers the nodes it visits and stops at the first one it
    meets again, so it ends on a cyclic chain, which the count below then
    handles as it does without the check, and still reaches the end of an
    acyclic chain longer than its stored length.

    The count is one bounded walk of at most ``lst.length`` steps that
    builds nothing.  A walk that overruns the bound (a backward hop loops
    it) or meets a hop onto another key falls back to ``hop_walk``, so such
    a list raises exactly the HopError ``hop_walk`` would.
    """
    if check:
        seen: set[Node] = set()
        prev: int | None = None
        pos = 0
        node = lst.head
        while node is not None:
            if pos >= lst.length:  # >=, not ==: a negative stored length must end too
                if node in seen:
                    break
                seen.add(node)
            if prev is not None and node.key < prev:
                raise NotSortedError(f"keys decrease at position {pos}")
            prev = node.key
            pos += 1
            node = node.next
    limit = lst.length
    steps = 0
    count = 0
    prev_key = 0
    node = lst.head
    while node is not None:
        if steps >= limit:
            return _count_walk_keys(lst)
        key = node.key
        target = node.hop
        if target.key != key:
            return _count_walk_keys(lst)
        if count == 0 or key != prev_key:
            count += 1
            prev_key = key
        steps += 1
        node = target.next
    return count


def _count_walk_keys(lst: SortList) -> int:
    """Key changes along the materialised ``hop_walk``; raises its HopError."""
    count = 0
    prev_key = 0
    for node in hop_walk(lst):
        if count == 0 or node.key != prev_key:
            count += 1
            prev_key = node.key
    return count


def check_hop_valid(lst: SortList) -> Verdict:
    """Full hop audit over every node, not just the walk.

    A hop must stay inside the chain, point at or after its own node, and
    cover only equal keys in between.  Also flags chain cycles and a stored
    length that disagrees with the reachable node count.

    A passing list costs one walk of at most ``lst.length`` steps.  Since a
    valid hop lands forward in its own segment, the walk keeps only the set
    of hop targets not yet reached in the current segment: a key change
    while one is pending, a walk that outruns the stored length, or one that
    ends short of it is a fault.  A fault is then diagnosed exactly by
    ``_diagnose_hops``, which reports the first reason and position.
    """
    limit = lst.length
    count = 0
    pending: set[Node] = set()
    prev_key = None
    node = lst.head
    while node is not None:
        if count >= limit:  # >=, not ==: a negative stored length must end the walk too
            return _diagnose_hops(lst)
        key = node.key
        if pending:
            if key != prev_key:
                return _diagnose_hops(lst)
            pending.discard(node)
        hop = node.hop
        if hop is not node:
            pending.add(hop)
        prev_key = key
        count += 1
        node = node.next
    if pending or count != limit:
        return _diagnose_hops(lst)
    return _PASS


def _diagnose_hops(lst: SortList) -> Verdict:
    """Two-pass hop audit that names the first fault: a chain cycle, then a
    length mismatch, then the first node whose hop escapes the chain, points
    backward or crosses a key change."""
    nodes: list[Node] = []
    index: dict[int, int] = {}
    seg_of: list[int] = []
    seg = 0
    prev_key: int | None = None
    node = lst.head
    while node is not None:
        if id(node) in index:
            return Verdict(False, "cycle", len(nodes))
        if prev_key is not None and node.key != prev_key:
            seg += 1
        index[id(node)] = len(nodes)
        nodes.append(node)
        seg_of.append(seg)
        prev_key = node.key
        node = node.next
    if len(nodes) != lst.length:
        return Verdict(False, "length", len(nodes))
    for i, node in enumerate(nodes):
        j = index.get(id(node.hop))
        if j is None:
            return Verdict(False, "hop-escape", i)
        if j < i:
            return Verdict(False, "hop-backward", i)
        if seg_of[j] != seg_of[i]:
            # same chain, forward, but the stretch [i..j] changes key somewhere
            return Verdict(False, "hop-key", i)
    return _PASS


def check_sorted_stable(lst: SortList, original: Sequence[int]) -> Verdict:
    """Verify nondecreasing keys, multiset equality with ``original``, and
    strictly increasing origins inside each equal-key run.

    One walk checks order and stability against the previous key and
    origin; the multiset check is then ``keys == sorted(original)``.  That
    is exact once the walk has shown the keys nondecreasing, provided keys
    are totally ordered, which the sort itself already requires.
    """
    keys: list[int] = []
    node = lst.head
    if node is not None:
        prev_key = node.key
        prev_origin = node.origin
        keys.append(prev_key)
        node = node.next
        while node is not None:
            key = node.key
            # len(keys) is this node's position
            if key < prev_key:
                return Verdict(False, "order", len(keys))
            origin = node.origin
            if key == prev_key and origin <= prev_origin:
                return Verdict(False, "stability", len(keys))
            keys.append(key)
            prev_key = key
            prev_origin = origin
            node = node.next
    if keys != sorted(original):
        return Verdict(False, "multiset", None)
    return _PASS


def _sorted_output_ok(lst: SortList, expected: Sequence[int]) -> bool:
    """True exactly when ``to_keys(lst) == expected``,
    ``check_sorted_stable(lst, original)`` and ``check_hop_valid(lst)`` all
    pass, where ``expected`` is ``sorted(original)``; False on a cyclic
    chain.  It stands for those three checks, so it must change with them.

    One walk of at most ``len(expected)`` nodes: each key must equal
    ``expected[i]`` (order, multiset and read-back in one test), origins
    must rise strictly inside equal keys, and ``check_hop_valid``'s pending
    hop targets must all be reached before the key changes.  At the end the
    stored length must be ``len(expected)``, the chain must end, and no
    target may be pending.  It names no fault; the three checks do that.
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
    return node is None and not pending and lst.length == len(expected)
