"""List construction, the distinct-key count, the invariant checkers and the
fault report that names what they find."""

import random

import pytest

import oracles
from hopsort import Verdict, bench, check_hop_valid, check_sorted_stable, from_keys, mergesort
from hopsort.listcore import Node, SortList, _sorted_output_ok, dispose, distinct_key_count


def nodes_of(lst):
    return list(lst.nodes())


def scrambled(n):
    return [(i * 7919) % 1009 - 500 for i in range(n)]


# from_keys must accept any iterable, read once; one of each kind
BUILD_INPUTS = {
    "list": scrambled,
    "tuple": lambda n: tuple(scrambled(n)),
    "range": range,
    "generator": lambda n: (key for key in scrambled(n)),
}


@pytest.mark.parametrize("shape", BUILD_INPUTS)
@pytest.mark.parametrize("n", (0, 1, 2, 3, 257, 1025))
def test_from_keys_nodes_equal_hand_built_nodes_slot_for_slot(shape, n):
    # Node has no __init__, so from_keys is the one place that fills a node:
    # every slot must hold the key, the origin or the link the builder owes
    assert Node.__init__ is object.__init__
    lst = from_keys(BUILD_INPUTS[shape](n))
    keys = list(BUILD_INPUTS[shape](n))
    ns = nodes_of(lst)
    assert len(ns) == n
    # a slot added to Node but not filled here would read as unset
    assert Node.__slots__ == ("key", "origin", "next", "hop")
    for i, (node, key) in enumerate(zip(ns, keys)):
        assert type(node) is Node
        following = ns[i + 1] if i + 1 < n else None
        assert node.key == key and node.origin == i
        assert node.next is following and node.hop is node


def test_distinct_key_count_on_sorted_runs():
    assert distinct_key_count(from_keys([1, 1, 2, 3, 3, 3])) == 3
    assert distinct_key_count(from_keys([])) == 0
    assert distinct_key_count(from_keys([7])) == 1
    assert distinct_key_count(from_keys(list(range(10)))) == 10
    assert distinct_key_count(from_keys([2, 1, 2])) == 2


def test_dispose_severs_all_links():
    lst = from_keys([1, 2, 3])
    first = lst.head
    dispose(lst)
    assert lst.head is None
    assert first.next is None and first.hop is None


def test_dispose_ends_on_a_cyclic_chain():
    # run_verify disposes a cyclic output after naming it; a dispose that
    # left next in place would follow the tail back to the head forever
    lst = from_keys([1, 2, 3])
    ns = nodes_of(lst)
    ns[2].next = ns[0]
    dispose(lst)
    assert lst.head is None
    assert all(node.next is None and node.hop is None for node in ns)


def test_node_repr_shows_unset_slots():
    assert repr(Node()) == "Node(key=?, origin=?)"
    assert repr(from_keys([3]).head) == "Node(key=3, origin=0)"


def test_sortlist_repr_is_bounded():
    assert repr(from_keys(list(range(100)))) == "SortList([0, 1, 2, 3, 4, 5, 6, 7, ...])"
    assert repr(from_keys(list(range(8)))) == "SortList([0, 1, 2, 3, 4, 5, 6, 7])"
    assert repr(from_keys([3])) == "SortList([3])"


def test_a_list_is_its_chain():
    # no size is stored beside the chain, so none can disagree with it
    assert SortList.__slots__ == ("head",)
    with pytest.raises(TypeError):
        len(from_keys([1]))


def _link(slot, *pairs):
    """A fault: for each (i, j), node i's ``slot`` points at node j."""
    return lambda ns: [setattr(ns[i], slot, ns[j]) for i, j in pairs]


def _set(slot, *pairs):
    """A fault: for each (i, value), node i's ``slot`` holds ``value``."""
    return lambda ns: [setattr(ns[i], slot, value) for i, value in pairs]


OK = (True, None, None)
LOST = (False, "multiset", None)
CUT = _set("next", (-2, None))  # the chain loses its last node


def _report(*problems):
    """The fault report that run_verify prints for an output named "out"."""
    return [f"out: {problem}" for problem in problems]


DIFFERS = "output differs from reference sort"
MULTISET = "multiset at position None"
COUNT = "distinct-key count mismatch"

# one hand-built fault per row: its id, the original keys, the engine that
# sorts them (or None), the fault made on the chain's nodes (or None), the
# (ok, reason, position) that check_hop_valid and check_sorted_stable owe, and
# the report bench._name_faults owes; None on the cycle row, since the report
# reads the keys back, which never ends on a cycle: the cyclic report is
# test_run_verify_ends_and_reports_a_cyclic_output's, run in a subprocess
FAULTS = [
    ("fresh", [2, 2, 1, 9], None, None, OK, (False, "order", 2),
     _report(DIFFERS, "order at position 2")),
    ("normalized", [1, 1, 2], None, _link("hop", (0, 1)), OK, OK, []),
    ("empty", [], None, None, OK, OK, []),
    ("stable", [1, 2, 2], None, None, OK, OK, []),
    ("backward", [5, 5], None, _link("hop", (1, 0)), (False, "hop-backward", 1), OK,
     _report("hop audit hop-backward at position 1")),
    ("key-crossing", [5, 3, 5], None, _link("hop", (0, 2)), (False, "hop-key", 0),
     (False, "order", 1),
     _report(DIFFERS, "order at position 1", "hop audit hop-key at position 0")),
    ("escape", [4, 4], None, _set("hop", (0, oracles.lone_node(4))), (False, "hop-escape", 0), OK,
     _report("hop audit hop-escape at position 0")),
    ("cycle", [1, 2, 3], None, _link("next", (2, 1)), (False, "cycle", 3), (False, "order", 3),
     None),
    # the list keeps a second handle on the disposed chain, its hop None
    ("disposed", [7], None, lambda ns: dispose(SortList(ns[0])), (False, "hop-escape", 0), OK,
     _report("hop audit hop-escape at position 0")),
    # a pending target in the first segment is diagnosed before later faults
    ("first-bad-hop", [1, 1, 2, 2], None, _link("hop", (1, 2), (3, 2)), (False, "hop-key", 1), OK,
     _report("hop audit hop-key at position 1")),
    ("first-bad-hop-later", [1, 1, 2, 2], None, _link("hop", (1, 1), (3, 2)),
     (False, "hop-backward", 3), OK, _report("hop audit hop-backward at position 3")),
    ("order", [2, 1], None, None, OK, (False, "order", 1), _report(DIFFERS, "order at position 1")),
    ("swapped-origins", [1, 1], None, _set("origin", (0, 1), (1, 0)), OK, (False, "stability", 1),
     _report("stability at position 1")),
    # the list [1, 2] against the original [1, 1]
    ("multiset", [1, 1], None, _set("key", (1, 2)), OK, LOST,
     _report(DIFFERS, MULTISET, COUNT)),
    # a unique last key: no hop leaves with the cut node, and a key is gone
    *(
        (f"cut-tail-{engine}", [2, 9, 1, 2, 5, 2], engine, CUT, OK, LOST,
         _report(DIFFERS, MULTISET, COUNT))
        for engine in ("baseline", "hop")
    ),
    # a shared last key: no key is gone, but hop's run hops onto the cut node
    ("cut-run-baseline", [2, 9, 1, 9], "baseline", CUT, OK, LOST,
     _report(DIFFERS, MULTISET)),
    ("cut-run-hop", [2, 9, 1, 9], "hop", CUT, (False, "hop-escape", 2), LOST,
     _report(DIFFERS, MULTISET, "hop audit hop-escape at position 2")),
]


@pytest.mark.parametrize(
    "original, engine, fault, hops, stable, report",
    [pytest.param(*row, id=name) for name, *row in FAULTS],
)
def test_every_audit_on_a_hand_built_fault(original, engine, fault, hops, stable, report):
    # each named audit names the fault as its independent oracle does, the
    # fault report of run_verify is the row's, and run_verify's one-walk gate
    # passes exactly the outputs whose report is empty
    lst = from_keys(original)
    if engine:
        lst, _ = mergesort(lst, engine)
    if fault:
        fault(nodes_of(lst))
    assert check_hop_valid(lst) == Verdict(*hops)
    assert oracles.hop_audit(lst.head) == hops
    assert check_sorted_stable(lst, original) == Verdict(*stable)
    assert oracles.sorted_stable_audit(lst.head, original) == stable
    expected = sorted(original)
    if report is not None:  # the report's read-back never ends on a cycle
        assert bench._name_faults(lst, original, expected, "out") == report
    assert _sorted_output_ok(lst, expected) == (report == [])


def _fault(ns, rng):
    """One random fault of a chain's nodes ``ns``, or none; returns its kind."""
    kind = rng.choice(("none", "hop", "next", "key", "origin", "twin"))
    i = rng.randrange(len(ns))
    # a neighbour half the time, so equal keys are often involved
    j = min(i + 1, len(ns) - 1) if rng.random() < 0.5 else rng.randrange(len(ns))
    a, b = ns[i], ns[j]
    if kind in ("hop", "next"):
        # anywhere in the chain (a next back makes a cycle), off it, or nil
        stranger = oracles.lone_node(rng.randrange(5))
        setattr(a, kind, rng.choice(ns + [stranger, None]))
    elif kind in ("key", "origin"):
        if rng.random() < 0.5:  # swapped with another node's
            value = getattr(b, kind)
            setattr(b, kind, getattr(a, kind))
        else:  # or set to a drawn value
            value = rng.randrange(5)
        setattr(a, kind, value)
    elif kind == "twin":  # equal keys whose origins tie are not stable
        b.origin = a.origin
    return kind


def test_sorted_output_ok_equals_the_three_checks_it_stands_for():
    # on every mutant each named check names the fault as its oracle does;
    # run_verify trusts the one-walk gate in place of those checks and
    # to_keys == expected, so on every acyclic mutant the gate passes
    # exactly when the fault report that names a failure is empty
    rng = random.Random(20201)
    verdicts = {True: 0, False: 0}
    cycles = 0
    for _ in range(5000):
        original = [rng.randrange(rng.randrange(1, 6)) for _ in range(rng.randrange(25))]
        expected = sorted(original)
        lst = from_keys(original)
        engine = rng.choice((None, "baseline", "hop"))
        if engine:
            lst, _ = mergesort(lst, engine)
        # the nodes are read once: a next fault may leave the chain cyclic
        ns = nodes_of(lst)
        kinds = [_fault(ns, rng) for _ in range(rng.randint(1, 3))] if ns else []
        hops = check_hop_valid(lst)
        assert hops == Verdict(*oracles.hop_audit(lst.head)), kinds
        stable = check_sorted_stable(lst, original)
        assert stable == Verdict(*oracles.sorted_stable_audit(lst.head, original)), kinds
        if hops.reason == "cycle":
            # the report reads the keys back, which never ends on a cycle
            cycles += 1
            assert not _sorted_output_ok(lst, expected), kinds
            continue
        report = bench._name_faults(lst, original, expected, "out")
        ok = _sorted_output_ok(lst, expected)
        assert ok == (report == []), (engine, kinds, original, report)
        verdicts[ok] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500 and cycles > 100
