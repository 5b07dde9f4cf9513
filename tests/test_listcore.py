"""List construction, the distinct-key count, and the invariant checkers."""

import random

import pytest

import oracles
from hopsort import (
    Verdict,
    check_hop_valid,
    check_sorted_stable,
    from_keys,
    mergesort,
    to_keys,
)
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


def test_to_keys_round_trip():
    keys = [3, 1, 4, 1, 5, 9, 2, 6]
    assert to_keys(from_keys(keys)) == keys


def test_distinct_key_count_on_sorted_runs():
    assert distinct_key_count(from_keys([1, 1, 2, 3, 3, 3])) == 3
    assert distinct_key_count(from_keys([])) == 0
    assert distinct_key_count(from_keys([7])) == 1
    assert distinct_key_count(from_keys(list(range(10)))) == 10
    assert distinct_key_count(from_keys([2, 1, 2])) == 2


def test_check_hop_valid_accepts_fresh_and_normalized_lists():
    assert check_hop_valid(from_keys([2, 2, 1, 9]))
    lst = from_keys([1, 1, 2])
    lst.head.hop = lst.head.next  # one fragment per segment, built by hand
    assert check_hop_valid(lst)
    assert check_hop_valid(from_keys([]))


def test_check_hop_valid_flags_backward_hop():
    lst = from_keys([5, 5])
    ns = nodes_of(lst)
    ns[1].hop = ns[0]
    verdict = check_hop_valid(lst)
    assert not verdict
    assert verdict.reason == "hop-backward"
    assert verdict.position == 1


def test_check_hop_valid_flags_key_crossing_hop():
    # same key at both ends, but the stretch in between changes key
    lst = from_keys([5, 3, 5])
    ns = nodes_of(lst)
    ns[0].hop = ns[2]
    verdict = check_hop_valid(lst)
    assert not verdict
    assert verdict.reason == "hop-key"
    assert verdict.position == 0


def test_check_hop_valid_flags_hop_leaving_the_chain():
    lst = from_keys([4, 4])
    stranger = oracles.lone_node(4)
    nodes_of(lst)[0].hop = stranger
    verdict = check_hop_valid(lst)
    assert not verdict
    assert verdict.reason == "hop-escape"


def test_check_hop_valid_flags_a_cycle():
    lst = from_keys([1, 2, 3])
    ns = nodes_of(lst)
    ns[2].next = ns[1]
    assert check_hop_valid(lst) == Verdict(False, "cycle", 3)


def test_check_hop_valid_flags_a_disposed_node():
    lst = from_keys([7])
    stale = SortList(lst.head)
    dispose(lst)  # leaves the node with hop None
    assert check_hop_valid(stale) == Verdict(False, "hop-escape", 0)


def test_check_hop_valid_reports_the_first_bad_hop():
    # a pending target in the first segment is diagnosed before later faults
    lst = from_keys([1, 1, 2, 2])
    ns = nodes_of(lst)
    ns[1].hop = ns[2]
    ns[3].hop = ns[2]
    assert check_hop_valid(lst) == Verdict(False, "hop-key", 1)
    ns[1].hop = ns[1]
    assert check_hop_valid(lst) == Verdict(False, "hop-backward", 3)


def test_check_sorted_stable_passes_a_true_stable_order():
    lst = from_keys([1, 2, 2])
    assert check_sorted_stable(lst, [1, 2, 2])


def test_check_sorted_stable_flags_order_violation():
    verdict = check_sorted_stable(from_keys([2, 1]), [2, 1])
    assert not verdict
    assert verdict.reason == "order"
    assert verdict.position == 1


def test_check_sorted_stable_flags_swapped_origins():
    lst = from_keys([1, 1])
    ns = nodes_of(lst)
    ns[0].origin, ns[1].origin = 1, 0
    verdict = check_sorted_stable(lst, [1, 1])
    assert not verdict
    assert verdict.reason == "stability"
    assert verdict.position == 1


def test_check_sorted_stable_flags_multiset_mismatch():
    verdict = check_sorted_stable(from_keys([1, 2]), [1, 1])
    assert not verdict
    assert verdict.reason == "multiset"


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


def test_a_cut_tail_passes_the_hop_audit_but_not_the_key_checks():
    # the last key is unique, so cutting its node leaves every hop in the
    # chain; the lost key is found by comparing with the original keys
    original = [2, 9, 1, 2, 5, 2]
    for engine in ("baseline", "hop"):
        lst, _ = mergesort(from_keys(original), engine)
        nodes_of(lst)[-2].next = None
        assert to_keys(lst) == [1, 2, 2, 2, 5]
        assert check_hop_valid(lst)
        assert check_sorted_stable(lst, original) == Verdict(False, "multiset", None)
        assert not _sorted_output_ok(lst, sorted(original))


def _mutate(lst, rng):
    """One random fault of an engine output, or none; returns its kind."""
    ns = nodes_of(lst)
    kind = rng.choice(("none", "hop", "key", "origin", "twin", "next"))
    if not ns:
        kind = "none"
    elif kind == "hop":
        # anywhere in the chain, onto the node itself, or off the chain
        stranger = oracles.lone_node(rng.randrange(5))
        ns[rng.randrange(len(ns))].hop = rng.choice(ns + [stranger])
    elif kind in ("key", "origin", "twin"):
        i = rng.randrange(len(ns))
        # a neighbour half the time, so equal keys are often involved
        j = min(i + 1, len(ns) - 1) if rng.random() < 0.5 else rng.randrange(len(ns))
        a, b = ns[i], ns[j]
        if kind == "key":
            a.key, b.key = b.key, a.key
        elif kind == "origin":
            a.origin, b.origin = b.origin, a.origin
        else:  # a twin origin: equal keys whose origins tie are not stable
            b.origin = a.origin
    elif kind == "next":
        # back (a cycle), forward (skips nodes), cut, or off the chain
        stranger = oracles.lone_node(rng.randrange(5))
        ns[rng.randrange(len(ns))].next = rng.choice(ns + [None, stranger])
    return kind


def test_sorted_output_ok_equals_the_three_checks_it_stands_for():
    # run_verify trusts the one-walk audit in place of to_keys ==
    # expected, check_sorted_stable and check_hop_valid, so the two must
    # agree on every output, faulty ones included
    rng = random.Random(20201)
    verdicts = {True: 0, False: 0}
    cycles = 0
    for _ in range(5000):
        original = [rng.randrange(rng.randrange(1, 6)) for _ in range(rng.randrange(12))]
        expected = sorted(original)
        lst, _ = mergesort(from_keys(original), rng.choice(("baseline", "hop")))
        kind = _mutate(lst, rng)
        hops = check_hop_valid(lst)
        if hops.reason == "cycle":
            # to_keys, one of the named checks, would never end on a cycle
            cycles += 1
            assert not _sorted_output_ok(lst, expected), kind
            continue
        want = (
            to_keys(lst) == expected
            and bool(check_sorted_stable(lst, original))
            and bool(hops)
        )
        assert _sorted_output_ok(lst, expected) == want, (kind, original, to_keys(lst))
        verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500 and cycles > 100
