"""Merge procedures, the shared driver, and comparison accounting.

Expected counts marked "oracle" were computed with the array-based
reimplementation in oracles.py before this package existed, then frozen.
"""

import dataclasses
import operator
import random

import pytest

import oracles
from hopsort import (
    MergeEngine,
    SortList,
    SortStats,
    Verdict,
    bench,
    check_hop_valid,
    check_sorted_stable,
    engines,
    from_keys,
    mergesort,
    sort_with_stats,
    to_keys,
)
from hopsort.datasets import gen_kdistinct, gen_sawtooth, gen_shuffled
from hopsort.engines import ComparisonCounter, merge_baseline, merge_hop

BASELINE = MergeEngine.BASELINE
HOP = MergeEngine.HOP


def chain_keys(head):
    out = []
    while head is not None:
        out.append(head.key)
        head = head.next
    return out


def test_merge_baseline_interleaved():
    counter = ComparisonCounter()
    head = merge_baseline(from_keys([1, 3]).head, from_keys([2, 4]).head, counter)
    assert chain_keys(head) == [1, 2, 3, 4]
    assert counter.invocations == 3  # oracle


@pytest.mark.parametrize("half", [1, 2, 8, 64])
def test_merge_baseline_disjoint_blocks_cost_one_side(half):
    # [0..L-1] + [L..2L-1]: every left node is inspected once, the right
    # side is appended in one piece
    counter = ComparisonCounter()
    a = from_keys(list(range(half))).head
    b = from_keys(list(range(half, 2 * half))).head
    head = merge_baseline(a, b, counter)
    assert chain_keys(head) == list(range(2 * half))
    assert counter.invocations == half  # oracle


def test_merge_baseline_tie_takes_left_operand():
    counter = ComparisonCounter()
    a = from_keys([5])
    b = from_keys([5])
    b.head.origin = 1
    head = merge_baseline(a.head, b.head, counter)
    assert head.origin == 0 and head.next.origin == 1


def test_merge_hop_absorbs_equal_singleton_in_one_comparison():
    counter = ComparisonCounter()
    a = from_keys([1, 1])
    first, second = list(a.nodes())
    first.hop = second  # the run is already coalesced
    b = from_keys([1])
    head = merge_hop(a.head, b.head, counter)
    assert chain_keys(head) == [1, 1, 1]
    assert counter.invocations == 1
    # head selection emits the winning fragment without looking across, so
    # the three equal keys stay covered by two fragments
    assert first.hop is second
    # the tie leaves b's fragment unfused behind a's, so the merge's
    # counter marks b's head, and only it
    assert counter.ties == {b.head}
    merged = SortList(head)
    assert len(oracles.fragment_heads(merged.head)) == 2
    assert check_hop_valid(merged)


def test_merge_hop_equal_pair_fuses_fragments():
    counter = ComparisonCounter()
    a = from_keys([1, 2, 2])
    a1, a2, a3 = list(a.nodes())
    a2.hop = a3
    b = from_keys([2, 2])
    b1, b2 = list(b.nodes())
    b1.hop = b2
    head = merge_hop(a.head, b.head, counter)
    assert chain_keys(head) == [1, 2, 2, 2, 2]
    assert counter.invocations == 2  # oracle: head pick, then one equal pair
    # the left fragment head now hops over both fragments
    assert a2.hop is b2
    merged = SortList(head)
    assert check_hop_valid(merged)


def test_mergesort_empty_and_singleton():
    for keys in ([], [7]):
        out, stats = sort_with_stats(keys, BASELINE)
        assert out == keys
        assert stats.comparisons == 0


def test_mergesort_three_elements_costs_three():
    out, stats = sort_with_stats([3, 1, 2], BASELINE)
    assert out == [1, 2, 3]
    assert stats.comparisons == 3  # oracle


def test_mergesort_takes_only_a_list_and_an_engine():
    # a third argument, positional (a counter, say) or keyword (a push
    # probe, say), is refused before the driver detaches any node
    lst = from_keys([3, 1, 2])
    with pytest.raises(TypeError):
        mergesort(lst, HOP, ComparisonCounter())
    assert to_keys(lst) == [3, 1, 2]
    with pytest.raises(TypeError):
        mergesort(lst, HOP, on_push=print)
    assert to_keys(lst) == [3, 1, 2]


def test_sort_stats_is_a_frozen_value_without_an_instance_dict():
    # every sort builds one, so it carries slots rather than a __dict__
    stats = SortStats(1)
    assert not hasattr(stats, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.comparisons = 2
    assert stats == SortStats(1) != SortStats(2)
    assert repr(stats) == "SortStats(comparisons=1)"


class Fuse(int):
    """An int key whose comparisons raise TypeError while ``Fuse.lit`` is set."""

    lit = False

    def _guarded(op):
        def compare(self, other):
            if Fuse.lit:
                raise TypeError("key comparison refused")
            return op(int(self), other)

        return compare

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _guarded, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )
    __hash__ = int.__hash__


def test_raising_key_comparison_propagates(monkeypatch):
    # "a" against an int raises TypeError in the first merge that meets it
    keys = [3, 1, "a", 2, 5, 0]
    for engine in (BASELINE, HOP):
        with pytest.raises(TypeError):
            sort_with_stats(keys, engine)
        # the handle README describes: only the chain's first run stays reachable
        lst = from_keys(keys)
        with pytest.raises(TypeError):
            mergesort(lst, engine)
        assert repr(lst) == "SortList([3])"
    # the same failure on a key that compares again afterwards, so the audit
    # can sort the original keys: it reports the nodes the raise cut off
    keys = [3, 1, Fuse(4), 2, 5, 0]
    for engine in (BASELINE, HOP):
        lst = from_keys(keys)
        monkeypatch.setattr(Fuse, "lit", True)
        with pytest.raises(TypeError, match="key comparison refused"):
            mergesort(lst, engine)
        monkeypatch.setattr(Fuse, "lit", False)
        assert to_keys(lst) == [3]
        assert check_sorted_stable(lst, keys) == Verdict(False, "multiset", None)


def test_sort_is_stable_on_duplicates():
    for engine in (BASELINE, HOP):
        lst, _ = mergesort(from_keys([2, 1, 2]), engine)
        assert [(n.key, n.origin) for n in lst.nodes()] == [(1, 1), (2, 0), (2, 2)]
        assert check_sorted_stable(lst, [2, 1, 2])


def test_hop_output_passes_full_audit():
    # benchmark-sized inputs, so no quadratic oracle here
    inputs = (
        gen_kdistinct(512, 16, seed=11),
        gen_shuffled(4096, 3),
        gen_kdistinct(4096, 1024, 3),
        gen_sawtooth(4096, 16),
        # a regroup region of 13 fragments with binomial sizes (k = 1) and
        # one of 12 (k = 2), so the regroup pass folds deep
        gen_kdistinct(4096, 1, 3),
        gen_kdistinct(4096, 2, 3),
    )
    for keys in inputs:
        for engine in (BASELINE, HOP):
            lst, _ = mergesort(from_keys(keys), engine)
            assert to_keys(lst) == sorted(keys)
            assert check_sorted_stable(lst, keys)
            assert check_hop_valid(lst)
            # hop's final pass leaves every equal-key region as one fragment;
            # baseline leaves every hop on its own node
            heads = oracles.fragment_heads(lst.head)
            assert len(heads) == len(set(keys) if engine is HOP else keys)


def test_resorting_a_sorted_list_with_coalesced_hops_is_safe():
    # the driver resets each detached singleton's hop, so a chain whose hops
    # were extended by an earlier sort is a legal input again
    keys = gen_kdistinct(300, 8, seed=2)
    lst, _ = mergesort(from_keys(keys), HOP)
    lst2, stats = mergesort(lst, HOP)
    assert to_keys(lst2) == sorted(keys)
    assert check_hop_valid(lst2)
    assert stats.comparisons > 0


def _signature(lst):
    """(key, origin, chain index of the hop target) of each node in chain order."""
    nodes = list(lst.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    return [(node.key, node.origin, index[node.hop]) for node in nodes]


def _relink_inputs():
    rng = random.Random(33)
    for n in range(0, 301, 3):
        for k in (1, 2, 3, 16, 1000):
            drawn = [rng.randrange(k) for _ in range(n)]
            yield drawn
            yield [rng.randrange(k) for _ in range(n)]
            yield sorted(drawn)
            yield sorted(drawn, reverse=True)


def test_a_relinked_list_sorts_exactly_like_a_fresh_build():
    # run_experiment and run_verify sort one build twice: the nodes are
    # chained again in input order with only ``next`` rewritten, so the
    # second sort rests on the driver putting each node back on a self-hop
    inputs = 0
    for keys in _relink_inputs():
        inputs += 1
        nodes, fresh = {}, {}
        for engine in (BASELINE, HOP):
            lst = from_keys(keys)
            nodes[engine] = list(lst.nodes())
            lst, stats = mergesort(lst, engine)
            fresh[engine] = (_signature(lst), stats.comparisons)
        # each engine's output chained again, then sorted by the other engine
        for first, second in ((BASELINE, HOP), (HOP, BASELINE)):
            lst, stats = mergesort(bench._relinked(nodes[first]), second)
            assert (_signature(lst), stats.comparisons) == fresh[second], (keys, first)
    assert inputs >= 2000


def test_counts_match_array_oracle_on_mixed_input():
    keys = gen_kdistinct(333, 7, seed=13)
    _, base_stats = sort_with_stats(keys, BASELINE)
    _, hop_stats = sort_with_stats(keys, HOP)
    assert base_stats.comparisons == oracles.baseline_sort_count(keys)[1]
    assert hop_stats.comparisons == oracles.hop_sort_frags(keys)[1]


def test_engine_names_are_coerced_or_rejected():
    # "hop" must run the hop engine, not fall back to the baseline (7)
    _, stats = sort_with_stats([2, 2, 1, 2, 1], "hop")
    assert stats.comparisons == 6
    with pytest.raises(ValueError):
        sort_with_stats([2, 2, 1, 2, 1], "quick")
    with pytest.raises(ValueError):
        mergesort(from_keys([]), "quick")


def test_a_mark_from_an_earlier_merge_carries_nothing_into_a_later_sort():
    # a node marked by an earlier head tie is reused in a fresh chain ahead of
    # a smaller key; the mark lives in that merge's counter, so the sort must
    # not see it, or its final pass would regroup 3 and 5 as one equal-key
    # region and order them by origin
    marked = from_keys([5]).head
    counter = ComparisonCounter()
    merge_hop(from_keys([5]).head, marked, counter)
    assert counter.ties == {marked}
    marked.next = oracles.lone_node(3, 1)
    lst, _ = mergesort(SortList(marked), HOP)
    assert [(n.key, n.origin) for n in lst.nodes()] == [(3, 1), (5, 0)]
    assert check_sorted_stable(lst, [5, 3])
    assert check_hop_valid(lst)


def test_a_lone_node_leaves_the_sort_hopping_to_itself():
    # a one-node list cut from a coalesced run still carries its old hop
    head = mergesort(from_keys([2, 2, 2]), HOP)[0].head
    assert head.hop is not head
    head.next = None
    for engine in (BASELINE, HOP):
        lst, stats = mergesort(SortList(head), engine)
        assert lst.head is head and head.hop is head
        assert check_hop_valid(lst)
        assert stats.comparisons == 0


def test_the_regroup_walk_runs_only_after_a_head_tie(monkeypatch):
    calls = []

    def regroup(head, marked):
        calls.append(sorted(n.origin for n in marked))
        raise RuntimeError("regroup walk")

    monkeypatch.setattr(engines, "_regroup_equal_regions", regroup)
    for keys in ([], [4], [2, 1], list(range(9, -1, -1)), gen_kdistinct(300, 300, seed=5)):
        lst, _ = mergesort(from_keys(keys), HOP)
        assert to_keys(lst) == sorted(keys)
    mergesort(from_keys([5, 5]), BASELINE)
    assert calls == []
    with pytest.raises(RuntimeError, match="regroup walk"):
        mergesort(from_keys([5, 5]), HOP)
    assert calls == [[1]]


class Unordered:
    """A key that raises if it is compared or hashed."""

    def _refuse(self, *args):
        raise AssertionError("a key was compared or hashed")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = _refuse


@pytest.mark.parametrize(
    "fragments",
    [
        # [A1 C][A2]: a left-side fragment fused with a right-side one (C),
        # then the left-side fragment a head tie left behind it
        [[[0, 1], [4, 5]], [[2, 3]]],
        [[[0, 3, 6]], [[1, 4], [7]], [[2, 5, 8]]],
        [[[0, 5], [10]], [[1, 6]], [[2], [7, 11]], [[3, 8]], [[4, 9, 12]]],
    ],
)
# where the region sits: after one node (False) or at the chain's head (True),
# followed by one node; ending the chain; or followed by a second marked region
@pytest.mark.parametrize(
    "at_head, followed_by",
    [(False, "node"), (True, "node"), (False, "nothing"), (False, "region")],
    ids=["False", "True", "at-end", "back-to-back"],
)
def test_regroup_merges_a_region_by_origin_without_touching_a_key(
    fragments, at_head, followed_by
):
    # each fragment is a list of runs of origins, every run's first node
    # hopping to its last, as merges fuse them; the fragment's first node
    # hops to the fragment's end, and every fragment after the first is marked
    region = []
    marked = set()
    for i, runs in enumerate(fragments):
        fragment = []
        for run in runs:
            nodes = [oracles.lone_node(Unordered(), origin) for origin in run]
            nodes[0].hop = nodes[-1]
            fragment += nodes
        fragment[0].hop = fragment[-1]
        if i:
            marked.add(fragment[0])
        region += fragment
    regions = [region]
    if followed_by == "region":
        # a twin of the region, origins 100 higher, with the same hops and marks
        twin = {node: oracles.lone_node(Unordered(), node.origin + 100) for node in region}
        for node in region:
            twin[node].hop = twin[node.hop]
        marked |= {twin[node] for node in marked}
        regions.append(list(twin.values()))
    before = [] if at_head else [oracles.lone_node(Unordered(), -1)]
    after = [] if followed_by == "nothing" else [oracles.lone_node(Unordered(), 999)]
    chain = before + sum(regions, []) + after
    for node, nxt in zip(chain, chain[1:]):
        node.next = nxt
    head = engines._regroup_equal_regions(chain[0], marked)

    out = [node for _, node in zip(range(len(chain) + 1), SortList(head).nodes())]
    assert len(out) == len(chain) and set(out) == set(chain)  # each node once
    assert out[: len(before)] == before and out[len(chain) - len(after) :] == after
    start = len(before)
    for region in regions:
        merged = out[start : start + len(region)]
        start += len(region)
        assert [node.origin for node in merged] == sorted(node.origin for node in region)
        first, end = merged[0], merged[-1]
        assert first.hop is end and end.next is (out[start] if start < len(out) else None)
        # every other hop is kept and still lands at or after its node in the region
        position = {node: i for i, node in enumerate(merged)}
        assert all(position[node.hop] >= i for i, node in enumerate(merged))
    assert all(node.hop is node for node in before + after)


def test_regroup_puts_the_earlier_fragment_first_on_an_origin_tie():
    # fragment [a1 a2] then [b], marked at b: a2 and b tie on origin 3, and
    # the earlier fragment wins the tie, so b follows a2.  This case comes
    # first: a regroup that gave the tie to the later fragment would drop b
    # here, but leave a cycle below, which list() would never end
    a1, a2, b, after = (oracles.lone_node(Unordered(), origin) for origin in (1, 3, 3, 9))
    a1.next, a1.hop, a2.next, b.next = a2, a2, b, after
    head = engines._regroup_equal_regions(a1, {b})
    assert list(SortList(head).nodes()) == [a1, a2, b, after]
    # fragment [a] then [b1 b2], marked at b1: a and b2 tie on origin 5
    a, b1, b2 = (oracles.lone_node(Unordered(), origin) for origin in (5, 1, 5))
    a.next, b1.next, b1.hop = b1, b2, b2
    head = engines._regroup_equal_regions(a, {b1})
    assert list(SortList(head).nodes()) == [b1, a, b2]


@pytest.mark.parametrize("origins", ["zero", "random-few", "random-many"])
def test_hop_sort_keeps_every_node_when_origins_do_not_rise(monkeypatch, origins):
    # stability needs origins rising along the input within each key; without
    # that, equal keys may come out in any order, but every node must stay.
    # Three origin values make ties in origin common; n values make them rare
    rng = random.Random(7)
    for n, k, seed in ((1, 1, 0), (2, 1, 0), (40, 3, 1), (300, 7, 2), (1024, 1, 3), (4096, 2, 3)):
        keys = gen_kdistinct(n, k, seed)
        if origins == "zero":
            draw = [0] * n
        else:
            spread = 3 if origins == "random-few" else n
            draw = [rng.randrange(spread) for _ in range(n)]
        nodes = [oracles.lone_node(key, origin) for key, origin in zip(keys, draw)]
        lst, _ = mergesort(bench._relinked(nodes), HOP)
        out = list(lst.nodes())
        assert len(out) == n and set(out) == set(nodes)
        assert [node.key for node in out] == sorted(keys)
        assert check_hop_valid(lst)
        assert len(oracles.fragment_heads(lst.head)) == len(set(keys))
        if origins == "zero":
            # equal origins keep chain order, so the pass may only coalesce:
            # the nodes stay in the order the merges left them
            position = {node: i for i, node in enumerate(nodes)}
            fresh = [oracles.lone_node(key) for key in keys]
            fresh_position = {node: i for i, node in enumerate(fresh)}
            with monkeypatch.context() as patch:
                patch.setattr(engines, "_regroup_equal_regions", lambda head, marked: head)
                unregrouped, _ = mergesort(bench._relinked(fresh), HOP)
            assert [position[node] for node in out] == [
                fresh_position[node] for node in unregrouped.nodes()
            ]


SCHEDULE_SIZES = sorted(
    set(range(301)) | {m for j in range(13) for m in (2**j - 1, 2**j, 2**j + 1)}
)


def _schedule_inputs(n):
    yield "shuffled", gen_shuffled(n, seed=n)
    yield "kdistinct", gen_kdistinct(n, 7, seed=n)
    yield "sawtooth", gen_sawtooth(n, 16)
    yield "all-equal", [3] * n


@pytest.mark.parametrize("engine", [BASELINE, HOP])
def test_every_merge_is_a_module_call_on_the_carry_schedule(monkeypatch, engine):
    # perfbench's traced probe wraps engines.merge_* and reads each merge's
    # level off its left operand, so the driver must make exactly the
    # one-node-at-a-time carry schedule's merges, each a call to those names,
    # with the left operand covering the earlier input positions
    calls = []

    def origins(head):
        out = []
        while head is not None:
            out.append(head.origin)
            head = head.next
        return out

    def recorder(real):
        def merge(a, b, counter):
            left, right = origins(a), origins(b)
            assert max(left) < min(right)
            sizes = (len(left), len(right))
            before = counter.invocations
            head = real(a, b, counter)
            calls.append((sizes, counter.invocations - before))
            return head

        return merge

    monkeypatch.setattr(engines, "merge_baseline", recorder(merge_baseline))
    monkeypatch.setattr(engines, "merge_hop", recorder(merge_hop))
    for n in SCHEDULE_SIZES:
        schedule = oracles.merge_schedule(n)
        assert len(schedule) == max(n - 1, 0)
        for name, keys in _schedule_inputs(n):
            calls.clear()
            lst, stats = mergesort(from_keys(keys), engine)
            assert to_keys(lst) == sorted(keys), (name, n)
            assert [sizes for sizes, _ in calls] == schedule, (name, n)
            assert sum(cmp for _, cmp in calls) == stats.comparisons, (name, n)
