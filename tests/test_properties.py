"""Randomized and exhaustive properties: both engines against the reference
sort, the array oracles, the cost ceilings and the structural invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hopsort import (
    MergeEngine,
    SortList,
    check_hop_valid,
    check_sorted_stable,
    from_keys,
    mergesort,
    sort_with_stats,
    to_keys,
)
from hopsort import engines
from hopsort.costmodel import predicted_cost
from hopsort.datasets import Rng64, gen_sawtooth
from hopsort.engines import ComparisonCounter, merge_baseline, merge_hop

key_lists = st.lists(st.integers(min_value=0, max_value=15), max_size=200)
# a merge operand is never empty: the driver passes detached nodes and runs
merge_sides = st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200)
wide_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=120)


def engine_fragments(lst):
    """(key, length) per hop fragment, read from the live chain."""
    position = {id(node): i for i, node in enumerate(lst.nodes())}
    walk = oracles.fragment_heads(lst.head)
    out = []
    for here, after in zip(walk, walk[1:] + [None]):
        end = position[id(after)] if after is not None else len(position)
        out.append((here.key, end - position[id(here)]))
    return out


@given(key_lists)
def test_round_trip(keys):
    assert to_keys(from_keys(keys)) == keys


@given(key_lists)
def test_both_engines_match_the_reference_sort(keys):
    expected = sorted(keys)
    for engine in MergeEngine:
        out, _ = sort_with_stats(keys, engine)
        assert out == expected


@given(wide_lists)
def test_sort_is_stable_and_complete(keys):
    for engine in MergeEngine:
        lst, _ = mergesort(from_keys(keys), engine)
        assert check_sorted_stable(lst, keys)


@given(key_lists)
def test_hop_structure_survives_the_full_audit(keys):
    for engine in MergeEngine:
        lst, _ = mergesort(from_keys(keys), engine)
        assert check_hop_valid(lst)
        # the walk touches at least one node per distinct key, at most all
        assert len(set(keys)) <= len(oracles.fragment_heads(lst.head)) <= len(keys)
    # the hop driver hands back coalesced regions: one walk visit per key
    lst, _ = mergesort(from_keys(keys), MergeEngine.HOP)
    assert len(oracles.fragment_heads(lst.head)) == len(set(keys))


@given(key_lists)
def test_comparison_counts_match_the_array_oracles(keys):
    _, base = sort_with_stats(keys, MergeEngine.BASELINE)
    _, hop = sort_with_stats(keys, MergeEngine.HOP)
    assert base.comparisons == oracles.baseline_sort_count(keys)[1]
    assert hop.comparisons == oracles.hop_sort_frags(keys)[1]


# a merge adds its tally to whatever the counter already holds
PRELOAD = 1000


@given(merge_sides, merge_sides)
def test_merge_baseline_matches_the_array_oracle(left, right):
    # drive one baseline merge directly on two sorted chains; right-side
    # origins follow the left ones, so (key, origin) pairs compare exactly as
    # keys do with ties going left, and the oracle yields the stable order
    xs = [(key, i) for i, key in enumerate(sorted(left))]
    ys = [(key, len(left) + i) for i, key in enumerate(sorted(right))]
    b = from_keys([key for key, _ in ys])
    for node, (_, origin) in zip(b.nodes(), ys):
        node.origin = origin
    counter = ComparisonCounter()
    counter.invocations = PRELOAD
    head = merge_baseline(from_keys([key for key, _ in xs]).head, b.head, counter)
    expected, cost = oracles.count_merge_arrays(xs, ys)
    merged = SortList(head)
    assert [(node.key, node.origin) for node in merged.nodes()] == expected
    assert counter.invocations == PRELOAD + cost


@given(merge_sides, merge_sides)
def test_merge_hop_matches_the_fragment_oracle(left, right):
    # drive one hop merge directly (no driver, no regrouping) on two
    # coalesced sorted chains; fragment layout and cost must match the
    # array-level simulation exactly
    a, _ = mergesort(from_keys(left), MergeEngine.HOP)
    b, _ = mergesort(from_keys(right), MergeEngine.HOP)
    counter = ComparisonCounter()
    counter.invocations = PRELOAD
    merged = SortList(merge_hop(a.head, b.head, counter))
    expected, cost = oracles.hop_merge_frags(
        oracles.maximal_segments(sorted(left)),
        oracles.maximal_segments(sorted(right)),
    )
    assert engine_fragments(merged) == expected
    assert counter.invocations == PRELOAD + cost
    # only a head-selection tie marks, and it marks the right operand's head
    if min(left) == min(right):
        assert counter.ties == {b.head}
    else:
        assert counter.ties == set()


@given(key_lists)
def test_hop_never_inspects_more_pairs_than_baseline(keys):
    _, base = sort_with_stats(keys, MergeEngine.BASELINE)
    _, hop = sort_with_stats(keys, MergeEngine.HOP)
    assert hop.comparisons <= base.comparisons


DOMINANCE_KS = (1, 2, 3, 5, 16, 64, 1000)


def test_hop_never_inspects_more_pairs_than_baseline_merge_by_merge(monkeypatch):
    # both engines run the same carry schedule, so the i-th merge of a sort
    # joins the same input positions under either: on the same keys, hop
    # must inspect no more pairs than baseline on every merge, not just in sum
    inspections = {merge_baseline: [], merge_hop: []}

    def recorder(real):
        calls = inspections[real]

        def merge(a, b, counter):
            before = counter.invocations
            head = real(a, b, counter)
            calls.append(counter.invocations - before)
            return head

        return merge

    monkeypatch.setattr(engines, "merge_baseline", recorder(merge_baseline))
    monkeypatch.setattr(engines, "merge_hop", recorder(merge_hop))
    paired = 0
    for seed in range(3003):
        rng = Rng64(seed)
        n = rng.next() % 301
        k = DOMINANCE_KS[seed % len(DOMINANCE_KS)]
        keys = [key % k for key in rng.take(n)]
        for calls in inspections.values():
            calls.clear()
        for engine in MergeEngine:
            sort_with_stats(keys, engine)
        base, hop = inspections[merge_baseline], inspections[merge_hop]
        assert len(base) == len(hop) == max(n - 1, 0), seed
        worse = [i for i, (h, b) in enumerate(zip(hop, base)) if h > b]
        assert not worse, (seed, n, k, worse[0])
        paired += len(base)
    assert paired == 446_402


@given(st.lists(st.integers(min_value=0, max_value=200), max_size=150))
def test_engines_agree_exactly_on_distinct_inputs(keys):
    # with no duplicates the hop merge never fires its equal branch, so the
    # two engines inspect the identical sequence of pairs
    distinct = list(dict.fromkeys(keys))
    _, base = sort_with_stats(distinct, MergeEngine.BASELINE)
    _, hop = sort_with_stats(distinct, MergeEngine.HOP)
    assert base.comparisons == hop.comparisons


def test_sorted_distinct_power_of_two_cost():
    # sorted all-distinct input of length 2**m costs exactly (n/2)*m
    for m in range(11):
        n = 1 << m
        for engine in MergeEngine:
            out, stats = sort_with_stats(list(range(n)), engine)
            assert out == list(range(n))
            assert stats.comparisons == (n // 2) * m, (m, engine)


MUTATIONS = ("hop", "next", "key", "origin")


@settings(max_examples=300)
@given(st.data())
def test_audits_match_the_index_oracles_on_mutated_lists(data):
    keys = data.draw(st.lists(st.integers(min_value=0, max_value=4), max_size=24))
    engine = data.draw(st.sampled_from([None, *MergeEngine]))
    lst = from_keys(keys)
    if engine is not None:
        lst, _ = mergesort(lst, engine)
    nodes = list(lst.nodes())
    index = st.integers(min_value=0, max_value=max(len(nodes) - 1, 0))
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if not nodes:
            continue
        node = nodes[data.draw(index)]
        if kind in ("hop", "next"):
            # another chain node, a node outside the chain, or nil
            target = data.draw(
                st.one_of(st.sampled_from(nodes), st.just(oracles.lone_node(node.key)), st.none())
            )
            if kind == "hop":
                node.hop = target
            else:
                node.next = target
        else:
            setattr(node, kind, data.draw(st.integers(min_value=0, max_value=4)))
    expected = oracles.hop_audit(lst.head)
    verdict = check_hop_valid(lst)
    assert (verdict.ok, verdict.reason, verdict.position) == expected
    verdict = check_sorted_stable(lst, keys)
    expected = oracles.sorted_stable_audit(lst.head, keys)
    assert (verdict.ok, verdict.reason, verdict.position) == expected


def hop_count(keys):
    return sort_with_stats(keys, MergeEngine.HOP)[1].comparisons


# the cost model is an unproven upper bound on hop's count; these tests hunt
# for an input above it
CEILING_SHAPES = {
    "random": list,
    "sorted": sorted,
    "descending": lambda keys: sorted(keys, reverse=True),
    "sawtooth": lambda keys: gen_sawtooth(len(keys), len(set(keys))),
}


@st.composite
def ceiling_inputs(draw):
    # n and k drawn first, so long lists and k = 1 (where the ceiling is
    # nearly tight) turn up as often as short ones; the keys come from a
    # drawn seed, which is far cheaper to draw than n separate values
    n = draw(st.integers(min_value=1, max_value=300))
    k = draw(st.integers(min_value=1, max_value=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return [rng.randrange(k) for _ in range(n)]


@settings(max_examples=300)
@given(ceiling_inputs(), st.sampled_from(list(CEILING_SHAPES)))
def test_hop_count_stays_under_the_cost_model_ceiling(keys, shape):
    keys = CEILING_SHAPES[shape](keys)
    assert hop_count(keys) <= predicted_cost(len(keys), len(set(keys)))


@pytest.mark.parametrize("n, k", [(64, 2), (64, 4), (256, 3)])
def test_swap_hill_climb_finds_no_input_above_the_ceiling(n, k):
    # climb towards hop's most expensive arrangement of a fixed multiset,
    # keeping swaps that do not lower the count; every input it tries must
    # stay at or under the ceiling
    rng = random.Random(n * k)
    keys = [i % k for i in range(n)]
    rng.shuffle(keys)
    limit = predicted_cost(n, k)
    best = hop_count(keys)
    for _ in range(2000):
        i, j = rng.randrange(n), rng.randrange(n)
        keys[i], keys[j] = keys[j], keys[i]
        cost = hop_count(keys)
        assert cost <= limit, keys
        if cost >= best:
            best = cost
        else:
            keys[i], keys[j] = keys[j], keys[i]


# hop's largest count on any input of length n with k distinct keys, k = 1..n
SMALL_N_WORST = {
    1: [0],
    2: [1, 1],
    3: [3, 3, 3],
    4: [4, 5, 5, 5],
    5: [6, 9, 9, 9, 9],
    6: [8, 10, 11, 11, 11, 11],
}


def test_exhaustive_small_n_search_stays_under_every_ceiling():
    # every input of length n up to an order-preserving relabelling: each
    # surjection onto 0..k-1, 1 + 3 + 13 + 75 + 541 + 4683 inputs in all
    inputs = 0
    for n, worst_by_k in SMALL_N_WORST.items():
        # every merge of runs x and y inspects at most x + y - 1 pairs:
        # 0, 1, 3, 5, 9 and 11 for n = 1..6
        schedule_worst = sum(x + y - 1 for x, y in oracles.merge_schedule(n))
        worst = [0] * n
        for labels in itertools.product(range(n), repeat=n):
            k = max(labels) + 1
            if len(set(labels)) != k:
                continue
            inputs += 1
            keys = list(labels)
            hop = hop_count(keys)
            assert hop <= sort_with_stats(keys, MergeEngine.BASELINE)[1].comparisons, keys
            assert hop <= predicted_cost(n, k), keys
            assert hop <= schedule_worst, keys
            worst[k - 1] = max(worst[k - 1], hop)
        assert worst == worst_by_k, n
    assert inputs == 5316
