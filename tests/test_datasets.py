"""Generators: bit-exact RNG, permutations, sawtooth ramps."""

import pytest

import oracles
from hopsort import datasets
from hopsort.datasets import (
    DatasetKind,
    Rng64,
    gen_kdistinct,
    gen_sawtooth,
    gen_shuffled,
    generate,
)


def test_rng_matches_published_stream_for_seed_zero():
    rng = Rng64(0)
    assert rng.next() == 0xE220A8397B1DCDAF
    assert rng.next() == 0x6E789E6AA1B965F4
    assert rng.next() == 0x06C45D188009454F


def test_rng_agrees_with_independent_transcription():
    for seed in (0, 1, 2, 12345, 2**64 - 1):
        rng = Rng64(seed)
        assert [rng.next() for _ in range(8)] == oracles.splitmix64_stream(seed, 8)


def test_rng_refuses_a_seed_outside_64_bits():
    # masked to 64 bits, -1 and 2**64 would run the streams of 2**64-1 and 0
    seeded = (Rng64, lambda seed: gen_shuffled(8, seed), lambda seed: gen_kdistinct(8, 3, seed))
    for seed in (-1, 2**64):
        for make in seeded:
            with pytest.raises(ValueError, match=r"seed must lie in 0\.\.2\*\*64-1"):
                make(seed)
    for seed in (0, 2**64 - 1):
        assert Rng64(seed).state == seed
        assert sorted(gen_shuffled(8, seed)) == list(range(8))
        assert sorted(gen_kdistinct(8, 3, seed)) == sorted(gen_sawtooth(8, 3))


def test_sawtooth_ramps():
    assert gen_sawtooth(6, 3) == [0, 1, 2, 0, 1, 2]
    assert gen_sawtooth(4, 1024) == [0, 1, 2, 3]
    assert gen_sawtooth(0, 5) == []
    for n in (0, 1, 5, 16, 17, 4096):
        for k in (1, 2, 3, 16, 1024, 2**40):
            assert gen_sawtooth(n, k) == [i % k for i in range(n)], (n, k)


def test_sawtooth_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_sawtooth(4, 0)
    with pytest.raises(ValueError):
        gen_sawtooth(-1, 4)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        gen_shuffled(-1, 4)


def test_generators_refuse_a_value_that_is_not_an_int():
    # checked once per call: a float would otherwise come back as float keys,
    # or fail inside the first next(), and True would run as seed 1
    calls = {
        "seed": (Rng64, lambda v: gen_shuffled(4, v), lambda v: gen_kdistinct(4, 2, v)),
        "n": (lambda v: gen_sawtooth(v, 2), lambda v: gen_shuffled(v, 1)),
        "k": (lambda v: gen_sawtooth(6, v), lambda v: gen_kdistinct(6, v, 1)),
        # True would draw one output, 2.5 fail inside the lane arithmetic
        "count": (lambda v: Rng64(1).take(v),),
    }
    for name, makes in calls.items():
        for value in (2.5, 2.0, True, "2", None):
            for make in makes:
                with pytest.raises(TypeError, match=f"^{name} must be an int, got {value!r}$"):
                    make(value)


def test_generate_dispatch():
    assert generate(DatasetKind.SAWTOOTH, 6, 3, 0) == [0, 1, 2, 0, 1, 2]
    # sawtooth ignores the seed, shuffled ignores k
    assert generate(DatasetKind.SAWTOOTH, 6, 3, 9) == [0, 1, 2, 0, 1, 2]
    assert generate(DatasetKind.SHUFFLED, 16, 1, 2) == gen_shuffled(16, 2)
    assert generate(DatasetKind.SHUFFLED, 16, 1024, 2) == gen_shuffled(16, 2)
    assert generate(DatasetKind.KDISTINCT, 16, 4, 2) == gen_kdistinct(16, 4, 2)
    assert generate(DatasetKind.KDISTINCT, 16, 4, 3) == gen_kdistinct(16, 4, 3)
    # a name or None is not a kind: none of them may fall through to kdistinct
    for kind in ("shuffled", "sawtooth", None):
        with pytest.raises(ValueError, match="kind must be a DatasetKind member"):
            generate(kind, 8, 2, 1)


LANES = datasets._LANES  # outputs per block of Rng64.take


def test_take_matches_the_stream_across_block_boundaries():
    for seed in (0, 1, 7, 2**64 - 1):
        for count in (0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5):
            expected = oracles.splitmix64_stream(seed, count + 1)
            rng = Rng64(seed)
            assert rng.take(count) == expected[:count], (seed, count)
            assert rng.next() == expected[count], (seed, count)


def test_take_edge_counts():
    rng = Rng64(3)
    assert rng.take(0) == []
    assert rng.state == 3  # an empty draw leaves the stream where it was
    with pytest.raises(ValueError):
        rng.take(-1)
    assert rng.next() == oracles.splitmix64_stream(3, 1)[0]


SHUFFLE_SIZES = (0, 1, 2, 3, 1023, 1024, 1025, 1026, 5000)
SHUFFLE_SEEDS = (0, 1, 7, 2**64 - 1)


def test_shuffled_equals_the_fisher_yates_oracle():
    for n in SHUFFLE_SIZES:
        for seed in SHUFFLE_SEEDS:
            assert gen_shuffled(n, seed) == oracles.fisher_yates(list(range(n)), seed), (n, seed)


def test_kdistinct_equals_the_fisher_yates_oracle():
    # k = 1 is one key, k = 2**40 past every n a plain shuffle of 0..n-1
    for k in (1, 16, 2**40):
        for n in SHUFFLE_SIZES:
            for seed in SHUFFLE_SEEDS:
                ramps = [i % k for i in range(n)]
                assert gen_kdistinct(n, k, seed) == oracles.fisher_yates(ramps, seed), (k, n, seed)
