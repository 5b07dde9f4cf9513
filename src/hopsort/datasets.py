"""Deterministic dataset generators for the benchmark harness.

All randomness flows through splitmix64, so a (kind, n, k, seed) tuple pins
down one input sequence bit-for-bit on every platform.

``Rng64.take`` draws a block of outputs at once: output i of the block sits in
128-bit lane i of one int, its low 64 bits the value and its high 64 bits room
for the product with a 64-bit constant, so each splitmix step is one int op.
"""

from __future__ import annotations

import enum
import sys
from array import array
from itertools import cycle, islice
from operator import mod

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# outputs per block of Rng64.take: 1024 lanes of 16 bytes make 16 KiB ints,
# and a bounded block keeps the temporaries from growing with the count
_LANES = 1024
_LANE_BYTES = 16


def _lanes(values: list[int]) -> int:
    """Pack ``values`` (each below 2**64) into consecutive 128-bit lanes of one int."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little") for v in values), "little")


_LANE_ONES = _lanes([1] * _LANES)
_LANE_LOW = _lanes([_MASK64] * _LANES)  # the low 64 bits of every lane
_LANE_STEPS = _lanes([(i + 1) * _GAMMA & _MASK64 for i in range(_LANES)])


def _check_ints(error: type[Exception], **values) -> None:
    """Raise ``error`` naming the first value that is not an int or is a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{name} must be an int, got {value!r}")


class Rng64:
    """splitmix64 stream: 64-bit state, 64-bit outputs, equal seeds -> equal
    streams; a seed outside 0..2**64-1 raises ValueError rather than alias,
    and one that is not an int (or is a bool) raises TypeError."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _check_ints(TypeError, seed=seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must lie in 0..2**64-1, got {seed}")
        self.state = seed

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def take(self, count: int) -> list[int]:
        """The next ``count`` outputs: equal to ``count`` calls of ``next()``,
        and ``state`` ends where those calls leave it.

        Output i depends on ``state + (i+1)*gamma`` alone, so a block of up
        to ``_LANES`` outputs runs each splitmix step lane-wise on one packed
        int, masking every lane back to 64 bits before the next shift or
        multiply.  A negative ``count`` raises ValueError, and one that is
        not an int (or is a bool) raises TypeError.
        """
        _check_ints(TypeError, count=count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out: list[int] = []
        state = self.state
        while count:
            lanes = min(count, _LANES)
            size = lanes * _LANE_BYTES
            if lanes == _LANES:
                ones, low, steps = _LANE_ONES, _LANE_LOW, _LANE_STEPS
            else:
                keep = (1 << (8 * size)) - 1
                ones, low, steps = _LANE_ONES & keep, _LANE_LOW & keep, _LANE_STEPS & keep
            z = (state * ones + steps) & low
            z = (((z ^ (z >> 30)) & low) * _MIX1) & low
            z = (((z ^ (z >> 27)) & low) * _MIX2) & low
            z ^= z >> 31  # lane i's high half takes lane i+1's low bits; unpacking drops them
            words = array("Q", z.to_bytes(size, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            out += words[0::2].tolist()
            state = (state + lanes * _GAMMA) & _MASK64
            count -= lanes
        self.state = state
        return out


class DatasetKind(enum.Enum):
    SHUFFLED = "shuffled"
    SAWTOOTH = "sawtooth"
    KDISTINCT = "kdistinct"


def generate(kind: DatasetKind, n: int, k: int, seed: int) -> list[int]:
    """The one input sequence that ``(kind, n, k, seed)`` pins down; sawtooth
    ignores ``seed`` and shuffled ``k``, which ``ExperimentConfig`` refuses.
    A ``kind`` that is not a ``DatasetKind`` member raises ValueError."""
    if kind is DatasetKind.SHUFFLED:
        return gen_shuffled(n, seed)
    if kind is DatasetKind.SAWTOOTH:
        return gen_sawtooth(n, k)
    if kind is DatasetKind.KDISTINCT:
        return gen_kdistinct(n, k, seed)
    raise ValueError(f"kind must be a DatasetKind member, got {kind!r}")


def _fisher_yates(values: list[int], rng: Rng64) -> list[int]:
    # swap i with a uniform j <= i, walking i from the top down; the modulo
    # bias of `next() % (i+1)` is negligible at 64 bits and kept for
    # reproducibility of the streams
    n = len(values)
    js = map(mod, rng.take(max(n - 1, 0)), range(n, 1, -1))
    for i, j in zip(range(n - 1, 0, -1), js):
        values[i], values[j] = values[j], values[i]
    return values


def gen_sawtooth(n: int, k: int) -> list[int]:
    """``i mod k`` ramps: deterministic, seedless, exactly min(n, k) distinct keys."""
    _check_ints(TypeError, n=n, k=k)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return list(islice(cycle(range(k)), n))


def gen_shuffled(n: int, seed: int) -> list[int]:
    """Uniform permutation of 0..n-1 (all keys distinct)."""
    _check_ints(TypeError, n=n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _fisher_yates(list(range(n)), Rng64(seed))


def gen_kdistinct(n: int, k: int, seed: int) -> list[int]:
    """Shuffled sawtooth: same multiset as gen_sawtooth(n, k), random order."""
    return _fisher_yates(gen_sawtooth(n, k), Rng64(seed))
