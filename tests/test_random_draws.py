"""The interpreter contract behind tar1's bulk draws, checked with the standard library alone.

`embed_mvd_parity` replaces n `random()` calls by one `getrandbits(64 * n)`
call and n `getrandbits(1)` calls by one `getrandbits(32 * n)` call.  That
holds because CPython's Mersenne Twister builds every one of these from
whole 32-bit outputs: `random()` from two, a and b, as
((a >> 5) * 2**26 + (b >> 6)) / 2**53; `getrandbits(1)` as the top bit of
one; and `getrandbits(k)` from ceil(k / 32) of them, the first in the
lowest bits.  No numpy and no pytest are needed, so the file also runs as a
script under any interpreter: `python tests/test_random_draws.py`.
"""

import random

SEEDS = (0, 7, 2**70 + 3)
COUNTS = (0, 1, 33, 1001)


def _words(rng: random.Random, n: int) -> list[int]:
    """`rng`'s next n 32-bit outputs, from one `getrandbits` call."""
    bulk = rng.getrandbits(32 * n)
    return [bulk >> (32 * i) & 0xFFFFFFFF for i in range(n)]


def test_random_calls_are_word_pairs_of_one_bulk_draw():
    for seed in SEEDS:
        for n in COUNTS:
            calls, bulk = random.Random(seed), random.Random(seed)
            words = _words(bulk, 2 * n)
            derived = [((a >> 5) * 2**26 + (b >> 6)) / 2**53 for a, b in zip(words[::2], words[1::2])]
            assert [calls.random() for _ in range(n)] == derived, (seed, n)
            assert calls.getstate() == bulk.getstate(), (seed, n)


def test_one_bit_calls_are_top_bits_of_one_bulk_draw():
    for seed in SEEDS:
        for n in COUNTS:
            calls, bulk = random.Random(seed), random.Random(seed)
            derived = [word >> 31 for word in _words(bulk, n)]
            assert [calls.getrandbits(1) for _ in range(n)] == derived, (seed, n)
            assert calls.getstate() == bulk.getstate(), (seed, n)


if __name__ == "__main__":
    test_random_calls_are_word_pairs_of_one_bulk_draw()
    test_one_bit_calls_are_top_bits_of_one_bulk_draw()
    print("random draw contract holds")
