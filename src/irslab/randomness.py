"""Deterministic keyed randomness.

Every random quantity in the samplers is a pure function of
(seed, namespace, key): revisiting a vertex of a lazy graph re-derives the
same value, and identical seeds give identical graphs on every platform.
Draws come from 128-bit blake2b digests over a canonical byte encoding of
the key, so nested vertex identities (tuples of ints/strings) hash stably.
"""

from __future__ import annotations

import hashlib

TWO128 = 1 << 128
MASK64 = (1 << 64) - 1


def token_bytes(obj) -> bytes:
    """Canonical, injective byte encoding of nested tuples/ints/strings."""
    if isinstance(obj, bool):  # bool is an int subclass; keep it distinct
        return b"b1" if obj else b"b0"
    if isinstance(obj, int):
        return b"i" + str(obj).encode() + b";"
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, tuple):
        return b"(" + b"".join(token_bytes(x) for x in obj) + b")"
    if obj is None:
        return b"n;"
    raise TypeError(f"cannot encode {type(obj).__name__} as a hash key")


def digest128(seed: int, namespace: str, key) -> int:
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(8, "big", signed=False))
    h.update(namespace.encode())
    h.update(b"\x00")
    h.update(token_bytes(key))
    return int.from_bytes(h.digest(), "big")


def below(seed: int, namespace: str, key, n: int) -> int:
    """Uniform-up-to-2^-128-bias integer in [0, n)."""
    return digest128(seed, namespace, key) * n // TWO128


def subseed(seed: int, namespace: str, key) -> int:
    """Derive an independent 64-bit sub-seed."""
    return digest128(seed, namespace, key) & MASK64


class KeyedRng:
    """Counter-mode stream of keyed draws, for deterministic test data."""

    def __init__(self, seed: int, namespace: str = "rng"):
        self.seed = seed
        self.namespace = namespace
        self._n = 0

    def _next(self) -> int:
        d = digest128(self.seed, self.namespace, self._n)
        self._n += 1
        return d

    def randrange(self, n: int) -> int:
        return self._next() * n // TWO128

    def permutation(self, n: int) -> tuple[int, ...]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._next() * (i + 1) // TWO128
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]
