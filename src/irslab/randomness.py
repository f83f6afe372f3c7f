"""Deterministic keyed randomness.

Every random quantity in the samplers is a pure function of
(seed, namespace, key): revisiting a vertex of a lazy graph re-derives the
same value, and identical seeds give identical graphs on every platform.
Draws come from 128-bit blake2b digests over a canonical byte encoding of
the key, so nested vertex identities (tuples of ints/strings) hash stably.

Because a draw depends on nothing else, the samplers skip draws whose value
they would never read, and each sample layer hashes the prefix of its draws
once: a `Keyed` hasher is fed (seed, namespace), or also a Poulsen copy
path, and each draw copies it. Neither changes any draw or the stream.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b

# The version of the map from (seed, key) to draws and of the keys the
# samplers draw at. A change to either bumps it and the pinned goldens.
# 2: a Cayley vertex is its numeral, and marks are keyed by the vertex.
STREAM_VERSION = 2

TWO128 = 1 << 128
MASK64 = (1 << 64) - 1
_EMPTY = blake2b(digest_size=16)  # copied, not built, for each new hasher


def _text(obj) -> str:
    """The encoding as text: one UTF-8 encode of it gives the bytes. A key
    is an exact int, an exact str or an exact tuple of keys; anything else,
    subclasses among them, raises TypeError. A string's length prefix
    counts its UTF-8 bytes."""
    t = type(obj)
    if t is int:
        return f"i{obj};"
    if t is tuple:
        parts = []
        for x in obj:
            tx = type(x)
            if tx is int:
                parts.append(f"i{x};")
            elif tx is str and x.isascii():
                parts.append(f"s{len(x)}:{x}")
            else:
                parts.append(_text(x))
        return "(" + "".join(parts) + ")"
    if t is str:
        return f"s{len(obj) if obj.isascii() else len(obj.encode())}:{obj}"
    raise TypeError(f"cannot encode {t.__name__} as a hash key")


def token_bytes(obj) -> bytes:
    """Canonical, injective byte encoding of an int, a str or a tuple of
    keys."""
    return _text(obj).encode()


def digest128(seed: int, namespace: str, key) -> int:
    h = _EMPTY.copy()
    h.update(seed.to_bytes(8, "big") + namespace.encode() + b"\x00" + _text(key).encode())
    return int.from_bytes(h.digest(), "big")


class Keyed:
    """The draws of one (seed, namespace), the prefix hashed once: `choose(key,
    cuts)` is `bisect_right(cuts, digest128(seed, ns, key))`."""

    def __init__(self, seed: int, namespace: str):
        self._hasher = _EMPTY.copy()
        self._hasher.update(seed.to_bytes(8, "big") + namespace.encode() + b"\x00")
        self._close = ""

    def choose(self, key, cuts) -> int:
        """The outcome at key: the number of cuts at or below its digest."""
        h = self._hasher.copy()
        h.update((_text(key) + self._close).encode())
        return bisect_right(cuts, int.from_bytes(h.digest(), "big"))

    def under(self, head) -> "Keyed":
        """The draws of the pairs (head, key) at key, the head hashed once."""
        sub = object.__new__(Keyed)
        sub._hasher, sub._close = self._hasher.copy(), ")" + self._close
        sub._hasher.update(b"(" + token_bytes(head))
        return sub


def subseed(seed: int, namespace: str, key) -> int:
    """Derive an independent 64-bit sub-seed."""
    return digest128(seed, namespace, key) & MASK64


class KeyedRng:
    """Counter-mode stream of keyed draws, for deterministic test data."""

    def __init__(self, seed: int, namespace: str = "rng"):
        self._seed, self._namespace = seed, namespace
        self._n = 0

    def _next(self) -> int:
        self._n += 1
        return digest128(self._seed, self._namespace, self._n - 1)

    def randrange(self, n: int) -> int:
        return self._next() * n // TWO128

    def permutation(self, n: int) -> tuple[int, ...]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._next() * (i + 1) // TWO128
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)
