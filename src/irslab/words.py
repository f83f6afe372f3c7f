"""Reduced words over a free group of rank r.

A letter is a nonzero int: +i stands for the i-th generator s_i, -i for its
inverse. A word is a tuple of letters stored in reduced form (no adjacent
letter/inverse pair). The empty tuple is the identity.

Shortlex order sorts first by length, then letterwise with
s_1 < s_1^-1 < s_2 < s_2^-1 < ...
"""

from __future__ import annotations

from math import log
from typing import Iterable, Iterator

from .errors import DomainError
from .lines import number, quote

Word = tuple  # tuple of nonzero ints


def reduce_word(letters: Iterable[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse_word(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


def letter_key(l: int) -> tuple[int, int]:
    return (abs(l), 0 if l > 0 else 1)


def shortlex_key(w: Word):
    return (len(w), tuple(letter_key(l) for l in w))


def letters_ordered(rank: int) -> list[int]:
    """All 2r letters in shortlex letter order: s1, s1^-1, s2, s2^-1, ..."""
    return [l for i in range(1, rank + 1) for l in (i, -i)]


def shortlex_walk(rank: int, n: int) -> Iterator[Word]:
    """The reduced words of length <= n in shortlex order, identity first,
    one at a time: the words of each length extend those of the length
    below, walked again, so the walk holds one word per length, and it
    builds `letters_ordered(rank)` only after the identity."""
    yield ()
    if n > 0:
        letters = letters_ordered(rank)

        def layer(k: int) -> Iterator[Word]:
            for w in layer(k - 1) if k > 1 else [()]:
                back = -w[-1] if w else 0
                for l in letters:
                    if l != back:
                        yield w + (l,)

        for k in range(1, n + 1):
            yield from layer(k)


def word_count(rank: int, n: int, bound: int) -> int | None:
    """The number of reduced words of length <= n, 2n + 1 at rank 1 and
    1 + 2r((2r - 1)^n - 1)/(2r - 2) above, or None past `bound`, found
    without a power (2r - 1)^n much past `bound`."""
    if rank > 1 and n > 1 + log(bound + 1, 2 * rank - 1):
        return None
    count = 2 * n + 1 if rank == 1 else \
        1 + 2 * rank * ((2 * rank - 1) ** n - 1) // (2 * rank - 2)
    return count if count <= bound else None


def words_upto(rank: int, n: int) -> list[Word]:
    """All reduced words of length <= n, in shortlex order (identity first)."""
    return list(shortlex_walk(rank, n))


def shortlex_word(rank: int, k: int) -> Word:
    """The reduced word at position k >= 0 of the shortlex order, that is
    `words_upto(rank, n)[k]` for any n that reaches it, found without
    listing the words before it: past its first letter, each letter is one
    digit in base 2r - 1 over `letters_ordered(rank)` less the inverse of
    the letter before."""
    letters = letters_ordered(rank)
    length, size = 0, 1  # size: the number of words of this length
    while k >= size:
        k -= size
        length += 1
        size = 2 * rank * (2 * rank - 1) ** (length - 1)
    digits = []
    for _ in range(length - 1):
        k, d = divmod(k, 2 * rank - 1)
        digits.append(d)
    at = [k] if length else []  # positions j in letters: j ^ 1 is the inverse
    for d in reversed(digits):
        at.append(d + (d >= at[-1] ^ 1))
    return tuple(letters[j] for j in at)


class _LetterNames(dict):
    """Letter -> its name, s<i> or s<i>^-1, filled on first use."""

    def __missing__(self, l: int) -> str:
        name = self[l] = f"s{l}" if l > 0 else f"s{-l}^-1"
        return name


_letter_name = _LetterNames().__getitem__


def word_to_str(w: Word) -> str:
    if not w:
        return "e"
    return "*".join(map(_letter_name, w))


def word_from_str(text: str, rank: int | None = None) -> Word:
    text = text.strip()
    if text in ("e", ""):
        return ()
    letters = []
    for part in text.split("*"):
        part = part.strip()
        neg = part.endswith("^-1")
        if neg:
            part = part[:-3]
        if not part.startswith("s") or not part[1:].isdecimal():
            raise DomainError(f"cannot parse word letter {quote(part)}")
        i = number(part[1:], "generator index", int, 1,
                   None if rank is None else rank + 1)
        letters.append(-i if neg else i)
    return reduce_word(letters)


def phi_word(w: Word) -> Word:
    """The injective endomorphism doubling the first generator:
    s1 -> s1^2, s_i -> s_i for i >= 2. Preserves reducedness."""
    out: list[int] = []
    for l in w:
        if abs(l) == 1:
            out.append(l)
            out.append(l)
        else:
            out.append(l)
    return tuple(out)
