"""Reduced words over a free group of rank r.

A letter is a nonzero int: +i stands for the i-th generator s_i, -i for its
inverse. A word is a tuple of letters stored in reduced form (no adjacent
letter/inverse pair). The empty tuple is the identity.

Shortlex order sorts first by length, then letterwise with
s_1 < s_1^-1 < s_2 < s_2^-1 < ...
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .errors import DomainError

Word = tuple  # tuple of nonzero ints


def check_letter(letter: int, rank: int | None = None) -> None:
    if not isinstance(letter, int) or letter == 0:
        raise DomainError(f"bad letter {letter!r}")
    if rank is not None and abs(letter) > rank:
        raise DomainError(f"letter {letter} out of range for rank {rank}")


def reduce_word(letters: Iterable[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def concat(*words: Word) -> Word:
    return reduce_word(chain.from_iterable(words))


def inverse_word(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


def conjugated_word(g: Word, w: Word) -> Word:
    """g w g^-1, reduced."""
    return concat(g, w, inverse_word(g))


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


def words_upto(rank: int, n: int) -> list[Word]:
    """All reduced words of length <= n, in shortlex order (identity first)."""
    return list(shortlex_walk(rank, n))


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
            raise DomainError(f"cannot parse word letter {part!r}")
        i = int(part[1:])
        if i == 0:
            raise DomainError("generator index must be >= 1")
        check_letter(i, rank)
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


def phi_inverse_word(w: Word) -> Word | None:
    """Partial inverse of phi_word; None when w has an odd run of s1-letters
    (i.e. w is not in the subgroup generated by s1^2, s2, ..., s_r)."""
    out: list[int] = []
    i = 0
    while i < len(w):
        l = w[i]
        if abs(l) == 1:
            j = i
            while j < len(w) and w[j] == l:
                j += 1
            run = j - i
            if run % 2 != 0:
                return None
            out.extend([l] * (run // 2))
            i = j
        else:
            out.append(l)
            i += 1
    return tuple(out)
