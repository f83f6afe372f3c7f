"""Keyed draws: pinned values for each key shape the samplers use, the key
encoder against the recursive reference in helpers, the prefixed hashers
of `Keyed` against the plain digest, and the cut tables at their edges."""

import enum
import hashlib
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irslab.laws import trivial_law
from irslab.normalizer import SLOT_CUTS
from irslab.poulsen import PercolationGraph, retention_cutoff
from irslab.randomness import Keyed, TWO128, digest128, subseed, token_bytes

from helpers import outcome, token_bytes as reference_token_bytes

SEED = 2024

# name -> (namespace, key, digest128, subseed, root slot)
PINNED = {
    "int": ("sample", 7,
            0xe4e42778f4a1317c528ded9e5523d121, 5948671947115319585, 2),
    "str": ("mark", "s1*s2^-1",
            0x42dc5db87b0bc52f016fb2991b8f1926, 103497687114914086, 0),
    "normalizer vertex": ("perc", ("t", (1, -2), 2),
                          0xf1215eb7d1dce85e76e9d310a59634d1,
                          8568611834500101329, 2),
    "poulsen vertex": ("perc", ((("b", (1,)),), ("b", (1, -2))),
                       0xbf6b5a362747fc2031bab2491735f780,
                       3583372480518420352, 2),
    # the shapes of stream version 2: a Cayley vertex is a numeral (46 is
    # s1^-1*s2*s1^-1), so marks and bits are keyed by ints and int tuples
    "cayley numeral": ("mark", 46,
                       0x85be27af43e6a70cb3858a2ae923e03c,
                       12935897421596319804, 1),
    "normalizer vertex over numerals": ("perc", ("t", 46, 2),
                                        0xade7e6c718d643a73e785e0ce52a7a8a,
                                        4501451237034195594, 2),
    "poulsen vertex over numerals": ("perc", ((("b", 1),), ("b", 46)),
                                     0xa427e756e205f9f3d23d81d7a864bfa9,
                                     15149407484787343273, 1),
}


def reference_digest128(seed: int, namespace: str, key) -> int:
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(8, "big", signed=False))
    h.update(namespace.encode())
    h.update(b"\x00")
    h.update(reference_token_bytes(key))
    return int.from_bytes(h.digest(), "big")


def drawn(keyed: Keyed, expected: tuple):
    """The draw of `keyed` at a key read through `choose`: its outcome
    equals `expected`, the outcome of a plain digest, exactly when the two
    digests agree, since `choose` over the cuts (d, d + 1) gives 1 only at
    the digest d."""
    d = expected[0] or 0
    return lambda k: d if keyed.choose(k, (d, d + 1)) == 1 else -1


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_draws(name):
    namespace, key, digest, sub, slot = PINNED[name]
    assert digest128(SEED, namespace, key) == digest
    assert Keyed(SEED, namespace).choose(key, (digest, digest + 1)) == 1
    assert subseed(SEED, namespace, key) == sub
    assert Keyed(SEED, namespace).choose(key, SLOT_CUTS) == slot == \
        3 * digest >> 128
    assert reference_digest128(SEED, namespace, key) == digest


class _Slot(enum.IntEnum):
    MIDDLE = 1


class _Kind(str, enum.Enum):
    BASE = "b"


_Vertex = namedtuple("_Vertex", "kind coset")

_text = st.text(st.characters(exclude_categories=()), max_size=8) | \
    st.sampled_from(["\ud800", "a\udfffb", "é\udc80", "s1*s2^-1", "€ß"])
_leaves = st.integers() | _text
# a key's type alone decides that it raises, so one strategy of fixed
# values keeps most generated leaves inside the domain
_unsupported = st.sampled_from([None, True, False, 1.5, -0.0, b"", b"\x01",
                                _Slot.MIDDLE, _Kind.BASE,
                                _Vertex("b", (1, -2))])
_keys = st.recursive(
    _leaves | _unsupported,
    lambda kids: st.lists(kids, max_size=4).map(tuple)
    | st.lists(kids, max_size=2),
    max_leaves=12,
)


@given(_keys)
def test_token_bytes_matches_reference(key):
    expected = outcome(reference_token_bytes, key)
    assert outcome(token_bytes, key) == expected
    digest = outcome(lambda k: digest128(SEED, "perc", k), key)
    if expected[1] is None:
        assert digest == (reference_digest128(SEED, "perc", key), None)
    else:
        assert digest == (None, expected[1])


@pytest.mark.parametrize("first, second", [
    ((True,), (1,)),
    ((1,), (True,)),
    (("b", (False,)), ("b", (0,))),
    (("b", (0,)), ("b", (False,))),
    (True, 1),
    (0, False),
], ids=["bool-then-int", "int-then-bool", "nested-bool-then-int",
        "nested-int-then-bool", "bare-bool-then-int", "bare-int-then-bool"])
def test_equal_keys_of_other_types_draw_apart(first, second):
    """Equal keys never share a draw: the int key draws as the reference
    does, and the bool key raises TypeError."""
    def draw(k):
        return digest128(SEED, "perc", k)

    def reference(k):
        return reference_digest128(SEED, "perc", k)

    assert first == second
    for key in (first, second, first, second):
        assert outcome(draw, key) == outcome(reference, key)
    assert {outcome(draw, first)[1], outcome(draw, second)[1]} == \
        {None, TypeError}


@pytest.mark.parametrize("bad, good", [
    (1.0, 1), ([1], (1,)), ((1.0,), (1,)), (True, 1), (None, 0),
    (_Slot.MIDDLE, 1), (_Kind.BASE, "b"),
    (_Vertex("b", (1, -2)), ("b", (1, -2))),
], ids=["float", "list", "tuple-of-float", "bool", "none", "int-enum",
        "str-enum", "namedtuple"])
def test_unsupported_key_raises_after_like_key_drawn(bad, good):
    """A key is an exact int, an exact str or an exact tuple of keys; any
    other key, a subclass of those among them, raises TypeError from every
    entry point, also after an equal-looking key was drawn."""
    keyed = Keyed(SEED, "mark")
    d = digest128(SEED, "mark", good)
    assert keyed.choose(good, (d, d + 1)) == 1
    for draw in (lambda k: digest128(SEED, "mark", k),
                 lambda k: keyed.choose(k, SLOT_CUTS), token_bytes, keyed.under,
                 lambda k: Keyed(SEED, "perc").under(1).choose(k, SLOT_CUTS)):
        with pytest.raises(TypeError):
            draw(bad)


@pytest.mark.parametrize("key", [
    _Slot.MIDDLE, _Kind.BASE, ("t", (1,), _Slot.MIDDLE),
    _Vertex(_Kind.BASE, (1, -2)), (_Vertex("b", ()), 1),
], ids=["int-enum", "str-enum", "int-enum-in-tuple", "namedtuple",
        "namedtuple-in-tuple"])
def test_subclass_keys_match_reference(key):
    """Subclass keys, also inside tuples, are outside the domain of the
    reference encoder too."""
    assert outcome(token_bytes, key) == outcome(reference_token_bytes, key) \
        == (None, TypeError)
    assert outcome(reference_digest128, SEED, "perc", key) == (None, TypeError)


_seeds = st.integers(0, 2**64 - 1)
_namespaces = st.sampled_from(["mark", "perc", "law", "", "ñamespace"])


@given(_seeds, _namespaces, _keys)
def test_keyed_digest_equals_digest128(seed, namespace, key):
    keyed = Keyed(seed, namespace)
    expected = outcome(lambda k: reference_digest128(seed, namespace, k), key)
    assert outcome(drawn(keyed, expected), key) == expected
    assert outcome(lambda k: digest128(seed, namespace, k), key) == expected
    assert outcome(drawn(keyed, expected), key) == expected  # reusable


@given(_seeds, _namespaces, _keys, _keys, _keys)
def test_keyed_under_head_draws_the_pair(seed, namespace, head, inner, key):
    keyed = Keyed(seed, namespace)
    pair = outcome(lambda k: reference_digest128(seed, namespace, (head, k)), key)
    nested = outcome(
        lambda k: reference_digest128(seed, namespace, (head, (inner, k))), key)
    assert outcome(lambda k: drawn(keyed.under(head), pair)(k), key) == pair
    assert outcome(lambda k: drawn(keyed.under(head).under(inner), nested)(k),
                   key) == nested


@pytest.mark.parametrize("cut", SLOT_CUTS)
def test_slot_cuts_give_the_floor_of_three_draws(cut):
    for d in (0, cut - 1, cut, TWO128 - 1):
        assert bisect_right(SLOT_CUTS, d) == (3 * d) >> 128


@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)])
def test_percolation_cuts_retain_exactly_below_the_cutoff(p):
    cuts = PercolationGraph(trivial_law(2), p, 0)._cuts  # draws nothing
    cutoff = retention_cutoff(p)
    assert cuts[-1] == TWO128
    for d in (0, cutoff - 1, cutoff, TWO128 - 1):
        assert (bisect_right(cuts, d) == 0) == (d < cutoff)
