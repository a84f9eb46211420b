import itertools
import random

import pytest

from assgp import nbhd
from assgp import words as wd
from assgp.poset import DescAD, DescC, DescE

from oracle import explicit_system


def naive_reduce(letters):
    """Stack reduction over explicit letters; the test oracle for reduce."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def naive_mul(a_letters, b_letters):
    return naive_reduce(list(a_letters) + list(b_letters))


def rand_word(rng: random.Random, ids, max_len: int) -> wd.Word:
    """Random reduced word over the given generator ids."""
    ids = list(ids)
    n = rng.randint(0, max_len)
    out = []
    for _ in range(n):
        choices = [s * (g + 1) for g in ids for s in (1, -1)]
        if out:
            choices = [l for l in choices if l != -out[-1]]
        out.append(rng.choice(choices))
    return wd.reduce(out)


def rand_nonempty_word(rng, ids, max_len):
    while True:
        w = rand_word(rng, ids, max_len)
        if not w.is_identity():
            return w


@pytest.fixture
def rng():
    return random.Random(0xA55)


W = wd.parse_word


def descriptor_from_key(key: str):
    """The descriptor whose ``key()`` is ``key``, for the kinds that key
    stored certificates (C, AD and E)."""
    kind, _, rest = key.partition(":")
    if kind == "C":
        return DescC(W(rest))
    if kind == "AD":
        n, g = rest.split("|")
        return DescAD(int(n), W(g))
    if kind == "E":
        n, ids, g, h = rest.split("|")
        S = wd.IdSet.from_ids(int(t) for t in ids.split(",") if t)
        return DescE(int(n), S, W(g), W(h))
    raise ValueError(f"bad descriptor key {key!r}")


SHARED_BUDGET = nbhd.Budget(leaf_len=6, exp=1, nodes=30)


def shared_level_stack():
    """⟨y⟩-extension (y = id 24) of an explicit depth-2 system over a, b
    whose level 1 holds every reduced word of length <= 3 but a·b and its
    inverse (51 words, at least SHARED_BUDGET.nodes) and whose levels 0 and
    2 are {e}.  At SHARED_BUDGET the extension's level 1 is the base's list
    and its level 0 is built from it, so the conjugation nodes of level 0
    hold certificates made in the base."""
    letters = (1, -1, 2, -2)  # a, a^-1, b, b^-1
    words = {wd.reduce(list(t)) for n in range(4) for t in itertools.product(letters, repeat=n)}
    ab = wd.parse_word("a b")
    level1 = words - {ab, ab.inverse()}
    base = explicit_system(wd.IdSet.of(0, 1), [[wd.E], level1, [wd.E]])
    return nbhd.cyclic_alphabet_extension(base, wd.IdSet.of(24))
