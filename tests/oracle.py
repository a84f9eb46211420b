"""Test oracles: a root system whose finite levels are written out by hand,
so a test can state a level's members exactly, the extension check that
scans every level, the walk that tests every layer's adjoined set, a
word's support read off its spelled-out letters, and a certificate's
factor sequence read off its expansion as a tree."""

import functools
import itertools
from typing import Iterable

from assgp.nbhd import (
    DEFAULT_BUDGET,
    BaseSet,
    Budget,
    Conj,
    EnrichedNsys,
    Leaf,
    MembershipAnswer,
    NbhdError,
    Nsys,
    ZeroDepth,
)
from assgp.poset import Condition, ExtensionReport
from assgp.words import (
    E,
    IdSet,
    Word,
    cyclic_exponent,
    cyclic_parts,
    flatten_letters,
    gen_of,
    supported_in,
    word_key,
)

_NO_EXPLICIT = MembershipAnswer("no", None, "not in the explicit level set")


class ExplicitNsys(Nsys):
    """Hand-written finite levels; the constructor checks that every level
    holds e and that their words use only the alphabet's letters, as every
    layer's levels do, and none of the other level-system conditions.  Its
    leaves have the origin "explicit", which ``Nsys._check_leaf`` accepts as
    the root's own."""

    origin = "explicit"

    def __init__(self, alphabet: IdSet, levels: Iterable[Iterable[Word]]):
        levels = tuple(frozenset(level) for level in levels)
        if len(levels) < 2:
            raise ZeroDepth("need at least levels 0 and 1")
        if not all(E in level for level in levels):
            raise NbhdError("explicit level lacks e")
        if not all(supported_in(w, alphabet) for level in levels for w in level):
            raise NbhdError("explicit level uses letters outside the alphabet")
        super().__init__(alphabet, len(levels) - 1)
        self.levels = levels

    def _own_answer(self, i, w, ctx):
        if w in self.levels[i]:
            return MembershipAnswer("yes", Leaf(i, w, "explicit"))
        return _NO_EXPLICIT

    def _own_list(self, i, below, budget):
        return [(w, Leaf(i, w, "explicit")) for w in sorted(self.levels[i], key=word_key)]


def explicit_system(alphabet: IdSet, levels: Iterable[Iterable[Word]]) -> ExplicitNsys:
    return ExplicitNsys(alphabet, levels)


def reference_extension_report(
    q: Condition, p: Condition, budget: Budget = DEFAULT_BUDGET
) -> ExtensionReport:
    """The reference for ``is_extension``: the restriction scan over every
    level 0..p.depth, skipping a level only where q's list is p's list
    object, which then adds its size to ``checked``."""
    q.system.ancestors(p.system)  # raises unless q is stacked on p
    rpt = ExtensionReport(budget_key=budget.key(), pair=(q, p))
    p_alphabet = p.alphabet
    for i in range(p.depth + 1):
        q_level = q.system.enumerate(i, budget)
        p_level = p.system.enumerate(i, budget)
        if q_level is p_level:
            rpt.checked += len(p_level)
            continue
        p_words = {w for w, _ in p_level}
        for w, _ in q_level:
            if not supported_in(w, p_alphabet):
                continue
            rpt.checked += 1
            if w in p_words:
                continue
            ans = p.system.member(i, w, budget)
            if ans.is_no:
                rpt.violations.append((i, str(w), "restriction gains a foreign word"))
            elif not ans.is_yes:
                rpt.unknowns += 1
    return rpt


_parts = functools.cache(cyclic_parts)  # each generator decomposed once per session


def reference_adjoins(extra: BaseSet, w: Word) -> bool:
    """The scan of one adjoined set: w is one of its finite words, or e
    beside a cyclic generator, or a power of a cyclic generator."""
    if w in extra.finite or (w.is_identity() and extra.cyclic):
        return True
    return any(cyclic_exponent(w, _parts(c)) is not None for c in extra.cyclic)


def reference_adjoined(system: Nsys, w: Word) -> list[tuple["Leaf | None", bool]]:
    """The reference for ``Nsys.adjoined_rep`` and for the ``extra`` leaves
    that ``Nsys.verify_rep`` accepts, at every level i of ``system``: the
    walk down the layers whose depth is at least i, testing every layer's
    adjoined set in turn (each set tested once for all levels).  At level
    i, the leaf of the first layer that holds w, or None; and whether a
    layer at exactly depth i holds it."""
    layers = [
        (layer.depth, isinstance(layer, EnrichedNsys) and reference_adjoins(layer.extra, w))
        for layer in system.ancestors()
    ]
    out = []
    for i in range(system.depth + 1):
        walk = list(itertools.takewhile(lambda layer: layer[0] >= i, layers))
        depth = next((d for d, held in walk if held), None)
        rep = None if depth is None else Leaf(depth, w, "extra")
        out.append((rep, any(held and d == i for d, held in walk)))
    return out


def reference_letters(w: Word) -> IdSet:
    """The reference for ``letters``: the id of every letter of w, spelled out."""
    return IdSet.from_ids(gen_of(l) for l in flatten_letters(w))


def flatten_factors(rep) -> list[Word]:
    """The reference for the certificate computations: the factor sequence
    a_1..a_m whose product rep certifies, read off rep expanded as a tree
    (a node shared by k parents is read k times), on an explicit stack, so
    a certificate of any depth flattens."""
    out, todo = [], [rep]
    while todo:
        node = todo.pop()
        if isinstance(node, Conj):
            out.append(node.x)
            todo += (node.x.inverse(), node.right, node.left)
        else:  # a leaf, or the x⁻¹ that closes a conjugation node
            out.append(node.word if isinstance(node, Leaf) else node)
    return out
