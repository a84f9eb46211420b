"""Test oracles: a root system whose finite levels are written out by hand,
so a test can state a level's members exactly, and the extension check that
scans every level."""

from typing import Iterable

from assgp.nbhd import DEFAULT_BUDGET, Budget, Leaf, MembershipAnswer, NbhdError, Nsys, ZeroDepth
from assgp.poset import Condition, ExtensionReport
from assgp.words import E, IdSet, Word, supported_in, word_key

_NO_EXPLICIT = MembershipAnswer("no", None, "not in the explicit level set")


class ExplicitNsys(Nsys):
    """Hand-written finite levels; the constructor checks that every level
    holds e and that their words use only the alphabet's letters, as every
    layer's levels do, and none of the other level-system conditions.  Its
    leaves have the origin "explicit", which ``Nsys._vouched`` accepts as
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
