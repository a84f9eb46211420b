"""A test oracle for the membership search: a root system whose finite levels
are written out by hand, so a test can state a level's members exactly."""

from typing import Iterable

from assgp.nbhd import Leaf, MembershipAnswer, NbhdError, Nsys, ZeroDepth
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

    def _own_answer(self, i, w, ctx, within):
        if w in self.levels[i]:
            return MembershipAnswer("yes", Leaf(i, w, "explicit"))
        return _NO_EXPLICIT

    def _enumerate(self, i, budget):
        return [(w, Leaf(i, w, "explicit")) for w in sorted(self.levels[i], key=word_key)]


def explicit_system(alphabet: IdSet, levels: Iterable[Iterable[Word]]) -> ExplicitNsys:
    return ExplicitNsys(alphabet, levels)
