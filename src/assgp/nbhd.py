"""Finite neighbourhood systems as symbolic level sets.

A system of depth n assigns to each level i <= n a symmetric subset U_i of
the free group over its alphabet, subject to the closure condition
``x·U_{i+1}·U_{i+1}·x⁻¹ ⊆ U_i`` for every letter x of the alphabet (and
x = e), with ``e ∈ U_n``.  Systems here are built, never materialized:

* :func:`trivial_system` — every level is {e};
* :func:`enrich` — adjoin a symmetric base set B at the deepest level and
  close off under conjugation from the ambient alphabet;
* :func:`cyclic_alphabet_extension` / :func:`identity_extension` — the two
  enrichment shapes over a grown alphabet for which the letter-count bound
  ``Σ|lett(a_l)| ≤ |X|·4^(n-i)`` holds.

Membership in a level is certificate search.  A certificate is a derivation
tree: a leaf names the layer of the stack that holds its word (an adjoined
set B, a padded {e} level or the root) and the level L where that layer
holds it, inner nodes assert ``w = x·u·v·x⁻¹`` with u, v certified one level
deeper.  Flattening a tree yields the factor sequence a_1 · ... · a_m whose
product is the certified word; certificates re-verify against the stack by
multiplying that sequence back together, independently of the search that
found them.  Every level of a layer lies in the same level of each system
stacked on it, so a certificate made in one layer verifies unchanged in all
of them.  Every level holds e, so an enriched layer's closure with x = e
nests its levels, U_{i+1} ⊆ U_i below its depth: a leaf of level L stands
at any shallower level that the stack's highest enriched layer builds, and
a word adjoined far below the level asked for is certified by one leaf.

Verdicts are three-valued.  ``yes`` always carries a re-verifiable
certificate.  ``no`` is only returned when refutation is exact: the word
uses letters outside the alphabet, the letter-count bound excludes it, the
level is a pad's or the root's literal {e}, or the deepest level of an
enrichment holds it neither in its base level nor in the adjoined set.
Everything else is ``unknown``: bounded search and the budgeted level
lists are the one way to decide a level, and they cannot refute.

Answers whose reason is fixed are shared frozen objects, one per reason.

An answer depends only on (system, level, word, budget).  Systems keep no
verdicts between searches; a search remembers what it has decided only
until it returns (see :meth:`Nsys.member`).  What a layer does keep, per
budget, are the level lists it builds, each stored once at its builder,
the lists it was asked for, and a running total of their sizes; a level it
does not build is its base's list object (see :meth:`Nsys.enumerate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Optional
from weakref import ref

from .words import (
    E,
    CyclicParts,
    IdSet,
    Word,
    conjugate,
    cyclic_exponent,
    cyclic_parts,
    letters,
    multiply,
    parse_word,
    power,
    single,
    supported_in,
    word_key,
)

# Search-space guards (not correctness-relevant; see module docstring).  The
# search and the level builder both conjugate by e and the letters of an
# alphabet's first CONJUGATOR_ID_CAP ids; the level builder makes its products
# u·v from at most budget.nodes·UV_PAIR_FACTOR pairs, so this factor caps the
# lists the search reads too.
CONJUGATOR_ID_CAP = 64
UV_PAIR_FACTOR = 40


class NbhdError(Exception):
    pass


class ZeroDepth(NbhdError):
    pass


class AsymmetricB(NbhdError):
    pass


class OverlapAlphabet(NbhdError):
    pass


class BadLevel(NbhdError):
    pass


# ---------------------------------------------------------------------------
# Budgets and answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Caps for certificate search and level enumeration.

    leaf_len  caps explicit base words considered as leaves,
    exp       caps |q| when drawing c^q from a cyclic base component,
    nodes     caps search-tree nodes and per-level enumeration size.
    """

    leaf_len: int = 6
    exp: int = 2
    nodes: int = 120

    def __post_init__(self):
        if any(type(cap) is not int for cap in self.key()):
            raise ValueError("budget caps must be integers")
        if self.leaf_len < 1 or self.exp < 1 or self.nodes < 1:
            raise ValueError("budget caps must be positive")

    def key(self) -> tuple:
        return (self.leaf_len, self.exp, self.nodes)


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Leaf:
    level: int
    word: Word
    origin: str  # "extra" | "pad" | the root's ``origin``, "trivial" in every built stack


@dataclass(frozen=True)
class Conj:
    level: int
    x: Word  # a single letter, or e
    left: "Rep"
    right: "Rep"


Rep = "Leaf | Conj"


def flatten_factors(rep) -> list[Word]:
    """The factor sequence a_1..a_m the certificate derives, walked on an
    explicit stack, so a certificate of any depth flattens."""
    out, todo = [], [rep]
    while todo:
        node = todo.pop()
        if isinstance(node, Conj):
            out.append(node.x)
            todo += (node.x.inverse(), node.right, node.left)
        else:  # a leaf, or the x⁻¹ that closes a conjugation node
            out.append(node.word if isinstance(node, Leaf) else node)
    return out


def rep_word(rep) -> Word:
    acc = E
    for f in flatten_factors(rep):
        acc = multiply(acc, f)
    return acc


def invert_rep(rep):
    """Certificate for the inverse word; valid because levels and base sets
    are symmetric.  (x·u·v·x⁻¹)⁻¹ = x·v⁻¹·u⁻¹·x⁻¹.  Built children first on
    an explicit stack, so a certificate of any depth inverts."""
    done, todo = [], [(rep, False)]  # done: inverted subtrees, left below right
    while todo:
        node, children_done = todo.pop()
        if isinstance(node, Leaf):
            done.append(Leaf(node.level, node.word.inverse(), node.origin))
        elif children_done:
            right = done.pop()
            done.append(Conj(node.level, node.x, right, done.pop()))
        else:
            todo += ((node, True), (node.right, False), (node.left, False))
    return done[0]


@dataclass(frozen=True)
class MembershipAnswer:
    verdict: str  # "yes" | "no" | "unknown"
    rep: "Rep | None" = None
    reason: str = ""

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"


def _yes(rep) -> MembershipAnswer:
    return MembershipAnswer("yes", rep)


def _no(reason) -> MembershipAnswer:
    return MembershipAnswer("no", None, reason)


def _unknown(reason) -> MembershipAnswer:
    return MembershipAnswer("unknown", None, reason)


# The answers whose reason is fixed.  MembershipAnswer is frozen, so each is
# one shared object, handed out by every search node that gives it.
_NO_TRIVIAL = _no("trivial system: level is {e}")
_NO_PADDED = _no("padded level is {e}")
_NO_LETTERS = _no("letters outside the ambient alphabet")
_NO_BASE_OR_EXTRA = _no("neither in the base level nor the adjoined set")
_UNKNOWN_BUDGET = _unknown("search budget exhausted")
_UNKNOWN_SEARCH = _unknown("bounded search found no certificate")


# ---------------------------------------------------------------------------
# Base sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseSet:
    """A symmetric subset of the free group: finite words plus whole cyclic
    subgroups ⟨c⟩ for each listed generator word c.

    The layer that adjoins it enters its words into its run's one dict
    (:func:`_end_index`), which decides membership exactly.
    """

    finite: tuple[Word, ...] = ()
    cyclic: tuple[Word, ...] = ()

    def enumerate(self, budget: Budget) -> list[Word]:
        out: dict[Word, None] = {}
        for w in self.finite:
            if w.length <= budget.leaf_len or w in self.cyclic:
                out[w] = None
        for c in self.cyclic:
            for q in range(1, budget.exp + 1):
                out[power(c, q)] = None
                out[power(c, -q)] = None
        return sorted(out, key=word_key)

    def describe(self) -> dict:
        return {
            "finite": [str(w) for w in self.finite],
            "cyclic": [str(w) for w in self.cyclic],
        }


def make_base(finite: Iterable[Word] = (), cyclic: Iterable[Word] = ()) -> BaseSet:
    """Validated, deterministically ordered base set; must be symmetric."""
    fin, cyc = dict.fromkeys(finite), dict.fromkeys(cyclic)
    for w in fin:
        if w.inverse() not in fin:
            raise AsymmetricB(f"finite base part not symmetric: missing inverse of {w}")
    if any(c.is_identity() for c in cyc):
        raise NbhdError("cyclic base generator must be non-trivial")
    return BaseSet(tuple(sorted(fin, key=word_key)), tuple(sorted(cyc, key=word_key)))


IDENTITY_BASE = BaseSet((E,), ())


def _end_index(extra: BaseSet, below: dict) -> dict[tuple, list[Word | CyclicParts]]:
    """``below`` with ``extra`` entered under the (first, last) letters of
    each word it holds, (None, None) for e: c^k ≠ e is the reduced
    p·core^|k|·p⁻¹ of ``cyclic_parts(c)``, with p's first and p⁻¹'s last letter
    when p ≠ e, else core's ends when k > 0 and core⁻¹'s when k < 0."""
    index = {key: list(cands) for key, cands in below.items()}
    for w in extra.finite:
        index.setdefault((w.first, w.last), []).append(w)
    for c in extra.cyclic:
        p, p_inv, core, core_inv = parts = cyclic_parts(c)
        ends = [(p.first, p_inv.last)] if p.length else [(x.first, x.last) for x in (core, core_inv)]
        for key in [(None, None), *ends]:
            index.setdefault(key, []).append(parts)
    return index


def _holds(cands: list, w: Word) -> bool:
    """Does one of the words and cyclic parts a run's dict gives for w's end
    letters hold w?  ``cyclic_exponent`` decides each part exactly."""
    for c in cands:
        if (c == w) if type(c) is Word else cyclic_exponent(w, c) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def _conjugators(ids: Iterable[int]) -> list[Word]:
    """e, then x and x⁻¹ for each of the first CONJUGATOR_ID_CAP ids."""
    return [E] + [single(gid, sign) for gid in islice(ids, CONJUGATOR_ID_CAP) for sign in (1, -1)]


@lru_cache(maxsize=32)
def _conjugator_pairs(ids: tuple[int, ...]) -> tuple[tuple[Word, Word], ...]:
    """(x, x⁻¹) for each of :func:`_conjugators` of ``ids``, the first
    CONJUGATOR_ID_CAP ids of an alphabet: one table, whose conjugators the
    builds' ``Conj`` nodes share, per prefix that layers begin with (21 in
    five 45-step ``full`` builds, one per schedule rotation)."""
    return tuple((x, x.inverse()) for x in _conjugators(ids))


def _products(inner: list, pairs: int):
    """The distinct products u·v of a level list's words, made one at a
    time as they are asked for, from the first ``pairs`` pairs in rank order
    (index of u plus index of v, then u's index), each with the certificates
    of its first pair.  The level builder lists each product it is given
    (x = e), so it asks for no more than ``budget.nodes``."""
    seen: set[Word] = set()
    m = len(inner)
    for rank in range(2 * m - 1):
        for iu in range(max(0, rank - m + 1), min(rank, m - 1) + 1):
            (u, urep), (v, vrep) = inner[iu], inner[rank - iu]
            prod = multiply(u, v)
            if prod not in seen:
                seen.add(prod)
                yield prod, urep, vrep
            pairs -= 1
            if pairs <= 0:
                return


class _SearchCtx:
    """One ``member`` search: its node budget, and the verdict of each layer
    that asked its base, keyed by (layer, level, word), for that search only.
    An enriched layer answers its own depth without its base, by one helper
    (``EnrichedNsys._depth_answer``) that costs no node, so no entry is
    made for that level of that layer."""

    __slots__ = ("budget", "nodes_left", "memo")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.nodes_left = budget.nodes
        self.memo: dict = {}


class _Level:
    """A level list, a weak reference to its builder (a strong one would put
    every layer on a cycle), and what the conjugation search reads from it,
    made on first use: each word's inverse, in order, and the list's letters."""

    __slots__ = ("items", "owner", "_search")

    def __init__(self, items: list, owner: "Nsys"):
        self.items, self.owner, self._search = items, ref(owner), None

    def search(self) -> tuple[list[Word], IdSet]:
        if self._search is None:
            sup = IdSet.empty()
            for w, _ in self.items:
                sup = sup.union(letters(w))
            self._search = ([w.inverse() for w, _ in self.items], sup)
        return self._search


class Nsys:
    """Abstract finite neighbourhood system.  Immutable; compared by identity.

    A layer keeps its base (None at a root), the stack's root (its bottom
    layer), ``closed``, the depth of its builder (the highest layer that is
    not a pad) when that is an enriched layer and 0 otherwise, and only
    what its levels determine, per budget: the level lists it builds, the
    lists it was asked for, and the sums of :meth:`list_sizes`."""

    alphabet: IdSet
    depth: int
    base: "Nsys | None"

    def __init__(self, alphabet: IdSet, depth: int, base: "Nsys | None" = None):
        self.alphabet = alphabet
        self.depth = depth
        self.base = base
        self.root: Nsys = self if base is None else base.root
        # the root refers to itself, one cycle per stack; ``closed`` is a depth,
        # as the builder would make every enriched layer a cycle
        self.closed = 0
        self._lists: dict = {}  # (level, budget.key()) -> _Level
        self._sizes: dict = {}  # budget -> list_sizes

    # -- membership ---------------------------------------------------------

    def member(self, i: int, w: Word, budget: Budget = DEFAULT_BUDGET) -> MembershipAnswer:
        """Is w in level i?  One bounded search with a fresh context, so the
        answer depends only on (system, i, w, budget).  A search node is an
        enriched layer's nesting step or one conjugation candidate; handing
        a level to the base costs none, so the budget reaches a deep stack's
        lowest layers.  An enriched layer's own depth n is answered by one
        helper, a lookup of its floor and of its run's one dict of adjoined
        sets, whether a query or a search node asks it, so it costs no node
        and no walk goes down the run of enriched layers at depth n (see
        ``EnrichedNsys._depth_answer``).  An answer with a fixed reason is a
        shared frozen object: compare answers by value."""
        if not 0 <= i <= self.depth:
            raise BadLevel(f"level {i} outside 0..{self.depth}")
        return self._member(i, w, _SearchCtx(budget))

    def _member(self, i: int, w: Word, ctx: _SearchCtx) -> MembershipAnswer:
        # Walk down the layers that hand level i to their base, then answer
        # root-upwards into the memo: a deep stack does not recurse per layer.
        passed = []
        layer = self
        while (ans := ctx.memo.get((id(layer), i, w)) or layer._own_answer(i, w, ctx)) is None:
            passed.append(layer)
            layer = layer.base
        for layer in reversed(passed):
            ans = ctx.memo[(id(layer), i, w)] = layer._after_base(i, w, ans, ctx)
        return ans

    def _own_answer(self, i: int, w: Word, ctx: _SearchCtx) -> "MembershipAnswer | None":
        """The answer this layer gives without its base, or None to ask the
        base and then ``_after_base(i, w, base_answer, ctx)``."""
        raise NotImplementedError

    # -- enumeration ----------------------------------------------------------

    def enumerate(self, i: int, budget: Budget = DEFAULT_BUDGET) -> list[tuple[Word, object]]:
        """Level i's members as (word, certificate) pairs, sorted.  A level
        this layer does not build is its base's list object: a certificate
        made in the base is already one of this layer's."""
        if not 0 <= i <= self.depth:
            raise BadLevel(f"level {i} outside 0..{self.depth}")
        return self._level(i, budget).items

    def _level(self, i: int, budget: Budget) -> _Level:
        key = (i, budget.key())  # the layer asked remembers the list
        return self._lists.get(key) or self._lists.setdefault(key, self._resolve(i, budget))

    def _resolve(self, i: int, budget: Budget) -> _Level:
        # Walk down to the nearest layer that stores level i or has no base
        # level i, then back up, each layer passed keeping the list below it
        # or building its own: no recursion, and no lists for layers passed.
        passed, layer, key = [], self, (i, budget.key())
        while (found := layer._lists.get(key)) is None and layer.base and i <= layer.base.depth:
            passed.append(layer)
            layer = layer.base
        found = found or layer._over(i, None, budget)
        for layer in reversed(passed):
            found = layer._over(i, found, budget)
        return found

    def _over(self, i: int, below: "_Level | None", budget: Budget) -> _Level:
        """Level i from the base's (None if it has none): the base's if
        ``_own_list(i, below_items, budget)`` keeps it, else the list built."""
        items = self._own_list(i, below and below.items, budget)
        if below is None or items is not below.items:
            below = self._lists[(i, budget.key())] = _Level(items, self)
        return below

    def levels_kept(self, budget: Budget) -> dict[int, tuple[list, "Nsys"]]:
        """The lists this layer stores at budget, by level, each with its
        builder: those it built and those it was asked for.  After
        :meth:`list_sizes`, each list it builds is here, but a pad's {e}."""
        return {i: (lv.items, lv.owner()) for (i, b), lv in self._lists.items() if b == budget.key()}

    def list_sizes(self, budget: Budget) -> tuple[tuple[int, ...], int]:
        """(short, total) at budget: levels among which is every level whose
        list has fewer than ``budget.nodes`` words, and the sum of all the
        level list sizes.  Each layer derives its pair from its base's."""
        passed, layer = [], self
        while (sizes := layer._sizes.get(budget)) is None and layer.base:
            passed.append(layer)
            layer = layer.base
        sizes = sizes or layer._sizes.setdefault(budget, layer._sizes_over(None, budget))
        for layer in reversed(passed):
            sizes = layer._sizes[budget] = layer._sizes_over(sizes, budget)
        return sizes

    def _sizes_over(self, below: "tuple | None", budget: Budget) -> tuple[tuple[int, ...], int]:
        # A layer keeps every full base list below its depth, so it builds
        # at most the base's short levels, its levels above the base's depth
        # (all of a root's) and its depth.  It reads them the deepest first,
        # so a level it builds finds the one above it stored.
        short, total = below or ((), 0)
        top = self.base.depth if self.base else -1
        still_short = []
        for i in sorted({*short, *range(top + 1, self.depth + 1), self.depth}, reverse=True):
            base = self.base._resolve(i, budget) if i <= top else None
            level = self._lists.get((i, budget.key())) or self._over(i, base, budget)
            total += len(level.items) - (len(base.items) if base else 0)
            if len(level.items) < budget.nodes:
                still_short.append(i)
        return tuple(still_short), total

    def identity_rep(self, i: int):
        """The certificate of e at level i: a pad's leaf above the root's depth, else the root's."""
        return Leaf(i, E, "pad" if i > self.root.depth else self.root.origin)

    def adjoined_rep(self, i: int, w: Word):
        """The ``extra`` leaf of the first layer, at or below this one, that
        adjoins w at its depth L >= i, read from one dict per run of
        enriched layers (:meth:`_adjoining`); None when no layer adjoins
        w.  The leaf stands at level i as it is, because U_L ⊆ U_i (see
        :meth:`_verify_structure`).  Building it searches nothing, and
        ``verify_rep`` checks it like any certificate."""
        if not 0 <= i <= self.depth:
            raise BadLevel(f"level {i} outside 0..{self.depth}")
        return next((Leaf(depth, w, "extra") for depth in self._adjoining(i, self.depth, w)), None)

    def _adjoining(self, i: int, top: int, w: Word):
        """The depth of each run of enriched layers at or below this one, of
        depth i..top, whose dict holds w, top first: one lookup by w's end
        letters per run, stepping over the run by its floor."""
        key, layer = (w.first, w.last), self
        while layer is not None and layer.depth >= i:
            if isinstance(layer, EnrichedNsys):
                if layer.depth <= top and _holds(layer._ends.get(key, ()), w):
                    yield layer.depth
                layer = layer.floor
            else:
                layer = layer.base

    def verify_rep(self, i: int, w: Word, rep) -> tuple[bool, str]:
        """Independent re-check against this stack: structure, leaf claims,
        and flatten+multiply."""
        if not 0 <= i <= self.depth:
            return False, f"level {i} outside 0..{self.depth}"
        ok, why = self._verify_structure(i, rep)
        if ok and rep_word(rep) != w:
            return False, "factor product differs from certified word"
        return ok, why

    def _verify_structure(self, i: int, rep) -> tuple[bool, str]:
        """A leaf of level L holds at position i when a layer at or below this
        one vouches for it, and L = i or i < ``closed``.  A conjugation node
        at level i holds when i < ``closed``, its conjugator is e or a letter
        of the alphabet, and both factors hold at level i + 1.  Below
        ``closed`` the builder's level i contains x·V_{i+1}·V_{i+1}·x⁻¹, and
        every level holds e, so x = e gives V_{i+1} ⊆ V_i: a leaf of level
        L > i, whose word is e or lies no deeper than the builder, holds."""
        todo = [(i, rep)]
        while todo:
            i, node = todo.pop()
            if isinstance(node, Leaf):
                if node.level != i and not (i < self.closed and node.level in range(i, self.depth + 1)):
                    return False, "leaf level mismatch"
                if not self._vouched(node):
                    return False, f"no layer holds the {node.origin} leaf {node.word} at level {node.level}"
            elif isinstance(node, Conj):
                if node.level != i or i >= self.closed:
                    return False, "conjugation node at an invalid level"
                x = node.x
                if not x.is_identity() and (x.length != 1 or not supported_in(x, self.alphabet)):
                    return False, "conjugator is not an ambient letter"
                todo += ((i + 1, node.right), (i + 1, node.left))
            else:
                return False, "unknown certificate node"
        return True, ""

    def _vouched(self, leaf: Leaf) -> bool:
        """Does a layer at or below this one hold the leaf at its level?  Pads
        hold e above the root's depth; the root holds a leaf of its own
        origin when it answers yes for the leaf's word at the leaf's level,
        without a search; and each enriched layer as deep as an ``extra``
        leaf holds its adjoined set, read from one dict per run (``_adjoining``)."""
        L, root = leaf.level, self.root
        if leaf.origin == "pad":
            return root.depth < L <= self.depth and leaf.word.is_identity()
        if leaf.origin != "extra":
            own = leaf.origin == root.origin and L <= root.depth
            return own and root._own_answer(L, leaf.word, None).is_yes
        return L in self._adjoining(L, L, leaf.word)

    def ancestors(self, stop: "Nsys | None" = None) -> list["Nsys"]:
        """This layer and the layers below it, top first, down to but not
        including ``stop``; the whole stack when ``stop`` is None.  Raises
        NbhdError when ``stop`` is neither this layer nor one below it."""
        out, layer = [], self
        while layer is not stop:
            if layer is None:
                raise NbhdError("system is not stacked on the given one")
            out.append(layer)
            layer = layer.base
        return out

    def node_obj(self) -> dict:
        raise NotImplementedError


class TrivialNsys(Nsys):
    """Every level is {e}."""

    origin = "trivial"

    def __init__(self, alphabet: IdSet, depth: int):
        if depth < 1:
            raise ZeroDepth(f"depth must be >= 1, got {depth}")
        super().__init__(alphabet, depth)

    def _own_answer(self, i, w, ctx):
        return _yes(Leaf(i, E, "trivial")) if w.is_identity() else _NO_TRIVIAL

    def _own_list(self, i, below, budget):
        return [(E, Leaf(i, E, "trivial"))]

    def node_obj(self):
        return {"kind": "trivial", "alphabet": self.alphabet.intervals, "depth": self.depth}


class PaddedNsys(Nsys):
    """The base system with extra {e} levels appended above its depth."""

    def __init__(self, base: Nsys, depth: int):
        if depth <= base.depth:
            raise NbhdError("padding must increase depth")
        super().__init__(base.alphabet, depth, base)
        self.closed = base.closed

    def _own_answer(self, i, w, ctx):
        # a pad tests no letters: it shares its base's alphabet, and the base
        # tests w against it
        if i <= self.base.depth:
            return None
        return _yes(Leaf(i, E, "pad")) if w.is_identity() else _NO_PADDED

    def _after_base(self, i, w, base_ans, ctx):
        return base_ans

    def _own_list(self, i, below, budget):
        return [(E, Leaf(i, E, "pad"))] if below is None else below

    def _sizes_over(self, below, budget):
        own = range(self.base.depth + 1, self.depth + 1)  # {e} each, built when read
        return (*below[0], *own), below[1] + len(own)

    def node_obj(self):
        return {"kind": "pad", "depth": self.depth}


def _detect_bounded(U: Nsys, extra: BaseSet, ambient: IdSet) -> Optional[int]:
    """|X| of U when enriching it by ``extra`` over ``ambient`` is a cyclic
    fresh-letter or {e} enrichment, the shapes the letter-count bound holds
    for; None otherwise."""
    fresh = ambient.difference(U.alphabet)
    if not fresh or not U.alphabet:  # |X| = 0 would refute an adjoined y
        return None
    if extra.finite not in ((), (E,)):
        return None
    for c in extra.cyclic:
        sup = letters(c)
        if sup.size != 1 or not sup.issubset(fresh):
            return None
    return U.alphabet.size


class EnrichedNsys(Nsys):
    """B-enrichment of a base system inside a (possibly larger) alphabet.

    Level n is U_n ∪ B; level i < n is U_i together with all x·V_{i+1}·V_{i+1}·x⁻¹
    for x in the ambient alphabet's letters and e.  A level i < n whose base
    list holds ``budget.nodes`` words or more, whatever its size, is that
    list object (the conjugation pass could add nothing), and its
    certificates verify here unchanged.  :meth:`_build_level` builds level n
    and every other level; the levels built need not be a top run.

    Level n is answered by one helper, :meth:`_depth_answer`: a lookup of
    the ``floor``, the first layer below the run of enriched layers at
    depth n (a pad's {e}, or the root), and then of the run's adjoined
    sets.  A query at level n and the search's questions about level n
    (see :meth:`_certify`) both get it, so no walk goes down that run and
    no node is charged for that level.  The adjoined sets of the run from
    this layer down are one dict, its base's in the run and its own set.

    ``bounded_base_size`` is the base alphabet's size when this layer is a
    cyclic fresh-letter or {e} enrichment, where the letter-count bound
    licenses exact refutation, and None otherwise.  It is derived from the
    base alphabet, the adjoined set and the ambient alphabet, never given.
    """

    def __init__(self, base: Nsys, extra: BaseSet, alphabet: IdSet):
        # The depth lookup takes every word of the floor's level and of the
        # adjoined sets to be made of its letters (see _certify), so the
        # base's and the adjoined set's letters must lie in its alphabet,
        # also in a loaded state.
        if not base.alphabet.issubset(alphabet):
            raise OverlapAlphabet("ambient alphabet must contain the base alphabet")
        if not all(supported_in(w, alphabet) for w in extra.finite + extra.cyclic):
            raise NbhdError("base set uses letters outside the ambient alphabet")
        for w in extra.finite:
            if w.inverse() not in extra.finite:
                raise AsymmetricB(f"base set not symmetric: missing inverse of {w}")
        super().__init__(alphabet, base.depth, base)
        self.closed = self.depth
        # the first layer below the run of enriched layers at this depth
        self.floor = base.floor if isinstance(base, EnrichedNsys) else base
        self.extra = extra
        self._ends = _end_index(extra, base._ends if isinstance(base, EnrichedNsys) else {})
        self.bounded_base_size = _detect_bounded(base, extra, alphabet)

    # -- helpers -------------------------------------------------------------

    def _bound(self, i: int) -> Optional[int]:
        if self.bounded_base_size is None:
            return None
        return self.bounded_base_size * 4 ** (self.depth - i)

    # -- membership ----------------------------------------------------------

    def _own_answer(self, i, w, ctx):
        if not supported_in(w, self.alphabet):
            return _NO_LETTERS
        bound = self._bound(i)
        if bound is not None and letters(w).size > bound:
            return _no(f"letter count exceeds the enrichment bound {bound}")
        if ctx.nodes_left <= 0:
            return _UNKNOWN_BUDGET
        return self._depth_answer(w) if i == self.depth else None

    def _depth_answer(self, w):
        """Level n = U_n ∪ B: the floor's yes, else the ``extra`` leaf when the
        run's one dict holds w (:func:`_holds`), else no.  The floor (a pad,
        or a trivial or explicit root) answers only yes or no, and level n of
        the run of enriched layers on it is the floor's level together with
        the run's adjoined sets, so the answer is exact and needs no search."""
        ans = self.floor._own_answer(self.depth, w, None)
        if ans.is_yes:
            return ans
        held = _holds(self._ends.get((w.first, w.last), ()), w)
        return _yes(Leaf(self.depth, w, "extra")) if held else _NO_BASE_OR_EXTRA

    def _after_base(self, i, w, base_ans, ctx):
        if base_ans.is_yes:
            return base_ans
        if ctx.nodes_left <= 0:
            return _UNKNOWN_BUDGET
        ctx.nodes_left -= 1

        # nesting: V_{i+1} ⊆ V_i via x = e with v = e
        up = self._certify(i + 1, w, ctx)
        if up is not None:
            return _yes(Conj(i, E, up, self.identity_rep(i + 1)))
        # the search below would stop at its first node; skip the enumeration
        if ctx.nodes_left <= 0:
            return _UNKNOWN_BUDGET

        inner = self._level(i + 1, ctx.budget)
        inverses, support = inner.search()
        # A working conjugator must appear in w or cancel into the factors,
        # so searching letters of w and of the enumerated children is
        # complete relative to the enumeration.
        candidate_ids = letters(w).union(support)
        for x in _conjugators(candidate_ids.intersection(self.alphabet)):
            wx = conjugate(x.inverse(), w, x)
            for (_, urep), u_inv in zip(inner.items, inverses):
                if ctx.nodes_left <= 0:
                    return _UNKNOWN_BUDGET
                ctx.nodes_left -= 1
                vrep = self._certify(i + 1, multiply(u_inv, wx), ctx)
                if vrep is not None:
                    return _yes(Conj(i, x, urep, vrep))
        # With a cyclic base present the level is infinite; a failed bounded
        # search is not a refutation.
        return _UNKNOWN_SEARCH

    def _certify(self, i, w, ctx):
        """A certificate of w at level i, one deeper than the search asking,
        or None: the walk's below this layer's depth, and at its depth
        :meth:`_depth_answer`'s, as a query there gets it.

        * The letter test and the letter-count bound are skipped at the
          depth: they refute none of the words the helper says yes to.  A
          word of the floor's level, or adjoined by a layer L, lies in the
          alphabet of every layer from L up, and has no more letters than a
          bounded layer's base alphabet, which is not empty (one letter, if
          that layer adjoined it).  So skipping them changes no certificate.
        * A member asked on the node that spends the budget is not
          certified, as at every other level.
        """
        if i < self.depth:
            return self._member(i, w, ctx).rep
        return None if ctx.nodes_left <= 0 else self._depth_answer(w).rep

    # -- enumeration -----------------------------------------------------------

    def _own_list(self, i, below, budget):
        if i < self.depth and len(below) >= budget.nodes:
            return below
        # Level j < n is built from level j + 1: find the cold levels above
        # i that level i rests on and build them first, the deepest first,
        # so that a layer over a deep pad does not recurse once per level.
        j = i + 1
        while (
            j < self.depth
            and (j, budget.key()) not in self._lists
            and len(self.base._resolve(j, budget).items) < budget.nodes
        ):
            j += 1
        for k in range(min(j, self.depth), i, -1):
            self._level(k, budget)
        return self._build_level(i, below, budget)

    def _build_level(self, i, below, budget):
        """Level i's list from the base's list ``below`` and, when i < n,
        from level i + 1's stored list: the products u·v of its words, made
        one at a time by :func:`_products`, conjugated by each x of the
        shared :func:`_conjugator_pairs` table until the list holds
        ``budget.nodes`` words.  A product equal to e adds only e.  Each
        product is formatted once, so the conjugates that join x and x⁻¹ on
        without a stretch across the junction carry their text to the sort."""
        items = dict(below)
        if i == self.depth:
            for w in self.extra.enumerate(budget):
                items.setdefault(w, Leaf(i, w, "extra"))
            return sorted(items.items(), key=lambda kv: word_key(kv[0]))[: budget.nodes]

        conjs = _conjugator_pairs(tuple(islice(self.alphabet, CONJUGATOR_ID_CAP)))
        pairs = budget.nodes * UV_PAIR_FACTOR
        for prod, urep, vrep in _products(self._level(i + 1, budget).items, pairs):
            if prod.is_identity():
                items.setdefault(E, Conj(i, E, urep, vrep))
            else:
                str(prod)  # a known text lets conjugate join each conjugate's on
                for x, xi in conjs:
                    w = conjugate(x, prod, xi)
                    if w not in items:
                        items[w] = Conj(i, x, urep, vrep)
                        if len(items) >= budget.nodes:
                            break
            if len(items) >= budget.nodes:
                break
        return sorted(items.items(), key=lambda kv: word_key(kv[0]))

    def node_obj(self):
        obj = {"kind": "enrich", "alphabet": self.alphabet.intervals, "extra": self.extra.describe()}
        if self.bounded_base_size is not None:
            obj["bounded_base_size"] = self.bounded_base_size
        return obj


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def trivial_system(alphabet: IdSet, n: int) -> TrivialNsys:
    return TrivialNsys(alphabet, n)


def pad_system(U: Nsys, depth: int) -> Nsys:
    if depth <= U.depth:
        return U
    return PaddedNsys(U, depth)


def enrich(U: Nsys, B: BaseSet, ambient: IdSet) -> EnrichedNsys:
    """The B-enrichment of U inside the free group over ``ambient``."""
    return EnrichedNsys(U, B, ambient)


def cyclic_alphabet_extension(U: Nsys, fresh: IdSet) -> EnrichedNsys:
    """Adjoin ⟨y⟩ for every fresh letter y and close off; extends U."""
    if not fresh:
        raise OverlapAlphabet("no fresh letters given")
    if not fresh.isdisjoint(U.alphabet):
        raise OverlapAlphabet("fresh letters overlap the existing alphabet")
    if fresh.size > 4096:
        raise NbhdError("refusing to enumerate a cyclic extension this large")
    B = make_base(cyclic=[single(y) for y in fresh])
    return enrich(U, B, U.alphabet.union(fresh))


def identity_extension(U: Nsys, fresh: IdSet) -> EnrichedNsys:
    """The {e}-enrichment of U over the grown alphabet."""
    if not fresh.isdisjoint(U.alphabet):
        raise OverlapAlphabet("fresh letters overlap the existing alphabet")
    return enrich(U, IDENTITY_BASE, U.alphabet.union(fresh))


# ---------------------------------------------------------------------------
# Letter-count bound
# ---------------------------------------------------------------------------


def letter_bound_check(rep, base_alphabet_size: int, n: int, i: int) -> bool:
    """Σ|lett(a_l)| over the flattened factors against |X|·4^(n-i).  The
    factors run down to the leaves, so a member that the certificate takes
    from a base layer counts with the factors of its own certificate there."""
    total = sum(letters(f).size for f in flatten_factors(rep))
    return total <= base_alphabet_size * 4 ** (n - i)


# ---------------------------------------------------------------------------
# Serialization helpers (layer deltas; chains re-stack them)
# ---------------------------------------------------------------------------


def system_layers(U: Nsys, stop: Optional[Nsys] = None) -> list[dict]:
    """Layer descriptions root-first, or only those stacked above the
    ancestor ``stop``; rebuild with :func:`system_from_layers`."""
    return [layer.node_obj() for layer in reversed(U.ancestors(stop))]


def system_from_layers(layers: list[dict], root: Optional[Nsys] = None) -> Nsys:
    sys_: Optional[Nsys] = root
    for obj in layers:
        kind = obj["kind"]
        if kind == "trivial":
            sys_ = TrivialNsys(IdSet.from_intervals(obj["alphabet"]), obj["depth"])
        elif kind == "pad":
            sys_ = PaddedNsys(sys_, obj["depth"])
        elif kind == "enrich":
            parts = ([parse_word(t) for t in obj["extra"].get(part, [])] for part in ("finite", "cyclic"))
            sys_ = EnrichedNsys(sys_, make_base(*parts), IdSet.from_intervals(obj["alphabet"]))
            stored = obj.get("bounded_base_size")
            if stored != sys_.bounded_base_size:  # derived, so stored must agree
                raise NbhdError(
                    f"enrich layer stores bounded_base_size {stored!r}, "
                    f"its alphabets give {sys_.bounded_base_size!r}"
                )
        else:
            raise NbhdError(f"unknown system layer kind {kind!r}")
    if sys_ is None:
        raise NbhdError("empty layer list")
    return sys_


def rep_to_obj(rep) -> list:
    """The certificate as nested lists, built on an explicit stack."""
    top, todo = [], [(rep, None)]
    while todo:
        node, parent = todo.pop()
        if isinstance(node, Leaf):
            obj = ["leaf", node.level, str(node.word), node.origin]
        else:
            obj = ["conj", node.level, str(node.x)]
            todo += ((node.right, obj), (node.left, obj))
        (top if parent is None else parent).append(obj)
    return top[0]


def rep_from_obj(obj) -> object:
    if obj[0] == "leaf" and len(obj) == 4:
        return Leaf(obj[1], parse_word(obj[2]), obj[3])
    if obj[0] == "conj" and len(obj) == 5:
        return Conj(obj[1], parse_word(obj[2]), rep_from_obj(obj[3]), rep_from_obj(obj[4]))
    raise NbhdError(f"bad certificate node {obj!r}")
