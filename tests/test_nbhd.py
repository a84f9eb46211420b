import functools
import json
import random
import sys
import time

import pytest

from assgp import cli, nbhd
from assgp import words as wd
from assgp.nbhd import (
    Budget,
    Conj,
    Leaf,
    cyclic_alphabet_extension,
    enrich,
    identity_extension,
    letter_bound_check,
    make_base,
    rep_word,
    trivial_system,
)
from assgp.poset import CycCert, verify_cyc_cert
from assgp.words import E, IdSet, letters, multiply, power, single

from conftest import SHARED_BUDGET, W, rand_word, shared_level_stack
from oracle import explicit_system, flatten_factors

A = IdSet.of(0)
AB = IdSet.of(0, 1)
a = single(0)
b = single(1)
y = single(24)
z = single(25)


class TestTrivial:
    def test_levels_and_identity(self):
        t = trivial_system(A, 1)
        assert t.depth == 1
        for i in (0, 1):
            assert t.member(i, E).is_yes

    def test_depth_three(self):
        t = trivial_system(AB, 3)
        assert [w for w, _ in t.enumerate(2)] == [E]
        assert t.member(3, E).is_yes

    def test_zero_depth_rejected(self):
        with pytest.raises(nbhd.ZeroDepth):
            trivial_system(A, 0)

    def test_non_identity_refuted(self):
        t = trivial_system(A, 1)
        assert t.member(0, a).is_no

    def test_bad_level(self):
        with pytest.raises(nbhd.BadLevel):
            trivial_system(A, 1).member(2, E)


class TestEnrich:
    def test_cyclic_a_enrichment_fixed_point(self):
        # V_1 = <a> and V_0 = <a>: conjugation by a fixes <a>, products stay.
        V = enrich(trivial_system(A, 1), make_base(cyclic=[a]), A)
        for k in (-2, -1, 1, 2, 5):
            assert V.member(1, power(a, k)).is_yes
            assert V.member(0, power(a, k)).is_yes

    def test_identity_base_stays_trivial(self):
        # both levels list only e; the deepest refutes y, which is neither
        # in the root's {e} nor in the adjoined {e}
        V = identity_extension(trivial_system(A, 1), IdSet.of(24))
        assert [[w for w, _ in V.enumerate(i)] for i in (0, 1)] == [[E], [E]]
        ans = V.member(1, y)
        assert (ans.verdict, ans.reason) == ("no", "neither in the base level nor the adjoined set")

    def test_foreign_conjugation_enters_lower_level(self):
        # U_1 contains b; adjoining {e} over {a,b,y} pulls y·b·b·y⁻¹ into V_0.
        lv = [{E, b, b.inverse()}, {E, b, b.inverse()}]
        U = explicit_system(AB, lv)
        V = enrich(U, nbhd.IDENTITY_BASE, AB.union(IdSet.of(24)))
        w = multiply(multiply(y, power(b, 2)), y.inverse())
        ans = V.member(0, w)
        assert ans.is_yes
        assert V.verify_rep(0, w, ans.rep) == (True, "")

    def test_asymmetric_base_rejected(self):
        with pytest.raises(nbhd.AsymmetricB):
            make_base(finite=[b])

    def test_ambient_must_contain_alphabet(self):
        with pytest.raises(nbhd.OverlapAlphabet):
            enrich(trivial_system(AB, 1), nbhd.IDENTITY_BASE, A)


class TestCyclicAlphabetExtension:
    def test_fresh_cyclic_level_sets(self):
        V = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(24))
        assert V.member(1, power(y, 2)).is_yes
        ans = V.member(0, power(y, 3))
        assert ans.is_yes
        assert V.verify_rep(0, power(y, 3), ans.rep)[0]

    def test_level_one_refutes_a(self):
        V = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(24))
        assert V.member(1, a).is_no

    def test_overlap_rejected(self):
        with pytest.raises(nbhd.OverlapAlphabet):
            cyclic_alphabet_extension(trivial_system(A, 1), A)

    def test_unsupported_letters_refuted(self):
        V = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(24))
        assert V.member(0, single(7)).is_no


class TestMembership:
    def test_identity_always_yes(self):
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        for i in range(3):
            assert V.member(i, E).is_yes

    def test_conjugated_square_example(self):
        V = enrich(trivial_system(AB, 1), make_base(cyclic=[b]), AB)
        w = W("a b b a^-1")
        ans = V.member(0, w)
        assert ans.is_yes
        assert rep_word(ans.rep) == w
        assert V.verify_rep(0, w, ans.rep) == (True, "")

    def test_unknown_for_cyclic_refutation(self):
        V = enrich(trivial_system(AB, 1), make_base(cyclic=[b]), AB)
        assert V.member(0, a).verdict == "unknown"

    def test_nesting_shortcut(self):
        # members of deeper levels are members of shallower ones
        V = cyclic_alphabet_extension(trivial_system(A, 3), IdSet.of(24))
        ans1 = V.member(3, y)
        ans0 = V.member(0, y)
        assert ans1.is_yes and ans0.is_yes
        assert V.verify_rep(0, y, ans0.rep)[0]

    def test_padded_levels_are_identity(self):
        # the pad's levels above its base's depth are {e}: every level of
        # both systems lists only e, the pad refutes a there, and so does
        # the enrichment's deepest level.  Its search below finds no
        # certificate and refutes nothing
        pad = nbhd.pad_system(trivial_system(A, 1), 3)
        V = identity_extension(pad, IdSet.of(1))
        for U in (pad, V):
            assert [[w for w, _ in U.enumerate(i)] for i in range(4)] == [[E]] * 4
        for i in (2, 3):
            ans = pad.member(i, a)
            assert (ans.verdict, ans.reason) == ("no", "padded level is {e}")
        ans = V.member(3, a)
        assert (ans.verdict, ans.reason) == ("no", "neither in the base level nor the adjoined set")
        assert [V.member(i, a).verdict for i in range(3)] == ["unknown"] * 3

    @pytest.mark.parametrize("top", ["pad", "equal alphabet"])
    def test_letters_are_tested_where_the_alphabet_narrows(self, top):
        # A pad shares its base's alphabet and tests no letters, so the
        # enrichment below it must test the word, and the answer below that
        # layer's depth is its refutation.
        low = cyclic_alphabet_extension(trivial_system(A, 2), IdSet.of(1))
        U = nbhd.pad_system(low, 4)
        if top == "equal alphabet":
            U = identity_extension(U, IdSet.empty())
            assert U.alphabet == low.alphabet
        for w in (single(2), W("a c a^-1")):
            for i in range(low.depth + 1):
                ans = U.member(i, w)
                assert (ans.verdict, ans.reason) == ("no", "letters outside the ambient alphabet")

    def test_a_search_tests_its_words_below_a_narrowing(self):
        # every word the top layer's search builds holds its fresh letter c,
        # so the layer below refutes it at once instead of spending the
        # search nodes that the top layer needs to nest c from its adjoined
        # set down to level 0
        low = cyclic_alphabet_extension(trivial_system(A, 3), IdSet.of(1))
        top = cyclic_alphabet_extension(low, IdSet.of(2))
        c = single(2)
        ans = top.member(0, c)
        assert ans.is_yes and top.verify_rep(0, c, ans.rep) == (True, "")

    def test_explicit_levels_use_the_alphabet(self):
        with pytest.raises(nbhd.NbhdError):
            explicit_system(A, [[E], [E, b]])

    def test_explicit_levels_hold_e(self):
        with pytest.raises(nbhd.NbhdError):
            explicit_system(A, [[E], [a, a.inverse()]])


def depth_lookup_stacks():
    """Stacks whose top run of enriched layers stands on each kind of floor."""
    on_trivial = cyclic_alphabet_extension(trivial_system(A, 2), IdSet.of(24))
    low = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(1))
    on_pad = cyclic_alphabet_extension(nbhd.pad_system(low, 3), IdSet.of(2))
    two_at_one_depth = enrich(on_trivial, make_base(cyclic=[W("a y")]), on_trivial.alphabet.union(AB))
    two_over_pad = enrich(on_pad, make_base(finite=[W("b c"), W("c^-1 b^-1")]), on_pad.alphabet)
    lv = [{E, b, b.inverse()}, {E, b, b.inverse(), W("a b a^-1"), W("a b^-1 a^-1")}]
    on_explicit = identity_extension(explicit_system(AB, lv), IdSet.of(24))
    return {
        "trivial floor": on_trivial,
        "pad floor": on_pad,
        "two at one depth": two_at_one_depth,
        "two over a pad": two_over_pad,
        "explicit floor": on_explicit,
        "cyclic over explicit": cyclic_alphabet_extension(on_explicit, IdSet.of(25)),
    }


def depth_corpus(V, budget):
    """Every listed word of V, each times a word of level n, and random
    words, some with a letter outside V's alphabet."""
    listed = [w for i in range(V.depth + 1) for w, _ in V.enumerate(i, budget)]
    top = [w for w, _ in V.enumerate(V.depth, budget)]
    rng = random.Random(7)
    ids = [*V.alphabet, 9]  # 9 lies outside every stack's alphabet
    randoms = [rand_word(rng, ids, 6) for _ in range(120)]
    return sorted({*listed, *(multiply(u, v) for u in listed for v in top), *randoms}, key=wd.word_key)


BUDGETS = pytest.mark.parametrize("budget", [Budget(6, 2, 30), Budget(6, 2, 120)], ids=["30", "120"])
STACKS = pytest.mark.parametrize("name", sorted(depth_lookup_stacks()))


class TestDepthLookup:
    """An enriched layer answers its own depth n by one helper,
    ``EnrichedNsys._depth_answer``, for a query and for a search node
    (``_certify``, which skips the letter and bound tests) alike."""

    @BUDGETS
    @STACKS
    def test_lookup_is_the_walks_answer(self, name, budget):
        V = depth_lookup_stacks()[name]
        n = V.depth
        yes = 0
        for w in depth_corpus(V, budget):
            ans = V.member(n, w, budget)
            rep = V._certify(n, w, nbhd._SearchCtx(budget))
            assert rep == (ans.rep if ans.is_yes else None), w
            yes += ans.is_yes
        assert yes >= len({w for w, _ in V.enumerate(n, budget)})

    @BUDGETS
    @STACKS
    def test_no_walk_goes_down_a_run_at_its_depth(self, name, budget, monkeypatch):
        # a pad on the run hands level n to the run's top, which answers it
        after_base = nbhd.EnrichedNsys._after_base

        def checked(self, i, w, base_ans, ctx):
            assert i < self.depth, f"walked down the run at depth {i} for {w}"
            return after_base(self, i, w, base_ans, ctx)

        monkeypatch.setattr(nbhd.EnrichedNsys, "_after_base", checked)
        V = depth_lookup_stacks()[name]
        padded = nbhd.pad_system(V, V.depth + 2)
        for w in depth_corpus(V, budget):
            assert padded.member(V.depth, w, budget) == V.member(V.depth, w, budget), w
            padded.member(0, w, Budget(6, 2, 8))  # a search whose nodes ask level n

    def test_yes_on_the_node_that_spends_the_budget_is_unknown(self):
        # a·b·b·a⁻¹ at level 0: the nesting step is node 1, the five u of
        # level 1 with x = e are nodes 2-6, and x = a with u = e is node 7,
        # the first whose v = b·b is a member.  At 7 nodes that node spends
        # the budget, so the search answers unknown; at 8 it certifies w
        V = enrich(trivial_system(AB, 1), make_base(cyclic=[b]), AB)
        w = W("a b b a^-1")
        assert len(V.enumerate(1, Budget(6, 2, 7))) == 5
        ans = V.member(0, w, Budget(6, 2, 7))
        assert (ans.verdict, ans.reason) == ("unknown", "search budget exhausted")
        ans = V.member(0, w, Budget(6, 2, 8))
        assert ans.rep == Conj(0, a, Leaf(1, E, "trivial"), Leaf(1, W("b b"), "extra"))

    def test_empty_base_alphabet_bounds_nothing(self):
        # |X|·4^(n-i) with |X| = 0 would refute the adjoined y at every level
        V = cyclic_alphabet_extension(trivial_system(IdSet.empty(), 2), IdSet.of(24))
        assert V.bounded_base_size is None
        for i in range(3):
            ans = V.member(i, y)
            assert ans.is_yes and V.verify_rep(i, y, ans.rep) == (True, "")


class TestEnumeration:
    def test_trivial_enumeration(self):
        assert [w for w, _ in trivial_system(A, 1).enumerate(0)] == [E]

    def test_cyclic_enrichment_top_level(self):
        V = enrich(trivial_system(A, 1), make_base(cyclic=[a]), A)
        words = {w for w, _ in V.enumerate(1, Budget(exp=2))}
        assert words == {E, a, a.inverse(), power(a, 2), power(a, -2)}

    def test_fresh_extension_level0_contents(self):
        V = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(24))
        got = {w for w, _ in V.enumerate(0, Budget(exp=2, nodes=300))}
        for expect in [
            E,
            y,
            y.inverse(),
            power(y, 2),
            multiply(multiply(a, y), a.inverse()),
            multiply(multiply(a, power(y, 2)), a.inverse()),
        ]:
            assert expect in got

    def test_all_enumerated_certificates_verify(self):
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        for i in range(3):
            for w, rep in V.enumerate(i, Budget(exp=2, nodes=120)):
                assert V.verify_rep(i, w, rep) == (True, "")

    def test_deterministic(self):
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        V2 = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        bud = Budget(exp=2, nodes=100)
        assert [str(w) for w, _ in V.enumerate(0, bud)] == [
            str(w) for w, _ in V2.enumerate(0, bud)
        ]

    def test_budgeted_levels_of_finite_base(self):
        # a budget above the level sizes lists each whole level: level 1 is
        # U_1 ∪ {e}, level 0 is U_0 with every x·u·v·x⁻¹ for u, v in level 1
        lv = [{E, b, b.inverse()}, {E, b, b.inverse()}]
        U = explicit_system(AB, lv)
        ambient = AB.union(IdSet.of(24))
        V = enrich(U, nbhd.IDENTITY_BASE, ambient)
        conjs = [E] + [single(g, s) for g in ambient for s in (1, -1)]
        level0 = lv[0] | {
            multiply(multiply(multiply(x, u), v), x.inverse())
            for x in conjs
            for u in lv[1]
            for v in lv[1]
        }
        bud = Budget(nodes=6000)
        assert {w for w, _ in V.enumerate(1, bud)} == lv[1]
        listed = V.enumerate(0, bud)
        assert {w for w, _ in listed} == level0
        for w, rep in listed:
            assert V.verify_rep(0, w, rep) == (True, "")


class TestEnumerationCap:
    def test_full_base_level_is_the_level(self):
        # U's level 0 already holds `nodes` words, so V's conjugation pass
        # could add nothing: V's level 0 is U's list, and each of its
        # certificates verifies in V unchanged
        bud = Budget(6, 2, 10)
        U = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        base = U.enumerate(0, bud)
        assert len(base) >= bud.nodes
        V = identity_extension(U, IdSet.of(25))
        assert V.enumerate(0, bud) is base
        for w, r in base:
            assert V.verify_rep(0, w, r) == (True, "")
        # V remembers U's list, built by U, and has built no level to reach it
        kept = V.levels_kept(bud)
        assert kept.keys() == {0} and kept[0][0] is base and kept[0][1] is U

    def test_level_below_cap_gains_conjugates(self):
        bud = Budget(6, 2, 120)
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        base = V.base.enumerate(0, bud)
        assert len(base) < bud.nodes
        items = V.enumerate(0, bud)
        assert len(items) > len(base)
        assert any(isinstance(r, Conj) and not r.x.is_identity() for _, r in items)
        # V built level 0 from its own level 1, that from level 2, and stored them
        kept = V.levels_kept(bud)
        assert kept.keys() == {0, 1, 2} and kept[0][0] is items
        assert kept[1][0] is V.enumerate(1, bud) and {by for _, by in kept.values()} == {V}


def eager_level(V, i, budget):
    """Level i of the enriched layer V as the eager builder made it, the
    reference for ``EnrichedNsys._build_level``: every distinct product u·v
    of level i + 1's list first, up to ``nodes`` products from
    ``nodes·UV_PAIR_FACTOR`` pairs in rank order, then each product
    conjugated by every conjugator until the list holds ``nodes`` words."""
    base = V.base.enumerate(i, budget)
    if i < V.depth and len(base) >= budget.nodes:
        return base
    items = dict(base)
    if i == V.depth:
        for w in V.extra.enumerate(budget):
            items.setdefault(w, Leaf(i, w, "extra"))
        return sorted(items.items(), key=lambda kv: wd.word_key(kv[0]))[: budget.nodes]
    inner = V.enumerate(i + 1, budget)
    uv = {}
    m = len(inner)
    pair_cap = budget.nodes * nbhd.UV_PAIR_FACTOR
    pairs_seen = 0
    for rank in range(2 * m - 1):
        if len(uv) >= budget.nodes or pairs_seen >= pair_cap:
            break
        for iu in range(max(0, rank - m + 1), min(rank, m - 1) + 1):
            (u, urep), (v, vrep) = inner[iu], inner[rank - iu]
            uv.setdefault(multiply(u, v), (urep, vrep))
            pairs_seen += 1
            if len(uv) >= budget.nodes or pairs_seen >= pair_cap:
                break
    conjs = [(x, x.inverse()) for x in nbhd._conjugators(V.alphabet)]
    for prod, (urep, vrep) in uv.items():
        if len(items) >= budget.nodes:
            break
        for x, xi in conjs:
            w = multiply(multiply(x, prod), xi)
            if w not in items:
                items[w] = Conj(i, x, urep, vrep)
            if len(items) >= budget.nodes:
                break
    return sorted(items.items(), key=lambda kv: wd.word_key(kv[0]))


def listed(items):
    return [(w, nbhd.rep_to_obj(rep)) for w, rep in items]


class TestLevelBuilder:
    """A cold level's list is the eager builder's, word for word and
    certificate for certificate, though the products are made only as the
    conjugation pass asks for them."""

    def assert_eager(self, V, budget):
        # top down, so that level i + 1, which the reference reads, is checked
        for i in range(V.depth, -1, -1):
            assert listed(V.enumerate(i, budget)) == listed(eager_level(V, i, budget)), i

    def test_product_equal_to_e(self):
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        bud = Budget(6, 2, 120)
        pairs = bud.nodes * nbhd.UV_PAIR_FACTOR
        products = [p for p, _, _ in nbhd._products(V.enumerate(1, bud), pairs)]
        assert products[0] == E
        self.assert_eager(V, bud)
        self.assert_eager(V, Budget(6, 2, 600))

    @pytest.mark.parametrize("nodes", [120, 400])
    def test_alphabet_wider_than_the_conjugator_cap(self, nodes):
        wide = IdSet.from_range(0, 99)
        assert wide.size > nbhd.CONJUGATOR_ID_CAP
        V = cyclic_alphabet_extension(trivial_system(wide, 2), IdSet.of(200))
        bud = Budget(nodes=nodes)
        self.assert_eager(V, bud)
        # the letters past the cap's ids conjugate nothing into the list; at
        # 400 nodes the pass reaches the cap's last id
        xs = [r.x for _, r in V.enumerate(0, bud) if isinstance(r, Conj) and r.x != E]
        top = max(next(iter(letters(x))) for x in xs)
        assert top == nbhd.CONJUGATOR_ID_CAP - 1 if nodes == 400 else top < nbhd.CONJUGATOR_ID_CAP

    def test_inherited_level(self):
        V = shared_level_stack()
        assert V.enumerate(1, SHARED_BUDGET) is V.base.enumerate(1, SHARED_BUDGET)
        self.assert_eager(V, SHARED_BUDGET)

    def test_pair_cap_binds(self):
        # level 1 is e and y^±1..y^±49; its 9801 pairs make 197 distinct
        # products, fewer than `nodes`, so only the pair cap stops them, and
        # y^98 = y^49·y^49, a pair past the cap, stays out of level 0
        V = enrich(trivial_system(IdSet.of(24), 1), make_base(cyclic=[y]), IdSet.of(24))
        bud = Budget(6, 49, 200)
        inner = [w for w, _ in V.enumerate(1, bud)]
        products = {multiply(u, v) for u in inner for v in inner}
        assert len(inner) ** 2 > bud.nodes * nbhd.UV_PAIR_FACTOR
        assert len(products) < bud.nodes
        self.assert_eager(V, bud)
        level0 = {w for w, _ in V.enumerate(0, bud)}
        assert power(y, 98) in products and power(y, 98) not in level0

    def test_finite_base(self):
        lv = [{E, b, b.inverse()}, {E, b, b.inverse()}]
        V = enrich(explicit_system(AB, lv), nbhd.IDENTITY_BASE, AB.union(IdSet.of(24)))
        for nodes in (4, 20, 6000):
            self.assert_eager(V, Budget(nodes=nodes))

    def test_cold_levels_make_only_what_they_keep(self, monkeypatch):
        # the conjugates of the first product other than e fill each level of
        # 120 in 121 calls; the eager builder made 382, 382 and 273 at levels
        # 0-2 (630, 630 and 521 multiplies, with a conjugate made of two)
        V = cyclic_alphabet_extension(trivial_system(IdSet.from_range(0, 99), 3), IdSet.of(200))
        calls = []

        def counting(kernel):
            def count(*args):
                calls.append(None)
                return kernel(*args)

            return count

        # a product and a conjugate count one call each
        monkeypatch.setattr(nbhd, "multiply", counting(multiply))
        monkeypatch.setattr(nbhd, "conjugate", counting(wd.conjugate))
        for i in (2, 1, 0):
            calls.clear()
            assert len(V.enumerate(i, Budget())) == 120
            assert len(calls) <= 250, i


class TestLift:
    """An inherited level is the base's list; a certificate built from one
    of its items verifies in the layer that builds it unchanged."""

    def test_level_built_from_a_shared_level_verifies(self):
        V = shared_level_stack()
        assert V.enumerate(1, SHARED_BUDGET) is V.base.enumerate(1, SHARED_BUDGET)
        items = V.enumerate(0, SHARED_BUDGET)
        assert items is not V.base.enumerate(0, SHARED_BUDGET)
        assert any(isinstance(r, Conj) for _, r in items)
        for w, rep in items:
            assert V.verify_rep(0, w, rep) == (True, "")

    def test_member_through_a_shared_level_verifies(self):
        V = shared_level_stack()
        ab = W("a b")
        ans = V.member(0, ab, SHARED_BUDGET)
        assert ans.is_yes and isinstance(ans.rep, Conj)
        assert V.verify_rep(0, ab, ans.rep) == (True, "")


class TestVerifier:
    """verify_rep reads the stack: a leaf holds when a layer at or below the
    system holds its word, a conjugation node when the layer that builds its
    level closes that level under conjugation.  The stack: T = {e}-levels
    over a, b of depth 2; V adjoins ⟨y⟩ at level 2; P pads to depth 4; Q
    adjoins ⟨z⟩ at level 4."""

    def stack(self):
        T = trivial_system(AB, 2)
        V = cyclic_alphabet_extension(T, IdSet.of(24))
        P = nbhd.pad_system(V, 4)
        Q = cyclic_alphabet_extension(P, IdSet.of(25))
        return T, V, P, Q

    def refused(self, system, i, w, rep, why):
        ok, reason = system.verify_rep(i, w, rep)
        assert not ok and why in reason, reason

    def test_extra_leaf_away_from_its_layer_depth(self):
        T, V, P, Q = self.stack()
        assert Q.verify_rep(2, y, Leaf(2, y, "extra")) == (True, "")
        self.refused(V, 1, y, Leaf(1, y, "extra"), "no layer holds")
        self.refused(Q, 2, z, Leaf(2, z, "extra"), "no layer holds")

    def test_extra_leaf_outside_every_adjoined_set(self):
        T, V, P, Q = self.stack()
        self.refused(Q, 2, a, Leaf(2, a, "extra"), "no layer holds")
        self.refused(Q, 4, y, Leaf(4, y, "extra"), "no layer holds")
        # with more than one fault, the first in pre-order is named: the left
        # subtree's before the right's
        e1 = Leaf(1, E, "trivial")
        self.refused(V, 0, E, Conj(0, a, Leaf(1, a, "extra"), Conj(0, E, e1, e1)), "no layer holds")
        self.refused(V, 0, E, Conj(0, a, Conj(0, E, e1, e1), Leaf(1, a, "extra")), "invalid level")

    def test_pad_leaf_at_or_below_its_base_depth(self):
        T, V, P, Q = self.stack()
        assert Q.verify_rep(3, E, Leaf(3, E, "pad")) == (True, "")
        self.refused(Q, 2, E, Leaf(2, E, "pad"), "no layer holds")
        self.refused(P, 1, E, Leaf(1, E, "pad"), "no layer holds")
        self.refused(P, 3, a, Leaf(3, a, "pad"), "no layer holds")

    def test_trivial_leaf_for_a_word_other_than_e(self):
        T, V, P, Q = self.stack()
        assert Q.verify_rep(0, E, Leaf(0, E, "trivial")) == (True, "")
        self.refused(Q, 0, a, Leaf(0, a, "trivial"), "no layer holds")
        self.refused(T, 1, y, Leaf(1, y, "trivial"), "no layer holds")

    def test_leaf_of_a_retired_origin(self):
        T, V, P, Q = self.stack()
        self.refused(V, 0, E, Leaf(0, E, "base"), "no layer holds")
        # a node of no certificate kind, before a retired leaf to its right
        self.refused(V, 0, E, Conj(0, E, "leaf", Leaf(1, E, "base")), "unknown certificate node")

    def test_leaf_level_must_match_its_position(self):
        # a leaf of level L stands at position i < L when the builder (V for
        # V, P and Q's levels up to 2, Q above) closes level i: U_L ⊆ U_i
        T, V, P, Q = self.stack()
        assert V.verify_rep(1, y, Leaf(2, y, "extra")) == (True, "")
        assert Q.verify_rep(0, z, Leaf(4, z, "extra")) == (True, "")
        self.refused(V, 2, y, Leaf(1, y, "extra"), "leaf level mismatch")
        # P's builder V is 2 deep, and T is not enriched: neither closes it
        self.refused(P, 3, E, Leaf(4, E, "pad"), "leaf level mismatch")
        self.refused(T, 1, E, Leaf(2, E, "trivial"), "leaf level mismatch")
        self.refused(V, 3, E, Leaf(3, E, "trivial"), "outside 0..2")
        # a root is asked only about its own levels: a negative leaf stands nowhere
        self.refused(explicit_system(A, [[E], [E]]), 0, E, Leaf(-3, E, "explicit"), "leaf level mismatch")
        # a leaf's placement is tested before its layer: a's leaf holds nowhere
        self.refused(V, 0, E, Conj(0, E, Leaf(0, a, "extra"), Leaf(1, E, "trivial")), "leaf level mismatch")
        # one leaf object that stands at level 1 but not at level 2
        e1 = Leaf(1, E, "trivial")
        self.refused(V, 0, E, Conj(0, E, e1, Conj(1, E, e1, Leaf(2, E, "trivial"))), "leaf level mismatch")

    def test_conjugation_at_a_pad_level_or_a_layer_depth(self):
        T, V, P, Q = self.stack()
        pad4 = Leaf(4, E, "pad")
        self.refused(P, 3, E, Conj(3, E, pad4, pad4), "invalid level")
        self.refused(V, 2, y, Conj(2, E, Leaf(3, y, "extra"), Leaf(3, E, "pad")), "invalid level")
        self.refused(Q, 4, E, Conj(4, E, Leaf(5, E, "pad"), Leaf(5, E, "pad")), "invalid level")
        self.refused(T, 0, E, Conj(0, E, Leaf(1, E, "trivial"), Leaf(1, E, "trivial")), "invalid level")
        # below the pad, the levels are V's, which conjugation closes
        ok = Conj(1, a, Leaf(2, y, "extra"), Leaf(2, E, "trivial"))
        assert Q.verify_rep(1, multiply(multiply(a, y), a.inverse()), ok) == (True, "")

    def test_conjugator_outside_the_alphabet(self):
        T, V, P, Q = self.stack()
        e1 = Leaf(1, E, "trivial")
        self.refused(V, 0, E, Conj(0, z, e1, e1), "not an ambient letter")
        self.refused(V, 0, E, Conj(0, W("a b"), e1, e1), "not an ambient letter")
        # a node's own test comes before its children's, and its placement
        # before its own test
        self.refused(V, 0, E, Conj(0, z, Leaf(0, E, "trivial"), e1), "not an ambient letter")
        self.refused(V, 0, E, Conj(0, E, Conj(0, z, e1, e1), e1), "invalid level")
        assert Q.verify_rep(0, E, Conj(0, z, e1, e1)) == (True, "")

    def test_factor_product_differs_from_the_word(self):
        T, V, P, Q = self.stack()
        rep = Conj(1, a, Leaf(2, y, "extra"), Leaf(2, y, "extra"))
        self.refused(V, 1, multiply(a, power(y, 2)), rep, "factor product differs")
        self.refused(V, 2, power(y, 2), Leaf(2, y, "extra"), "factor product differs")

    def test_descendant_certificate_refused_by_its_ancestor(self):
        T, V, P, Q = self.stack()
        w = multiply(multiply(b, power(y, 2)), b.inverse())
        ans = V.member(0, w)
        assert ans.is_yes and Q.verify_rep(0, w, ans.rep) == (True, "")
        self.refused(T, 0, w, ans.rep, "")
        zans = Q.member(4, z)
        assert zans.is_yes and Q.verify_rep(4, z, zans.rep) == (True, "")
        self.refused(P, 4, z, zans.rep, "no layer holds")

    def test_rep_from_obj_refuses_a_nested_leaf(self):
        with pytest.raises(nbhd.NbhdError):
            nbhd.rep_from_obj(["leaf", 0, "e", "base", ["leaf", 0, "e", "trivial"]])
        with pytest.raises(nbhd.NbhdError):
            nbhd.rep_from_obj(["leaf", 0, "e"])


class TestMonotonicity:
    def test_smaller_base_certificates_carry_over(self):
        U = trivial_system(AB, 2)
        amb = AB.union(IdSet.of(24))
        small = enrich(U, nbhd.IDENTITY_BASE, amb)
        big = enrich(U, make_base(finite=[E, y, y.inverse()]), amb)
        for i in range(3):
            for w, rep in small.enumerate(i, Budget(nodes=80)):
                assert big.verify_rep(i, w, rep) == (True, "")
                assert big.member(i, w, Budget(nodes=200)).is_yes

    def test_fresh_members_supported_in_base_alphabet_are_base_members(self):
        # extension property: V_i ∩ F(X) = U_i, sampled over the enumeration
        U = trivial_system(AB, 2)
        V = cyclic_alphabet_extension(U, IdSet.of(24, 25))
        for i in range(3):
            for w, _ in V.enumerate(i, Budget(exp=2, nodes=200)):
                if wd.supported_in(w, AB):
                    assert U.member(i, w).is_yes, f"level {i}: {w}"


class TestLetterBound:
    def test_bound_arithmetic(self):
        assert 2 * 4**2 == 32
        assert 1 * 4**0 == 1

    def test_single_leaf_bound(self):
        rep = Leaf(1, power(y, 5), "extra")
        assert letter_bound_check(rep, 1, 1, 1)

    def test_conj_node_counts_conjugators(self):
        rep = Conj(0, a, Leaf(1, y, "extra"), Leaf(1, E, "extra"))
        # factors: a, y, e, a^-1 -> 1 + 1 + 0 + 1 = 3 <= 1*4
        assert letter_bound_check(rep, 1, 1, 0)

    def test_every_enumerated_certificate_respects_bound(self):
        for base_alpha in (A, AB):
            for n in (1, 2):
                U = trivial_system(base_alpha, n)
                V = cyclic_alphabet_extension(U, IdSet.of(30, 31))
                for i in range(n + 1):
                    for w, rep in V.enumerate(i, Budget(exp=2, nodes=150)):
                        assert letter_bound_check(rep, base_alpha.size, n, i), (
                            f"|X|={base_alpha.size} n={n} i={i} w={w}"
                        )


def _counts_exactly(rep, total):
    """Does ``letter_bound_check`` count exactly ``total`` letters in rep?
    At n = i the bound is |X| itself."""
    return letter_bound_check(rep, total, 0, 0) and not letter_bound_check(rep, total - 1, 0, 0)


class TestLetterCountPerNode:
    def test_shared_chain_is_counted_once_per_node(self):
        # flattening either chain gives 2^60 factors; each computation reads
        # each of its 61 distinct nodes once
        rep = Leaf(60, W("a b a"), "trivial")
        for i in reversed(range(60)):
            rep = Conj(i, E, rep, rep)
        t = time.perf_counter()
        assert _counts_exactly(rep, 2 * 2**60)
        assert time.perf_counter() - t < 0.1
        V = enrich(nbhd.pad_system(trivial_system(AB, 1), 61), nbhd.IDENTITY_BASE, AB)
        rep = Leaf(60, E, "pad")
        for i in reversed(range(60)):
            rep = Conj(i, E, rep, rep)
        checks = [
            lambda: V.verify_rep(0, E, rep) == (True, ""),
            lambda: rep_word(rep) == E,
            lambda: V.verify_rep(0, E, nbhd.invert_rep(rep)) == (True, ""),
            lambda: nbhd.rep_to_obj(rep)[:3] == ["conj", 0, "e"],  # not dumped: 2^60 leaves
            lambda: _counts_exactly(rep, 0),
        ]
        for check in checks:
            t = time.perf_counter()
            assert check()
            assert time.perf_counter() - t < 0.1

    def test_equals_the_per_factor_sum_on_the_verify_suite(self):
        # the stacks of the verify command's letter-bound suite
        budget, checked = Budget(leaf_len=6, exp=2, nodes=150), 0
        for size in (1, 2):
            for n in (1, 2):
                U = trivial_system(IdSet.from_range(0, size - 1), n)
                for V in (cyclic_alphabet_extension(U, IdSet.from_range(40, 41)),
                          identity_extension(U, IdSet.from_range(40, 41))):
                    for i in range(n + 1):
                        for w, rep in V.enumerate(i, budget):
                            checked += 1
                            factors = flatten_factors(rep)
                            total = sum(letters(f).size for f in factors)
                            assert _counts_exactly(rep, total), f"|X|={size} n={n} i={i} w={w}"
                            # the other computations against the same expansion
                            assert rep_word(rep) == functools.reduce(multiply, factors, E) == w
                            inverted = [f.inverse() for f in reversed(factors)]
                            assert flatten_factors(nbhd.invert_rep(rep)) == inverted
                            assert nbhd.rep_from_obj(nbhd.rep_to_obj(rep)) == rep
        assert checked == cli._suite_letter_bound(1)["trials"]


class TestSerialization:
    def test_system_roundtrip(self):
        U = trivial_system(A, 1)
        V = cyclic_alphabet_extension(U, IdSet.of(24))
        W_ = nbhd.PaddedNsys(V, 3)
        layers = nbhd.system_layers(W_)
        rebuilt = nbhd.system_from_layers(layers)
        assert rebuilt.depth == 3
        assert rebuilt.alphabet == W_.alphabet
        assert rebuilt.member(0, power(y, 2)).is_yes

    def test_stored_bound_must_be_the_derived_one(self):
        # the bound is derived from the alphabets and the adjoined set, and
        # a layer storing another value, or omitting it, is refused
        bounded = cyclic_alphabet_extension(trivial_system(AB, 1), IdSet.of(24))
        unbounded = enrich(trivial_system(AB, 1), make_base(cyclic=[b]), AB)
        assert (bounded.bounded_base_size, unbounded.bounded_base_size) == (2, None)
        for U, forged in ((bounded, 0), (bounded, 3), (bounded, None), (unbounded, 2)):
            layers = nbhd.system_layers(U)
            layers[-1]["bounded_base_size"] = forged
            if forged is None:
                del layers[-1]["bounded_base_size"]
            with pytest.raises(nbhd.NbhdError, match="bounded_base_size"):
                nbhd.system_from_layers(layers)
            assert nbhd.system_from_layers(nbhd.system_layers(U)).bounded_base_size == U.bounded_base_size

    def test_layers_above_an_ancestor(self):
        U = trivial_system(A, 1)
        V = cyclic_alphabet_extension(U, IdSet.of(24))
        W_ = nbhd.PaddedNsys(V, 3)
        assert W_.ancestors(U) == [W_, V] and W_.ancestors(W_) == []
        assert nbhd.system_layers(W_, U) == [V.node_obj(), W_.node_obj()]
        with pytest.raises(nbhd.NbhdError):
            nbhd.system_layers(W_, trivial_system(A, 1))

    def test_reloaded_deep_stack_enumerates(self):
        # a reloaded state has no enumeration cached; enumerating its top
        # layer must not recurse once per layer
        U = trivial_system(A, 1)
        for gid in range(30, 630):
            U = cyclic_alphabet_extension(U, IdSet.of(gid))
        rebuilt = nbhd.system_from_layers(nbhd.system_layers(U))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            items = rebuilt.enumerate(0, Budget(6, 2, 120))
            verdict = rebuilt.verify_rep(0, E, rebuilt.identity_rep(0))
        finally:
            sys.setrecursionlimit(limit)
        assert items[0][0] == E and len(items) == 120
        assert (E, rebuilt.identity_rep(0)) in items
        assert verdict == (True, "")

    def test_enrichment_over_a_pad_deeper_than_the_recursion_limit(self):
        # each level below the enrichment's depth is built from the one
        # above it; a cold level 0 must build them from the deepest upwards
        # rather than recurse once per level.  Warming the levels top-down
        # on a twin stack, which recurses once at most, gives the lists.
        bud = Budget(6, 2, 10)
        cold, warm = (
            cyclic_alphabet_extension(nbhd.pad_system(trivial_system(A, 1), 1200), IdSet.of(1))
            for _ in range(2)
        )
        for i in range(warm.depth, -1, -1):
            warm.enumerate(i, bud)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            items = cold.enumerate(0, bud)
        finally:
            sys.setrecursionlimit(limit)
        assert single(1) in {w for w, _ in items}
        for i in range(cold.depth + 1):
            assert [w for w, _ in cold.enumerate(i, bud)] == [w for w, _ in warm.enumerate(i, bud)]
        # a level-i certificate nests 1200 - i levels deep; check the short ones
        for i in range(cold.depth - 5, cold.depth + 1):
            for w, rep in cold.enumerate(i, bud):
                assert cold.verify_rep(i, w, rep) == (True, "")

    def test_certificate_of_a_stack_deeper_than_the_recursion_limit(self):
        # a certificate names the layer that holds each leaf, so neither its
        # size nor its checks grow with the number of layers stacked on it
        U = trivial_system(A, 1)
        for gid in range(30, 1230):
            U = cyclic_alphabet_extension(U, IdSet.of(gid))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            ans = U.member(1, E)
            text = json.dumps(nbhd.rep_to_obj(ans.rep))
            verdict = U.verify_rep(1, E, nbhd.rep_from_obj(json.loads(text)))
        finally:
            sys.setrecursionlimit(limit)
        assert ans.is_yes and ans.rep == Leaf(1, E, "trivial")
        assert verdict == (True, "")

    def test_level_gap_deeper_than_the_recursion_limit(self):
        # y is adjoined at level 1500, and its leaf stands at level 0 as it
        # is: the enrichment closes every level below its depth
        V = cyclic_alphabet_extension(nbhd.pad_system(trivial_system(A, 1), 1500), IdSet.of(24))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            rep = V.adjoined_rep(0, y)
            verdict = V.verify_rep(0, y, rep)
            cyc = verify_cyc_cert(CycCert(y, (y,), (y,), (1,), 0), V)
            back = nbhd.rep_from_obj(json.loads(json.dumps(nbhd.rep_to_obj(rep))))
        finally:
            sys.setrecursionlimit(limit)
        assert rep == Leaf(1500, y, "extra")
        assert verdict == (True, "") and cyc == (True, "") and back == rep

    def test_conjugation_chain_deeper_than_the_recursion_limit(self):
        # one Conj per level from 0 down to a pad leaf at level 5000, under
        # an {e} enrichment that closes every level below 5001; the walks
        # keep their own stacks.  Deep Conj trees recurse in == and repr, so
        # only words, verdicts and the flattened lists are compared.
        depth = 5000
        V = enrich(nbhd.pad_system(trivial_system(AB, 1), depth + 1), nbhd.IDENTITY_BASE, AB)
        xs = [(a, b)[i % 2] for i in range(depth)]
        rep = Leaf(depth, E, "pad")
        for i in reversed(range(depth)):
            rep = Conj(i, xs[i], rep, V.identity_rep(i + 1))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            word = rep_word(rep)
            factors = flatten_factors(rep)
            inv = nbhd.invert_rep(rep)
            inv_factors = flatten_factors(inv)
            obj = nbhd.rep_to_obj(rep)
            verdicts = V.verify_rep(0, word, rep), V.verify_rep(0, E, inv)
        finally:
            sys.setrecursionlimit(limit)
        assert word == E and verdicts == ((True, ""), (True, ""))
        # x_0 ... x_4999, the pad leaf, then each level's e and x⁻¹ upwards
        assert factors[:depth] == xs and factors[depth : depth + 3] == [E, E, xs[-1].inverse()]
        assert len(factors) == 3 * depth + 1
        # the inverse swaps each node's factors: x_0, e, x_1, e, ...
        assert inv_factors[:6] == [a, E, b, E, a, E] and len(inv_factors) == 3 * depth + 1
        levels = []
        while obj[0] == "conj":
            assert obj[2] == str(xs[obj[1]])
            assert obj[4] == nbhd.rep_to_obj(V.identity_rep(obj[1] + 1))
            levels.append(obj[1])
            obj = obj[3]
        assert levels == list(range(depth)) and obj == ["leaf", depth, "e", "pad"]

    def test_exhausted_search_skips_enumeration(self, monkeypatch):
        # a at level 0 over two nodes: the nesting steps at levels 0 and 1
        # spend both, so neither search may read a level list after it
        V = cyclic_alphabet_extension(trivial_system(AB, 2), IdSet.of(24))
        read, level = [], nbhd.Nsys._level

        def counted(self, i, budget):
            read.append(i)
            return level(self, i, budget)

        monkeypatch.setattr(nbhd.Nsys, "_level", counted)
        ans = V.member(0, a, Budget(6, 2, 2))
        assert (ans.verdict, ans.reason) == ("unknown", "search budget exhausted")
        assert read == []

    def test_rep_roundtrip(self):
        V = cyclic_alphabet_extension(trivial_system(A, 1), IdSet.of(24))
        ans = V.member(0, power(y, 3))
        obj = nbhd.rep_to_obj(ans.rep)
        back = nbhd.rep_from_obj(obj)
        assert back == ans.rep
        assert V.verify_rep(0, power(y, 3), back)[0]
