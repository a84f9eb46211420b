import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assgp import words as wd
from assgp import nbhd
from assgp.nbhd import make_base
from assgp.words import E, IdSet, Run

from conftest import W, naive_mul, naive_reduce, rand_word
from oracle import reference_letters


def letters_st(max_gen=3):
    non_zero = st.integers(min_value=-max_gen - 1, max_value=max_gen + 1).filter(
        lambda l: l != 0
    )
    return st.lists(non_zero, max_size=24)


class TestReduce:
    def test_cancellation(self):
        assert wd.reduce([1, -1, 2]) == W("b")

    def test_empty(self):
        assert wd.reduce([]) is E

    def test_hand_reduction(self):
        # a b b^-1 a -> a a
        assert wd.reduce([1, 2, -2, 1]) == W("a a")

    def test_idempotent_on_reduced(self):
        w = W("a b a^-1")
        assert wd.reduce(wd.flatten_letters(w)) == w

    @given(letters_st())
    def test_matches_oracle(self, raw):
        assert wd.flatten_letters(wd.reduce(raw)) == naive_reduce(raw)

    def test_random_order_confluence(self):
        # Reducing cancelling pairs in arbitrary order gives the same word.
        rng = random.Random(7)
        for _ in range(300):
            raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 16))]
            seq = list(raw)
            while True:
                spots = [i for i in range(len(seq) - 1) if seq[i] == -seq[i + 1]]
                if not spots:
                    break
                i = rng.choice(spots)
                del seq[i : i + 2]
            assert seq == naive_reduce(raw)
            assert wd.reduce(raw) == wd.reduce(seq)


class TestGroupOps:
    def test_multiply_examples(self):
        assert W("a b") * W("b^-1 a") == W("a a")
        w = W("a b a^-1")
        assert w * E == w
        assert E * w == w
        y1, y2 = wd.single(24), wd.single(25)
        assert (y1 * y2 * wd.single(0)) * (wd.single(0, -1) * y2.inverse()) == y1

    def test_inverse(self):
        assert W("a b").inverse() == W("b^-1 a^-1")
        assert E.inverse() is not None and E.inverse() == E

    def test_power(self):
        assert wd.power(W("a b a^-1"), 2) == W("a b b a^-1")
        assert wd.power(W("a"), 0) == E
        assert wd.power(W("a b"), -2) == (W("a b") * W("a b")).inverse()

    def test_conjugate(self):
        u, w = W("a"), W("b")
        assert u * w * u.inverse() == W("a b a^-1")

    @given(letters_st(), letters_st(), letters_st())
    def test_associativity(self, x, y, z):
        a, b, c = wd.reduce(x), wd.reduce(y), wd.reduce(z)
        assert (a * b) * c == a * (b * c)

    @given(letters_st())
    def test_inverse_law(self, x):
        a = wd.reduce(x)
        assert a * a.inverse() == E
        assert a.inverse().inverse() == a

    @given(letters_st(), letters_st())
    def test_product_matches_oracle(self, x, y):
        a, b = wd.reduce(x), wd.reduce(y)
        assert wd.flatten_letters(a * b) == naive_mul(
            wd.flatten_letters(a), wd.flatten_letters(b)
        )


class TestConcatenation:
    def test_examples(self):
        assert wd.is_concatenation(W("a b"), W("a"))
        assert not wd.is_concatenation(W("a b"), W("b^-1"))
        assert wd.is_concatenation(E, W("a b"))
        assert wd.is_concatenation(W("a b"), E)

    @given(letters_st(), letters_st())
    def test_concat_length(self, x, y):
        a, b = wd.reduce(x), wd.reduce(y)
        if wd.is_concatenation(a, b):
            assert (a * b).length == a.length + b.length
        else:
            assert (a * b).length < a.length + b.length


class TestLetters:
    def test_examples(self):
        assert set(wd.letters(W("a b^-1 a"))) == {0, 1}
        assert not wd.letters(E)
        run = wd.fresh_run(1, 100)
        sup = wd.letters(run)
        assert sup.intervals == ((1, 100),)
        assert sup.size == 100

    @given(st.lists(letters_st(), min_size=1, max_size=5))
    def test_subadditivity(self, parts):
        ws = [wd.reduce(p) for p in parts]
        prod = E
        for w in ws:
            prod = prod * w
        union = IdSet.empty()
        for w in ws:
            union = union.union(wd.letters(w))
        assert wd.letters(prod).issubset(union)

    def test_supported_in(self):
        assert not wd.supported_in(W("a b"), IdSet.of(0))
        assert wd.supported_in(W("a b"), IdSet.of(0, 1))
        assert wd.supported_in(E, IdSet.empty())


class TestCyclic:
    def test_decompose_examples(self):
        assert wd.cyclic_decompose(W("a b a^-1")) == (W("a"), W("b"))
        assert wd.cyclic_decompose(W("a b")) == (E, W("a b"))
        w = W("a b a b^-1 a^-1")
        p, c = wd.cyclic_decompose(w)
        assert p * c * p.inverse() == w
        assert wd.is_concatenation(c, c)
        assert wd.cyclic_decompose(wd.single(0, -1)) == (E, wd.single(0, -1))

    def test_decompose_empty_raises(self):
        with pytest.raises(wd.EmptyWord):
            wd.cyclic_decompose(E)

    def test_member_examples(self):
        c = W("a b a^-1")
        assert wd.cyclic_member(W("a b b a^-1"), c) == 2
        assert wd.cyclic_member(E, c) == 0
        assert wd.cyclic_member(W("a b"), W("b a")) is None

    def test_member_empty_generator(self):
        with pytest.raises(wd.EmptyGenerator):
            wd.cyclic_member(W("a"), E)

    def test_member_powers(self, rng):
        for _ in range(150):
            c = rand_word(rng, [0, 1, 2], 6)
            if c.is_identity():
                continue
            k = rng.randint(-20, 20)
            assert wd.cyclic_member(wd.power(c, k), c) == k
            off = wd.power(c, k) * wd.single(3)
            assert wd.cyclic_member(off, c) is None


class TestRuns:
    def test_fresh_run(self):
        f = wd.fresh_run(5, 3)
        assert wd.flatten_letters(f) == [6, 7, 8]
        assert wd.fresh_run(0, 1) == wd.single(0)
        with pytest.raises(ValueError):
            wd.fresh_run(0, 0)

    def test_huge_run_arithmetic(self):
        big = wd.fresh_run(0, 1 << 32)
        assert big.length == 1 << 32
        assert len(big.segments) == 1
        assert (big * big.inverse()) is E or (big * big.inverse()) == E
        half, rest = wd.split_at(big, 1 << 31)
        assert half.length == rest.length == 1 << 31
        assert half * rest == big

    def test_run_junction_bulk_cancel(self):
        f = wd.fresh_run(10, 1 << 20)
        g = wd.single(0)
        w = f * g * f.inverse()
        assert len(w.segments) == 3
        assert w * w.inverse() == E
        assert wd.cyclic_decompose(w) == (f, g)

    def test_partial_run_cancel(self):
        f = wd.fresh_run(0, 10)
        head = wd.subword(f, 0, 4)
        tail = wd.subword(f, 4, 10)
        assert head * tail == f
        assert f * tail.inverse() == head

    def test_equality_across_segmentations(self):
        f = wd.fresh_run(0, 6)
        a, b = wd.split_at(f, 3)
        rebuilt = a * b
        assert rebuilt == f
        assert hash(rebuilt) == hash(f)
        chunks = wd.reduce(wd.flatten_letters(f))
        assert chunks == f
        assert hash(chunks) == hash(f)

    def test_descending_runs(self):
        f = wd.fresh_run(0, 5)
        finv = f.inverse()
        assert wd.flatten_letters(finv) == [-5, -4, -3, -2, -1]
        assert finv.inverse() == f


class TestText:
    @pytest.mark.parametrize(
        "text",
        ["e", "a", "b^-1", "a b^-1 a", "x30 a", "x4", "x4^-1 d", "x[2..9]", "x[9..2]", "x[2..9]^-1"],
    )
    def test_roundtrip(self, text):
        w = wd.parse_word(text)
        assert wd.parse_word(str(w)) == w

    def test_parse_aliases(self):
        assert wd.parse_word("y[3..5]") == wd.fresh_run(3, 3)
        assert wd.parse_word("x0") == W("a")

    def test_parse_reduces(self):
        assert wd.parse_word("a a^-1 b") == W("b")

    def test_bad_tokens(self):
        for bad in ["A", "a^2", "e^-1", "x[..3]", "[1..2]", "x-1"]:
            with pytest.raises(wd.WordError):
                wd.parse_word(bad)

    def test_descending_run_is_spelled_out_up_to_the_cap(self):
        w = wd.parse_word("x[9..2]")
        assert wd.flatten_letters(w) == list(range(10, 2, -1))
        assert len(wd.parse_word(f"x[{wd.MATERIALIZE_CAP - 1}..0]").segments) == 1
        with pytest.raises(wd.WordError, match=f"cap {wd.MATERIALIZE_CAP}"):
            wd.parse_word(f"x[{wd.MATERIALIZE_CAP}..0]")

    def test_x_alone_is_letter_23(self):
        assert wd.parse_word("x") == wd.single(23)

    def test_run_formatting(self):
        f = wd.fresh_run(2, 4)
        assert str(f) == "x[2..5]"
        assert str(f.inverse()) == "x[2..5]^-1"


class TestIdSet:
    def test_basic(self):
        s = IdSet.from_ids([0, 1, 2, 7])
        assert s.intervals == ((0, 2), (7, 7))
        assert 1 in s and 7 in s and 5 not in s
        assert s.size == 4

    def test_ops(self):
        a = IdSet.from_range(0, 9)
        b = IdSet.from_ids([3, 4, 20])
        assert b.intersection(a) == IdSet.from_range(3, 4)
        assert a.difference(b).size == 8
        assert IdSet.from_range(3, 4).issubset(a)
        assert not b.issubset(a)
        assert a.isdisjoint(IdSet.of(100))
        assert a.union(IdSet.from_range(10, 12)) == IdSet.from_range(0, 12)

    def test_huge(self):
        big = IdSet.from_range(0, 1 << 40)
        assert big.size == (1 << 40) + 1
        assert (1 << 39) in big


class TestHashEquality:
    def test_hash_consistency(self, rng):
        for _ in range(100):
            w = rand_word(rng, [0, 1, 2], 10)
            again = wd.reduce(wd.flatten_letters(w))
            assert w == again and hash(w) == hash(again)

    def test_dict_usage(self):
        d = {W("a b"): 1, W("b a"): 2, E: 3}
        assert d[W("a b")] == 1
        assert d[wd.single(0) * wd.single(1)] == 1
        assert d[E] == 3


def _spell(letters):
    return " ".join(f"x{abs(l) - 1}" + ("^-1" if l < 0 else "") for l in letters)


def _run_token(letters):
    """The one ``x[i..j]`` token (maybe inverted) that spells ``letters``,
    or None: same signs, generator ids one apart in one direction."""
    gs = [abs(l) - 1 for l in letters]
    steps = {b - a for a, b in zip(gs, gs[1:])}
    if len(steps) != 1 or not steps <= {1, -1} or len({l > 0 for l in letters}) != 1:
        return None
    return f"x[{gs[0]}..{gs[-1]}]" if letters[0] > 0 else f"x[{gs[-1]}..{gs[0]}]^-1"


def _chunk_word(chunk, data, nest=2):
    """A Word spelling the reduced letters ``chunk``, built by a drawn public
    constructor: reduce, parse_word (letter by letter or one run token),
    fresh_run, inverse, or split_at cutting it out of a longer word."""
    hows = ["reduce", "parse", "run"] + (["inverse", "split"] if nest else [])
    how = data.draw(st.sampled_from(hows))
    if how == "reduce":
        return wd.reduce(chunk)
    if how == "inverse":
        return _chunk_word([-l for l in reversed(chunk)], data, nest - 1).inverse()
    if how == "split":
        # one more letter at each end, chosen to extend a stretch when it can
        pre, post = chunk[0] - 1 or 2, chunk[-1] + 1 or -2
        w = _chunk_word([pre, *chunk, post], data, nest - 1)
        return wd.subword(w, 1, 1 + len(chunk))
    up = all(b == a + 1 for a, b in zip(chunk, chunk[1:]))
    if how == "run" and up and chunk[0] > 0:
        return wd.fresh_run(chunk[0] - 1, len(chunk))
    if how == "run" and up and chunk[-1] < 0:
        return wd.fresh_run(-chunk[-1] - 1, len(chunk)).inverse()
    token = _run_token(chunk)
    return wd.parse_word(token if token and data.draw(st.booleans()) else _spell(chunk))


def _resegment(letters, data):
    """A Word spelling ``letters`` (freely reduced) as the product of drawn
    chunks, each built by :func:`_chunk_word`."""
    acc, i = E, 0
    while i < len(letters):
        m = data.draw(st.integers(1, len(letters) - i))
        acc = acc * _chunk_word(letters[i : i + m], data)
        i += m
    return acc


def canonical_segments(letters):
    """The oracle for a word's segments: each maximal stretch l, l + 1, ...
    (letters whose value minus position is constant) of RUN_MIN or more
    letters is one Run, and the letters between runs form one tuple."""
    segs = []
    for _, group in itertools.groupby(enumerate(letters), key=lambda p: p[1] - p[0]):
        stretch = tuple(l for _, l in group)
        if len(stretch) >= wd.RUN_MIN:
            segs.append(Run(stretch[0], len(stretch)))
        elif segs and isinstance(segs[-1], tuple):
            segs[-1] += stretch
        else:
            segs.append(stretch)
    return tuple(segs)


def _stretch(g, n, sign):
    """x_g x_{g+1} ... x_{g+n-1}, or its inverse, as letters."""
    up = [g + 1 + t for t in range(n)]
    return up if sign > 0 else [-l for l in reversed(up)]


stretch_st = st.builds(_stretch, st.integers(0, 6), st.integers(1, 5), st.sampled_from([1, -1]))
reduced_st = st.lists(st.one_of(stretch_st, letters_st(6)), max_size=6).map(
    lambda blocks: naive_reduce([l for b in blocks for l in b])
)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(reduced_st, st.data())
    def test_one_segmentation(self, letters, data):
        a = wd.reduce(letters)
        b = _resegment(letters, data)
        assert wd.flatten_letters(b) == letters
        assert a.segments == b.segments == canonical_segments(letters)
        assert str(a) == str(b) and hash(a) == hash(b)
        assert wd.parse_word(str(a)).segments == a.segments
        inv = [-l for l in reversed(letters)]
        assert b.inverse().segments == canonical_segments(inv)

    @pytest.mark.parametrize(
        "v, text",
        [(wd.fresh_run(1, 2), "b c"), (wd.single(0) * wd.fresh_run(1, 3), "a b c d")],
        ids=["fresh-run-of-2", "letter-then-run"],
    )
    def test_equal_words_are_spelled_alike(self, v, text):
        w = W(text)
        assert v.segments == w.segments
        assert str(v) == str(w) and hash(v) == hash(w)


def _run_word(start, count, step, sign):
    """count letters over ids start.., walked up (step 1) or down (step -1),
    all with the given sign."""
    lo, hi = start, start + count - 1
    w = wd.parse_word(f"x[{lo}..{hi}]" if step > 0 else f"x[{hi}..{lo}]")
    return w if sign > 0 else w.inverse()


run_piece = st.builds(
    _run_word,
    st.integers(0, 5),
    st.integers(2, 5),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
pieces_st = st.lists(st.one_of(run_piece, letters_st(5).map(wd.reduce)), max_size=5)


def _product(pieces):
    acc = E
    for p in pieces:
        acc = acc * p
    return acc


def _mutate(letters, i, data):
    """``letters`` with letter i replaced so that the result stays reduced."""
    bad = {letters[i]}
    if i > 0:
        bad.add(-letters[i - 1])
    if i + 1 < len(letters):
        bad.add(-letters[i + 1])
    choices = [l for g in range(1, 9) for l in (g, -g) if l not in bad]
    return letters[:i] + [data.draw(st.sampled_from(choices))] + letters[i + 1 :]


class TestSegmentComparator:
    def test_runs_that_share_a_first_letter(self):
        up, down = wd.fresh_run(3, 3), W("x[5..3]")  # x3 x4 x5 and x5 x4 x3
        assert up != W("x[3..1]")
        assert up != W("x3^-1 x4^-1 x5^-1")
        assert up != down.inverse()
        assert up == W("x3") * wd.fresh_run(4, 2)
        assert down == W("x[5..4]") * W("x3")
        assert up.inverse() == wd.reduce([-6, -5, -4])

    @settings(max_examples=150, deadline=None)
    @given(pieces_st, st.data())
    def test_equality_is_letter_equality(self, pieces, data):
        v_letters = wd.flatten_letters(_product(pieces))
        how = data.draw(st.sampled_from(["same", "mutated", "other"]))
        if how == "same" or (how == "mutated" and not v_letters):
            w_letters = list(v_letters)
        elif how == "mutated":
            i = data.draw(st.integers(0, len(v_letters) - 1))
            w_letters = _mutate(v_letters, i, data)
        else:
            w_letters = wd.flatten_letters(_product(data.draw(pieces_st)))
        v, w = _resegment(v_letters, data), _resegment(w_letters, data)
        assert (v == w) == (v_letters == w_letters)
        assert (w == v) == (v_letters == w_letters)

    @settings(max_examples=150, deadline=None)
    @given(pieces_st, st.integers(-5, 5), st.data())
    def test_cyclic_member_of_powers(self, pieces, k, data):
        c = _product(pieces)
        if c.is_identity():
            return
        c = _resegment(wd.flatten_letters(c), data)
        ck = wd.flatten_letters(wd.power(c, k))
        assert wd.cyclic_member(_resegment(ck, data), c) == k
        if not ck:
            return
        i = data.draw(st.integers(0, len(ck) - 1))
        off = _mutate(ck, i, data)
        got = wd.cyclic_member(_resegment(off, data), c)
        # one changed letter keeps the length, so only c^-k can still match
        if off == wd.flatten_letters(wd.power(c, -k)):
            assert got == -k
        else:
            assert got is None


def _adjoining(finite=(), cyclic=()):
    """The one-layer run that adjoins the given set to a trivial root."""
    extra = make_base(finite, cyclic)
    alphabet = IdSet.empty()
    for w in extra.finite + extra.cyclic:
        alphabet = alphabet.union(wd.letters(w))
    return nbhd.enrich(nbhd.trivial_system(IdSet.empty(), 1), extra, alphabet)


def _power_exponent(w, c):
    """The k with w = c^k by brute force over |k| <= |w|, or None."""
    return next((k for k in range(-w.length, w.length + 1) if wd.power(c, k) == w), None)


def _conjugated(conj, core):
    return conj * core * conj.inverse()


generator_st = st.one_of(
    # p != e whenever the conjugator survives reduction, e.g. a b a^-1
    st.builds(_conjugated, pieces_st.map(_product), pieces_st.map(_product)),
    st.builds(wd.fresh_run, st.integers(0, 6), st.integers(1, 6)),
    st.builds(lambda start, k: wd.fresh_run(start, k).inverse(), st.integers(0, 6), st.integers(1, 6)),
    st.sampled_from([W("a b a^-1"), W("a^-1 b c c a"), W("x[2..6] a x[2..6]^-1")]),
).filter(lambda c: not c.is_identity())


class TestCyclicParts:
    @settings(max_examples=300, deadline=None)
    @given(generator_st, st.integers(-4, 4), st.data())
    def test_member_and_base_match_brute_force(self, c, k, data):
        ck = wd.flatten_letters(wd.power(c, k))
        how = data.draw(st.sampled_from(["power", "boundary", "period", "prefix", "other"]))
        if how == "power" or not ck:
            letters = ck
        elif how == "prefix":
            # a prefix of c^(k±1) that is longer than c^k: the period of a
            # power, with a length that may not be one
            longer = wd.flatten_letters(wd.power(c, k + (1 if k > 0 else -1)))
            letters = longer[: data.draw(st.integers(len(ck), len(longer)))]
        elif how == "boundary":
            # the length of c^k, with the first or the last letter changed
            letters = _mutate(ck, data.draw(st.sampled_from([0, len(ck) - 1])), data)
        elif how == "period" and len(ck) > 2:
            # the boundary letters of c^k, with an inner letter changed
            letters = _mutate(ck, data.draw(st.integers(1, len(ck) - 2)), data)
        else:
            letters = wd.flatten_letters(_product(data.draw(pieces_st)))
        w = _resegment(letters, data)
        want = _power_exponent(w, c)
        if how == "power":
            assert want == k
        assert wd.cyclic_member(w, c) == want
        assert wd.cyclic_exponent(w, wd.cyclic_parts(c)) == want
        assert (_adjoining(cyclic=[c]).adjoined_rep(1, w) is not None) == (want is not None)
        with pytest.raises(wd.EmptyGenerator):
            wd.cyclic_member(w, E)

    def test_parts_are_stored_once_and_do_not_compare(self):
        gens = [W("a b a^-1"), wd.fresh_run(3, 5), W("b^-1 c")]
        one = make_base(finite=[W("a"), W("a^-1")], cyclic=gens)
        two = make_base(finite=[W("a^-1"), W("a")], cyclic=[W(str(c)) for c in reversed(gens)])
        # the keyed parts live in the adjoining layer, not in the set
        assert one == two and hash(one) == hash(two)
        assert one.describe() == two.describe()
        assert "parts" not in repr(one) and vars(one) == {"finite": one.finite, "cyclic": one.cyclic}
        layer = _adjoining(one.finite, one.cyclic)
        assert layer.node_obj()["extra"] == one.describe()
        # each generator's parts are one object under each of its keys: e's,
        # then p's first and p⁻¹'s last letter when p != e, else core's ends
        # and core⁻¹'s (letter ±(id + 1))
        ends = {gens[0]: {(1, -1)}, gens[1]: {(4, 8), (-8, -4)}, gens[2]: {(-2, 3), (-3, 2)}}
        for c, keys in ends.items():
            keyed = {key: x for key, cands in layer._ends.items() for x in cands if x == wd.cyclic_parts(c)}
            assert set(keyed) == {(None, None), *keys}
            assert len({id(x) for x in keyed.values()}) == 1
        assert layer._ends[(1, 1)] == [W("a")] and layer._ends[(-1, -1)] == [W("a^-1")]
        # a layer stacked on it in its run keeps the same part objects
        upper = nbhd.enrich(layer, nbhd.IDENTITY_BASE, layer.alphabet)
        assert upper._ends[(None, None)] == [*layer._ends[(None, None)], E]
        assert all(x is y for key, cands in layer._ends.items() for x, y in zip(cands, upper._ends[key]))
        p, p_inv, core, core_inv = wd.cyclic_parts(W("a b a^-1"))
        assert (p, p_inv, core, core_inv) == (W("a"), W("a^-1"), W("b"), W("b^-1"))

def _alphabet(pairs):
    """An id set of intervals [lo, lo + width] from drawn (lo, width) pairs."""
    return IdSet.from_intervals((lo, lo + width) for lo, width in pairs)


alphabet_st = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=4).map(
    _alphabet
)


class TestSupportedIn:
    @settings(max_examples=200, deadline=None)
    @given(pieces_st, alphabet_st, alphabet_st, st.data())
    def test_matches_support_subset(self, pieces, alpha, beta, data):
        # one word against two alphabets in turn: no answer may depend on
        # an earlier check
        w = _resegment(wd.flatten_letters(_product(pieces)), data)
        for al in (alpha, beta, alpha, beta):
            assert wd.supported_in(w, al) == wd.letters(w).issubset(al)

    def test_one_word_against_several_alphabets(self):
        # w spans ids 1..9, its lowest id in the last segment; each answer
        # must come from the alphabet at hand, not from an earlier call
        w = W("x[8..9]^-1 x[3..6] b")
        cases = [
            (IdSet.from_range(0, 9), True),
            (IdSet.from_intervals([(1, 6), (8, 9)]), True),
            (IdSet.from_intervals([(1, 5), (8, 9)]), False),
            (IdSet.from_range(1, 9), True),
            (IdSet.from_range(2, 9), False),
            (IdSet.from_intervals([(0, 1), (3, 9)]), True),
            (IdSet.from_range(0, 8), False),
        ]
        for alpha, expect in cases * 2:
            assert wd.supported_in(w, alpha) is expect, alpha

    def test_ids_beyond_32_bits(self):
        big = 1 << 40
        w = wd.fresh_run(big, 3) * wd.single(big + 10, -1)
        assert wd.supported_in(w, IdSet.from_intervals([(big, big + 2), (big + 10, big + 10)]))
        assert not wd.supported_in(w, IdSet.from_range(big, big + 9))
        low = wd.single(1) * wd.single(big + 1)
        assert wd.supported_in(low, IdSet.from_range(0, big + 1))
        assert not wd.supported_in(low, IdSet.from_range(2, big + 1))

    @pytest.mark.parametrize("lo, hi", [(0, 3), (5, 9), ((1 << 32) - 2, (1 << 32) + 3), (1 << 40, (1 << 40) + 4)])
    def test_one_interval_bounds(self, lo, hi):
        alpha = IdSet.from_range(lo, hi)
        below = [g for g in (lo - 1,) if g >= 0]
        cases = [wd.single(g, s) for g in below + [lo, hi, hi + 1] for s in (1, -1)]
        for g in below + [hi]:  # runs over g..g+3, across the bound at g or g + 1
            run = wd.fresh_run(g, 4)
            cases += [run, run.inverse()]
        cases += [wd.fresh_run(lo, hi - lo + 1), wd.fresh_run(lo, hi - lo + 1).inverse()]
        # a tuple with a foreign letter between two of alpha's
        for g in below + [hi + 1]:
            mid = wd.single(lo) * wd.single(g, -1) * wd.single(hi)
            assert len(mid.segments) == 1 and type(mid.segments[0]) is tuple
            cases += [mid, mid.inverse()]
        for w in cases:
            assert wd.supported_in(w, alpha) == wd.letters(w).issubset(alpha), (w, alpha)
        assert wd.supported_in(wd.fresh_run(lo, hi - lo + 1), alpha)
        assert not wd.supported_in(wd.single(hi + 1, -1), alpha)


def _assert_conjugate(x, w):
    """conjugate(x, w, x⁻¹) is the product x·w·x⁻¹, with its text, whether or
    not w's text was known."""
    x_inv = x.inverse()
    want = wd.multiply(wd.multiply(x, w), x_inv)
    for known in (False, True):
        w = wd.Word(w.segments)  # a copy whose text is not known yet
        if known:
            str(w)
        got = wd.conjugate(x, w, x_inv)
        assert got.segments == want.segments
        assert got == want and hash(got) == hash(want)
        assert str(got) == wd.format_word(want)
    return got


def _near_letters(w):
    """Letters that cancel against, or start a stretch with, w's first or
    last letter, or come one short of doing so."""
    if w.is_identity():
        return []
    near = {s * (b + d) for b in (w.first, w.last) for d in (-2, -1, 0, 1, 2) for s in (1, -1)}
    return sorted(l for l in near if l)


class TestConjugate:
    @settings(max_examples=300, deadline=None)
    @given(pieces_st, st.data())
    def test_matches_two_multiplies(self, pieces, data):
        w = _resegment(wd.flatten_letters(_product(pieces)), data)
        choices = _near_letters(w) + [1, -1, 7, -7]
        a = data.draw(st.sampled_from(choices))
        x = wd.reduce([a]) if data.draw(st.booleans()) else E
        got = _assert_conjugate(x, w)
        letters = wd.flatten_letters(w)
        if not x.is_identity():
            letters = naive_reduce([a, *letters, -a])
        assert got.segments == canonical_segments(letters)

    @pytest.mark.parametrize(
        "x, w, want",
        [
            ("a", "x[1..4]", "x[0..4] a^-1"),  # stretch across the front junction
            ("c", "x[1..4]", "c x[1..4] c^-1"),  # one Run, joined at both ends
            ("x29", "x[1..4]^-1", "x29 x[1..4]^-1 x29^-1"),
            ("d", "b c^-1", "d b c^-1 d^-1"),  # one tuple
            ("x30", "x[1..4] c x[6..9]", "x30 x[1..4] c x[6..9] x30^-1"),  # Runs at both ends
            ("d^-1", "x[1..2]", "d^-1 x[1..3]"),  # stretch across the back junction
            ("c^-1", "b", "c^-1 b c"),
            ("a^-1", "a b", "b a"),  # cancellation at the front
            ("b", "a b", "b a"),  # cancellation at the back
            ("a^-1", "a b a^-1", "b"),  # cancellation at both ends
            ("b", "b a b^-1", "b b a b^-1 b^-1"),
            ("e", "x[1..4] b", "x[1..4] b"),
        ],
    )
    def test_cases(self, x, w, want):
        got = _assert_conjugate(W(x), W(w))
        assert got == W(want) and str(got) == want

    def test_identity_conjugator_returns_w(self):
        w = W("x[1..4] b")
        assert wd.conjugate(E, w, E) is w

    def test_fast_path_keeps_the_conjugator_segments(self):
        x = wd.single(9)
        x_inv = x.inverse()
        got = wd.conjugate(x, W("x[1..4]"), x_inv)
        assert got.segments[0] is x.segments[0] and got.segments[-1] is x_inv.segments[0]


def _junction_kind(v, w):
    """How v's last segment meets w's first: the junction's kind ("cancel",
    "stretch" across it, "tuples" for a clean junction of two tuples, or
    "clean" at a Run) and the two segments' kinds."""
    x, y = v.last, w.first
    if x == -y:
        kind = "cancel"
    elif x + 1 == y:
        kind = "stretch"
    elif type(v.segments[-1]) is tuple and type(w.segments[0]) is tuple:
        kind = "tuples"
    else:
        kind = "clean"
    return kind, type(v.segments[-1]).__name__, type(w.segments[0]).__name__


class TestMultiply:
    @settings(max_examples=300, deadline=None)
    @given(pieces_st, pieces_st, st.data())
    def test_segments_are_canonical(self, v_pieces, w_pieces, data):
        v_letters = wd.flatten_letters(_product(v_pieces))
        w_letters = wd.flatten_letters(_product(w_pieces))
        if v_letters:
            # w starts with a stretch from a letter near v's end letters
            a = data.draw(st.sampled_from(_near_letters(wd.reduce(v_letters))))
            n = data.draw(st.integers(1, 4 if a > 0 else min(4, -a)))
            w_letters = naive_reduce([*range(a, a + n), *w_letters])
        v, w = _resegment(v_letters, data), _resegment(w_letters, data)
        got = wd.multiply(v, w)
        assert got.segments == canonical_segments(naive_mul(v_letters, w_letters))
        assert wd.multiply(w.inverse(), v.inverse()) == got.inverse()

    @pytest.mark.parametrize(
        "v, w, junction, want",
        [
            ("a b", "b^-1 c", ("cancel", "tuple", "tuple"), "a c"),
            ("x[0..3]", "x[1..3]^-1", ("cancel", "Run", "Run"), "a"),
            ("x[0..3]", "d^-1 b", ("cancel", "Run", "tuple"), "x[0..2] b"),
            ("a x4", "x[2..4]^-1", ("cancel", "tuple", "Run"), "a d^-1 c^-1"),
            ("c a", "b c", ("stretch", "tuple", "tuple"), "c x[0..2]"),
            ("x[0..3]", "x[4..6]", ("stretch", "Run", "Run"), "x[0..6]"),
            ("x[0..3]", "x4 a", ("stretch", "Run", "tuple"), "x[0..4] a"),
            ("x[2..4]^-1", "b^-1", ("stretch", "Run", "tuple"), "x[1..4]^-1"),
            ("c a", "x[1..3]", ("stretch", "tuple", "Run"), "c x[0..3]"),
            ("a b", "d c", ("tuples", "tuple", "tuple"), "a b d c"),
            ("x[0..3]", "x[5..7]", ("clean", "Run", "Run"), "x[0..3] x[5..7]"),
            ("x[0..3]", "a", ("clean", "Run", "tuple"), "x[0..3] a"),
            ("a", "x[2..4]", ("clean", "tuple", "Run"), "a x[2..4]"),
        ],
    )
    def test_cases(self, v, w, junction, want):
        v, w = W(v), W(w)
        assert _junction_kind(v, w) == junction
        got = wd.multiply(v, w)
        letters = naive_mul(wd.flatten_letters(v), wd.flatten_letters(w))
        assert got.segments == canonical_segments(letters)
        assert str(got) == want

    def test_clean_junction_keeps_the_segments(self):
        v, w = W("x[0..3] a"), W("c x[5..7]")
        got = wd.multiply(v, w)
        assert got.segments == (v.segments[0], (1, 3), w.segments[1])
        assert got.segments[0] is v.segments[0] and got.segments[-1] is w.segments[-1]


class TestOccurs:
    @settings(max_examples=150, deadline=None)
    @given(pieces_st, st.integers(0, 11), st.data())
    def test_matches_letters(self, pieces, gen, data):
        w = _resegment(wd.flatten_letters(_product(pieces)), data)
        assert wd.occurs(gen, w) == (gen in wd.letters(w))
        assert wd.occurs(gen, w.inverse()) == wd.occurs(gen, w)


def _drawn_letters(rng, blocks):
    """Reduced letters from ``blocks`` drawn pieces, each a stretch of 1..6
    letters over ids 0..13 (either sign) or 1..4 loose letters over ids 0..8,
    so that the word mixes Runs and explicit tuples."""
    out = []
    for _ in range(blocks):
        if rng.random() < 0.5:
            up = _stretch(rng.randint(0, 8), rng.randint(1, 6), 1)
            out += up if rng.random() < 0.5 else [-l for l in reversed(up)]
        else:
            out += [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
    return naive_reduce(out)


class TestJunctionWalk:
    """``multiply``, ``junction_cancels`` and ``cyclic_decompose`` against
    the reduction of the spelled-out letters.  w begins with the inverse of
    a drawn suffix of v, so the cancellation crosses several segments and
    cuts runs short beside tuples, which hypothesis draws seldom reach."""

    def test_products_match_the_letter_reduction(self):
        rng = random.Random(2803)
        crossings = 0
        for _ in range(3000):
            v_letters = _drawn_letters(rng, rng.randint(0, 5))
            k = rng.randint(0, len(v_letters))
            w_letters = naive_reduce(
                [-l for l in reversed(v_letters[len(v_letters) - k :])]
                + _drawn_letters(rng, rng.randint(0, 4))
            )
            v, w = wd.reduce(v_letters), wd.reduce(w_letters)
            want = wd.reduce(wd.flatten_letters(v) + wd.flatten_letters(w))
            got = wd.multiply(v, w)
            assert got.segments == want.segments == canonical_segments(wd.flatten_letters(want))
            assert got.length == want.length
            m = wd.junction_cancels(v, w)
            assert v.length + w.length - 2 * m == want.length
            if v.segments:
                last = v.segments[-1]
                crossings += m > (last.count if isinstance(last, Run) else len(last))
        assert crossings > 300  # products whose cancellation crosses a segment of v

    def test_cyclic_decompose_matches_the_letter_reduction(self):
        rng = random.Random(2804)
        for _ in range(1000):
            p_letters = _drawn_letters(rng, rng.randint(0, 3))
            core = _drawn_letters(rng, rng.randint(1, 3))
            letters = naive_reduce(p_letters + core + [-l for l in reversed(p_letters)])
            if not letters:
                continue
            w = wd.reduce(letters)
            m = (2 * len(letters) - len(naive_mul(letters, letters))) // 2
            assert wd.junction_cancels(w, w) == m
            p, c = wd.cyclic_decompose(w)
            want_p, want_c = wd.reduce(letters[:m]), wd.reduce(letters[m : len(letters) - m])
            assert p.segments == want_p.segments and p.length == want_p.length == m
            assert c.segments == want_c.segments and c.length == want_c.length


class TestLetterCount:
    @settings(max_examples=200, deadline=None)
    @given(pieces_st, st.data())
    def test_matches_the_spelled_out_support(self, pieces, data):
        w = _resegment(wd.flatten_letters(_product(pieces)), data)
        assert wd.letters(w) == reference_letters(w)
        assert wd.letter_count(w) == wd.letters(w).size
