import itertools
import random

import pytest

from assgp import cancel as cc
from assgp.cancel import (
    GenParams,
    HypInstance,
    check_hypothesis,
    collapse_check,
    eta_invariance_check,
    gen_instances,
    gen_same_sign,
    make_setting,
    same_sign_decompose,
    same_sign_not_in_FX,
    separator_product,
)
from assgp.words import E, IdSet, flatten_letters, letters, multiply, power, single

from conftest import W, naive_reduce

X = IdSet.of(0, 1)
a, b = single(0), single(1)


def setting(k=2, g=a, h=b):
    return make_setting(X, g, h, k)


class TestSetting:
    def test_g0_shape(self):
        st = setting()
        assert str(st.g0) == "c d a d^-1 c^-1 b"
        assert st.g0.length == 2 * 2 + 1 + 1

    def test_empty_h(self):
        st = setting(h=E)
        assert st.g0.length == 2 * st.k + st.g.length
        assert st.g0 == multiply(multiply(st.f, a), st.f.inverse())

    def test_big_k_compressed(self):
        st = setting(k=1 << 16)
        assert st.g0.length == 2 * (1 << 16) + 2
        assert len(st.g0.segments) <= 5

    def test_f_sub(self):
        st = setting(k=4)
        assert st.f_sub(1) == st.f
        assert st.f_sub(3).length == 2
        assert multiply(st.f_sub(1), st.f.inverse()) == E

    def test_trivial_g_rejected(self):
        with pytest.raises(cc.TrivialG):
            make_setting(X, E, b, 2)

    def test_g_outside_alphabet_rejected(self):
        with pytest.raises(cc.CancelError):
            make_setting(X, single(9), b, 2)


class TestHypInstance:
    def test_reserved_letter_enforced(self):
        st = setting()
        y1 = single(st.y_letter_id(1))
        with pytest.raises(cc.CancelError):
            HypInstance(st, (y1, E, E), (1, -1), j0=1)

    def test_other_fresh_letters_allowed(self):
        st = setting(k=3)
        y2 = single(st.y_letter_id(2))
        inst = HypInstance(st, (E, y2, y2.inverse(), E), (1, -1, 1), j0=1)
        assert inst.n == 3

    def test_shape_mismatch(self):
        st = setting()
        with pytest.raises(cc.CancelError):
            HypInstance(st, (E, E), (1, -1))


class TestHstar:
    def test_trivial_cancellation(self):
        st = setting()
        inst = HypInstance(st, (E, E, E), (1, -1))
        assert inst.hstar == E
        assert check_hypothesis(inst)

    def test_separated_words(self):
        st = setting()
        inst = HypInstance(st, (a, E, b), (1, -1))
        assert inst.hstar == W("a b")
        assert check_hypothesis(inst)

    def test_non_collapsing_instance(self):
        st = setting()
        inst = HypInstance(st, (E, a, E), (1, -1))
        w = inst.hstar
        assert st.y_letter_id(1) in letters(w)
        assert not check_hypothesis(inst)


class TestSameSignDecompose:
    def test_base_case(self):
        st = setting()
        d = same_sign_decompose(HypInstance(st, (E, E), (1,)), 1)
        assert d.a == st.g
        assert d.w1p == E
        assert d.fp == E

    def test_base_case_with_separator(self):
        st = make_setting(X, b, E, 2)
        d = same_sign_decompose(HypInstance(st, (a, E), (1,)), 1)
        assert d.a == b
        assert d.w1p == a

    def test_inductive_step(self):
        st = setting()
        inst = HypInstance(st, (E, E, E), (1, 1))
        d = same_sign_decompose(inst, 2)
        prod = E
        for p in d.pieces:
            prod = multiply(prod, p)
        assert prod == d.prefix_product
        assert not d.a.is_identity()

    def test_cancelling_separator_eats_into_f(self):
        st = setting(k=4)
        w1 = single(st.y_letter_id(1), -1)  # ends with y1^-1, j0 = 3
        inst = HypInstance(st, (w1, E), (1,), j0=3)
        d = same_sign_decompose(inst, 1)
        assert d.w1p == E
        assert d.fp.length == 1  # y2 only: y1 cancelled, f_{j0} = y3 y4

    def test_sign_mismatch(self):
        st = setting()
        with pytest.raises(cc.SignMismatch):
            same_sign_decompose(HypInstance(st, (E, E, E), (-1, 1)), 2)

    def test_random_instances_decompose(self, rng):
        for trial in range(150):
            params = GenParams(k=rng.choice((2, 3, 4, 5, 6)))
            inst = next(gen_same_sign(rng.randrange(1 << 30), params))
            if inst.signs[0] != 1:
                continue
            d = same_sign_decompose(inst, inst.n)
            assert not d.a.is_identity()


class TestSameSignCorollary:
    def test_positive_pair(self):
        st = setting()
        r = same_sign_not_in_FX(HypInstance(st, (E, E, E), (1, 1)))
        assert r.ok and r.y_j0_present

    def test_with_separators(self):
        st = setting()
        r = same_sign_not_in_FX(HypInstance(st, (a, E, b), (1, 1)))
        assert r.ok

    def test_negative_pair_via_reindexing(self):
        st = setting()
        r = same_sign_not_in_FX(HypInstance(st, (E, E, E), (-1, -1)))
        assert r.ok and r.sign == -1

    def test_bulk_random(self, rng):
        for trial in range(200):
            params = GenParams(k=rng.choice((2, 3, 4, 5, 6)), sample_j0=True)
            inst = next(gen_same_sign(rng.randrange(1 << 30), params))
            assert same_sign_not_in_FX(inst).ok


class TestCollapse:
    def test_examples(self):
        st = setting()
        assert collapse_check(HypInstance(st, (a, E, b), (1, -1))).ok
        assert collapse_check(HypInstance(st, (E, E, E), (1, -1))).ok

    def test_hypothesis_violation_raises(self):
        st = setting()
        with pytest.raises(cc.HypothesisViolated):
            collapse_check(HypInstance(st, (E, a, E), (1, -1)))

    def test_generated_instances_collapse(self):
        for seed in (1, 2, 3):
            for inst in itertools.islice(gen_instances(seed), 120):
                rpt = collapse_check(inst)
                assert rpt.ok
                assert rpt.wstar == separator_product(inst)

    def test_against_naive_oracle(self):
        # flatten both sides to explicit letters and reduce by hand
        for inst in itertools.islice(gen_instances(99), 60):
            raw = []
            for w, s in zip(inst.ws, inst.signs):
                raw += flatten_letters(w)
                raw += flatten_letters(inst.setting.v(s))
            raw += flatten_letters(inst.ws[-1])
            assert naive_reduce(raw) == flatten_letters(inst.hstar)

    def test_compressed_k(self):
        params = GenParams(k=1 << 12)
        for inst in itertools.islice(gen_instances(7, params), 15):
            assert collapse_check(inst).ok


class TestEtaInvariance:
    def test_pure_pair(self):
        st = setting()
        r = eta_invariance_check([st.g0, st.g0.inverse()], st)
        assert r.ok and r.lhs == E and r.L == [1, 2]

    def test_interleaved(self):
        st = setting()
        r = eta_invariance_check([a, st.g0, E, st.g0.inverse(), b], st)
        assert r.ok and r.lhs == W("a b")
        assert r.exponents == [None, 1, 0, -1, None]
        assert r.deltas == [0, 1, 0, -1, 0]

    def test_higher_powers_telescoped(self):
        st = setting()
        seq = [power(st.g0, 2), a, a.inverse(), power(st.g0, -2), b]
        r = eta_invariance_check(seq, st)
        assert r.ok and r.lhs == b

    def test_precondition_violated_by_foreign_factor(self):
        st = setting()
        with pytest.raises(cc.PreconditionViolated):
            eta_invariance_check([st.f, st.f.inverse()], st)

    def test_precondition_violated_by_product(self):
        st = setting()
        # g0^2·a·g0^-2 ∉ F(X): factors satisfy the iff but the product fails
        seq = [power(st.g0, 2), a, power(st.g0, -2)]
        with pytest.raises(cc.PreconditionViolated):
            eta_invariance_check(seq, st)

    def test_telescoping_sequences_bulk(self, rng):
        st = setting()
        for _ in range(100):
            qs = [rng.choice([qq for qq in range(-3, 4) if qq]) for _ in range(3)]
            seq = []
            for q in qs:
                seq.append(power(st.g0, q))
                seq.append(power(st.g0, -q))
                from conftest import rand_word

                seq.append(rand_word(rng, [0, 1], 4))
            r = eta_invariance_check(seq, st)
            assert r.ok


class TestGenerator:
    def test_deterministic(self):
        first = [i.hstar for i in itertools.islice(gen_instances(5), 20)]
        second = [i.hstar for i in itertools.islice(gen_instances(5), 20)]
        assert first == second

    def test_instances_satisfy_all_conditions(self):
        for inst in itertools.islice(gen_instances(11), 150):
            assert check_hypothesis(inst)  # (iii); (i),(ii) hold by construction

    def test_n_zero_instances_appear(self):
        ns = {i.n for i in itertools.islice(gen_instances(3), 60)}
        assert 0 in ns and max(ns) >= 4

    def test_j0_sampling(self):
        params = GenParams(k=5, sample_j0=True)
        j0s = {i.j0 for i in itertools.islice(gen_instances(13, params), 60)}
        assert len(j0s) > 1


class TestProductsMadeOnce:
    """The cancellation checks make each product once: the pinned counts are
    the ``cancel.multiply`` calls of fixed inputs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counting(v, w):
            made.append((v, w))
            return multiply(v, w)

        monkeypatch.setattr(cc, "multiply", counting)
        return made

    @pytest.mark.parametrize("sign, want", [(1, 53), (-1, 62)])
    def test_same_sign(self, calls, sign, want):
        inst = HypInstance(setting(k=3), (a, W("b a"), b), (sign, sign))
        assert same_sign_not_in_FX(inst).ok
        assert len(calls) == want

    def test_generated_collapse(self, calls):
        inst = cc._gen_one(random.Random(4), GenParams())
        assert inst.n == 4
        assert collapse_check(inst).ok
        assert len(calls) == 17
