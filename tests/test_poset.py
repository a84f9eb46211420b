import pytest

from assgp import poset as ps
from assgp.cancel import TrivialG, make_setting
from assgp.chain import new_chain
from assgp.nbhd import (
    Budget,
    Leaf,
    NbhdError,
    Nsys,
    enrich,
    make_base,
    trivial_system,
)
from assgp.poset import (
    Condition,
    DescA,
    DescAD,
    DescB,
    DescC,
    DescE,
    Mode,
    add_letters,
    conj_extension,
    cyc_witness,
    initial_condition,
    is_extension,
    pad_levels,
    parse_mode,
    separate,
    threshold,
    threshold_log2,
    verify_cyc_cert,
    witness,
)
from assgp.words import E, IdSet, multiply, parse_word, single, supported_in

from conftest import W
from oracle import explicit_system

BUD = Budget(exp=2, nodes=300)
a, b = single(0), single(1)


class TestCondition:
    def test_initial(self):
        p0 = initial_condition()
        assert p0.depth == 1 and p0.alphabet == IdSet.of(0)
        report = new_chain().check_group_axioms()
        assert report["passed"] and len(report["entries"]) == 4


class TestPadLevels:
    def test_pads_with_identity_levels(self):
        q = pad_levels(initial_condition(), 3)
        assert q.depth == 3
        assert q.system.member(3, E).is_yes
        assert q.system.member(2, a).is_no

    def test_no_op_when_deep_enough(self):
        p = pad_levels(initial_condition(), 3)
        assert pad_levels(p, 2) is p

    def test_exact_extension(self):
        p0 = initial_condition()
        q = pad_levels(p0, 3)
        rpt = is_extension(q, p0, BUD)
        assert rpt.passed and rpt.describe()["containment_mode"] == "stacked"


class TestAddLetters:
    def test_grows_alphabet(self):
        q = add_letters(initial_condition(), IdSet.of(0, 1))
        assert q.alphabet == IdSet.of(0, 1)
        assert q.system.member(q.depth, b).is_yes  # b is a cyclic base element

    def test_subset_is_identity(self):
        p0 = initial_condition()
        assert add_letters(p0, IdSet.of(0)) is p0

    def test_extension_at_budget(self):
        p0 = initial_condition()
        q = add_letters(p0, IdSet.of(0, 1))
        assert is_extension(q, p0, BUD).passed


class TestSeparate:
    def test_single_letter(self):
        p0 = initial_condition()
        q = separate(p0, a)
        assert q.depth == 2
        assert q.system.member(2, a).is_no
        assert supported_in(a, q.alphabet)

    def test_new_letter_grows_alphabet_first(self):
        q = separate(initial_condition(), b)
        assert 1 in q.alphabet
        assert q.system.member(q.depth, b).is_no

    def test_uniform_padding(self):
        p = pad_levels(initial_condition(), 3)
        q = separate(p, a)
        assert q.depth == 4

    def test_trivial_rejected(self):
        with pytest.raises(TrivialG):
            separate(initial_condition(), E)


class TestThreshold:
    @pytest.mark.parametrize("size,n,expect", [(1, 1, 16), (2, 1, 256), (2, 2, 1 << 32)])
    def test_values(self, size, n, expect):
        assert threshold(size, n) == expect

    def test_arbitrary_precision(self):
        big = threshold(2, 2)
        assert big == 4294967296 and big.bit_length() == 33

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponent_test_matches_value_test(self, size, n):
        m = threshold_log2(size, n)
        assert 2**m == threshold(size, n)
        for k in (1, 2**m - 1, 2**m, 2**m + 1):
            assert (k.bit_length() - 1 >= m) == (k >= threshold(size, n)), k

    def test_guaranteed_never_builds_the_threshold(self, monkeypatch):
        def refuse(size_x, n):
            raise AssertionError("threshold built in test mode")

        monkeypatch.setattr(ps, "threshold", refuse)
        p = pad_levels(initial_condition(), 2)
        assert not conj_extension(p, a, E, Mode("test", 3), BUD).guaranteed
        # k = 16 = 2^(1·4^1) reaches the threshold at |X| = 1, depth 1
        assert conj_extension(initial_condition(), a, E, Mode("test", 16), BUD).guaranteed


class TestPaperCap:
    def test_k_below_cap_is_the_threshold(self):
        assert ps.paper_k(initial_condition()) == threshold(1, 1)
        assert ps.safe_k(Mode("paper"), initial_condition()) == 16

    def test_refuses_before_building(self, monkeypatch):
        def refuse(size_x, n):
            raise AssertionError("threshold built above the cap")

        monkeypatch.setattr(ps, "threshold", refuse)
        p = add_letters(pad_levels(initial_condition(), 6), IdSet.of(0, 1))
        assert threshold_log2(2, 6) > ps.PAPER_LOG2_CAP
        with pytest.raises(ps.PaperCapExceeded, match=r"2\^8192 .*depth 6"):
            ps.safe_k(Mode("paper"), p)
        with pytest.raises(ps.PaperCapExceeded):
            conj_extension(p, a, E, Mode("paper"))
        with pytest.raises(ps.PaperCapExceeded):
            cyc_witness(p, a, Mode("paper"))


class TestIsExtension:
    def test_reflexive(self):
        p0 = initial_condition()
        assert is_extension(p0, p0, BUD).passed

    def test_transitive_on_chain(self):
        p0 = initial_condition()
        q1 = add_letters(p0, IdSet.of(0, 1))
        q2 = pad_levels(q1, 2)
        r01 = is_extension(q1, p0, BUD)
        r12 = is_extension(q2, q1, BUD)
        r02 = is_extension(q2, p0, BUD)
        assert r01.passed and r12.passed and r02.passed

    def test_same_alphabet_enrichment_fails_restriction(self):
        # b is a word over X^p outside U^p_n: adjoining it breaks restriction.
        ab = IdSet.of(0, 1)
        p = Condition(trivial_system(ab, 1))
        bad_sys = enrich(p.system, make_base(finite=[E, b, b.inverse()]), p.alphabet)
        bad = Condition(bad_sys)
        rpt = is_extension(bad, p, BUD)
        assert not rpt.passed
        assert any(w == "b" for _, w, _ in rpt.violations)

    def test_structural_failures(self):
        # q's alphabet misses p's letters, so q cannot be stacked on p:
        # the pair is refused before anything is checked
        p = add_letters(initial_condition(), IdSet.of(0, 1))
        with pytest.raises(NbhdError):
            is_extension(initial_condition(), p, BUD)

    def test_unstacked_systems_are_sampled(self):
        # every extension the chain checks is stacked; a q built afresh,
        # with p's levels or with fewer, is refused rather than sampled
        levels = [[E, a, a.inverse()], [E]]
        p = Condition(explicit_system(IdSet.of(0), levels))
        for q_levels in (levels, [[E], [E]]):
            q = Condition(explicit_system(IdSet.of(0), q_levels))
            with pytest.raises(NbhdError):
                is_extension(q, p, BUD)


class TestConjExtension:
    def test_example_g0(self):
        p = add_letters(initial_condition(), IdSet.of(0, 1))
        r = conj_extension(p, a, b, Mode("test", 2), BUD)
        assert r.rep == Leaf(1, r.setting.g0, "extra")
        assert str(r.setting.g0) == "c d a d^-1 c^-1 b"
        assert r.report.passed

    def test_empty_h(self):
        p = add_letters(initial_condition(), IdSet.of(0, 1))
        r = conj_extension(p, a, E, Mode("test", 3), BUD)
        assert r.setting.g0 == multiply(multiply(r.setting.f, a), r.setting.f.inverse())
        assert r.report.passed

    def test_paper_mode_small(self):
        p0 = initial_condition()
        r = conj_extension(p0, a, E, Mode("paper"))
        assert r.setting.k == 16
        assert r.guaranteed
        assert len(r.setting.f.segments) == 1
        assert r.report.spot and r.report.passed

    def test_trivial_g_rejected(self):
        with pytest.raises(TrivialG):
            conj_extension(initial_condition(), E, E, Mode("test", 2))

    def test_g0_certified_without_a_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("conj_extension searched")

        monkeypatch.setattr(Nsys, "member", refuse)
        p = add_letters(initial_condition(), IdSet.of(0, 1))
        r = conj_extension(p, a, b, Mode("test", 2), BUD)
        q = r.condition
        assert isinstance(r.rep, Leaf)
        assert q.system.verify_rep(q.depth, r.setting.g0, r.rep) == (True, "")

    def test_strip_chain_violation_detected(self):
        # With h = e and k <= depth, depth-many conjugations strip f entirely
        # and push g into a restricted level: the checker must find it.
        p = pad_levels(initial_condition(), 2)
        r = conj_extension(p, a, E, Mode("test", 2), Budget(exp=2, nodes=500))
        assert not r.guaranteed
        assert not r.report.passed
        assert any(w == "a" for _, w, _ in r.report.violations)

    def test_strip_chain_blocked_by_larger_k(self):
        p = pad_levels(initial_condition(), 2)
        r = conj_extension(p, a, E, Mode("test", 3), Budget(exp=2, nodes=500))
        assert r.report.passed

    def test_strip_chain_blocked_by_nonempty_h(self):
        p = pad_levels(add_letters(initial_condition(), IdSet.of(0, 1)), 2)
        r = conj_extension(p, a, b, Mode("test", 2), Budget(exp=2, nodes=500))
        assert r.report.passed


class TestCycWitness:
    def test_three_factor_certificate(self):
        p = add_letters(initial_condition(), IdSet.of(0, 1))
        q, cert, report = cyc_witness(p, a, Mode("test", 2), BUD)
        prod = E
        for f in cert.factors:
            prod = multiply(prod, f)
        assert prod == a
        ok, why = verify_cyc_cert(cert, q.system, BUD)
        assert ok, why
        assert report.passed

    def test_adaptive_k_exceeds_depth(self):
        p = pad_levels(initial_condition(), 3)
        _, cert, _ = cyc_witness(p, a, Mode("test", 2), BUD)
        assert cert.gens[0].length >= 4  # f has depth+1 letters at least

    def test_forced_small_k_fails_closed(self, monkeypatch):
        monkeypatch.setattr(ps, "safe_k", lambda mode, p: 2)
        p = pad_levels(initial_condition(), 2)
        with pytest.raises(ps.WitnessFailed) as exc:
            cyc_witness(p, a, Mode("test", 2), Budget(exp=2, nodes=500))
        assert exc.value.args == ("extension report failed",)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialG):
            cyc_witness(initial_condition(), E, Mode("test", 2))


class TestWitnessDispatch:
    def test_A(self):
        res = witness(initial_condition(), DescA(3))
        assert res.predicate_ok and res.conditions[-1].depth == 3

    def test_A_already_satisfied(self):
        p = pad_levels(initial_condition(), 3)
        res = witness(p, DescA(2))
        assert res.predicate_ok and res.conditions == []

    def test_B(self):
        res = witness(initial_condition(), DescB(IdSet.of(0, 1, 2)))
        assert res.predicate_ok
        assert IdSet.of(0, 1, 2).issubset(res.conditions[-1].alphabet)

    def test_C(self):
        res = witness(initial_condition(), DescC(parse_word("a b^-1")), budget=BUD)
        assert res.predicate_ok

    def test_D(self):
        res = witness(initial_condition(), DescAD(0, a), Mode("test", 2), BUD)
        assert res.predicate_ok
        cert = res.certs["cyc"]
        assert cert.target == a

    def test_D_identity_is_empty_product(self):
        res = witness(initial_condition(), DescAD(0, E), Mode("test", 2), BUD)
        assert res.predicate_ok and res.certs["factorization"] == []

    def test_AD(self):
        res = witness(initial_condition(), DescAD(2, b), Mode("test", 2), BUD)
        assert res.predicate_ok
        assert res.conditions[-1].depth >= 2

    def test_E(self):
        res = witness(
            initial_condition(), DescE(1, IdSet.of(0, 1), a, b), Mode("test", 2), BUD
        )
        assert res.predicate_ok
        assert all(r.passed for r in res.reports)
        g0 = res.certs["g0"]
        f = res.certs["conj"].setting.f
        assert multiply(multiply(multiply(f, a), f.inverse()), b) == g0

    def test_E_with_identity_h(self):
        res = witness(
            initial_condition(), DescE(2, IdSet.of(0), a, E), Mode("test", 2), BUD
        )
        assert res.predicate_ok
        assert all(r.passed for r in res.reports)
        assert res.detail["used_k"] >= 3  # adaptive: beats the strip chain

    def test_E_threshold_readings_recorded(self):
        res = witness(
            initial_condition(), DescE(1, IdSet.of(0), a, E), Mode("test", 2), BUD
        )
        assert "threshold_log2_param_n" in res.detail
        assert "threshold_log2_depth" in res.detail

    def test_chain_extension_transitivity(self):
        p0 = initial_condition()
        chain = [p0]
        for d in [DescA(2), DescB(IdSet.of(0, 1)), DescC(a), DescAD(0, b)]:
            res = witness(chain[-1], d, Mode("test", 2), BUD)
            chain.extend(res.conditions)
        for i in range(len(chain) - 1):
            assert is_extension(chain[i + 1], chain[i], BUD).passed
        assert is_extension(chain[-1], chain[0], BUD).passed
        # A_n downward-closure along the chain: depth never decreases
        depths = [c.depth for c in chain]
        assert depths == sorted(depths)


class TestMode:
    def test_parse(self):
        assert parse_mode("paper").kind == "paper"
        assert parse_mode("test:4").k == 4
        with pytest.raises(ValueError):
            parse_mode("test:1")
        with pytest.raises(ValueError):
            parse_mode("bogus")
        with pytest.raises(ValueError, match="test:<k>"):
            parse_mode("test:x")
