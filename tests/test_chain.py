import functools
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from assgp import chain as ch
from assgp import nbhd
from assgp import poset as ps
from assgp.chain import (
    ChainState,
    FormatError,
    NotYetSeparated,
    Schedule,
    alphabet_stream,
    deserialize,
    new_chain,
    serialize,
    word_stream,
)
from assgp.cli import EXIT_OK, EXIT_USAGE, main
from assgp.nbhd import (
    Budget,
    EnrichedNsys,
    Leaf,
    MembershipAnswer,
    Nsys,
    PaddedNsys,
    cyclic_alphabet_extension,
    enrich,
    identity_extension,
    make_base,
    pad_system,
    rep_to_obj,
    trivial_system,
)
from assgp.poset import (
    DescA,
    DescB,
    DescC,
    DescE,
    Condition,
    ExtensionReport,
    Mode,
    TrivialG,
    is_extension,
)
from assgp.words import (
    E,
    IdSet,
    flatten_letters,
    letters,
    multiply,
    parse_word,
    power,
    reduce,
    single,
    supported_in,
    word_key,
)

from conftest import SHARED_BUDGET, W, descriptor_from_key, rand_nonempty_word, shared_level_stack
from oracle import reference_adjoined, reference_extension_report

BUD = Budget(leaf_len=6, exp=2, nodes=120)
a, b = single(0), single(1)


def small_chain(preset="full", steps=10, seed=0):
    st = new_chain(preset, Mode("test", 2), BUD, seed)
    st.run(steps)
    return st


class TestEnumerations:
    def test_word_stream_starts_small(self):
        ws = [str(w) for w in itertools.islice(word_stream(), 8)]
        assert ws[0] == "a"
        assert "a^-1" in ws and "b" in ws

    def test_word_stream_no_duplicates(self):
        ws = list(itertools.islice(word_stream(), 300))
        assert len(ws) == len(set(ws))

    def test_word_stream_identity_flag(self):
        assert next(word_stream(include_identity=True)) == E

    def test_alphabet_stream_unique_and_fair(self):
        sets = list(itertools.islice(alphabet_stream(), 60))
        keys = [s.intervals for s in sets]
        assert len(keys) == len(set(keys))
        assert IdSet.of(0).intervals in keys
        assert IdSet.of(0, 1).intervals in keys

    def test_schedule_fair_round_robin(self):
        sched = Schedule("full", 0)
        fams = [sched.descriptor(i).key().split(":")[0] for i in range(10)]
        assert fams == ["A", "B", "C", "AD", "E", "A", "B", "C", "AD", "E"]

    def test_schedule_seed_rotates(self):
        s0 = Schedule("full", 0).descriptor(0).key()
        s1 = Schedule("full", 1).descriptor(0).key()
        assert s0 != s1

    def test_bad_preset(self):
        with pytest.raises(ch.ChainError):
            Schedule("nope", 0)

    def test_full_refines_other_presets(self):
        full = Schedule("full", 0)
        full_keys = {full.descriptor(s).key() for s in range(600)}
        for preset in ("t2", "assgp", "simple"):
            sub = Schedule(preset, 0)
            for i in range(6):
                key = sub.descriptor(i).key()
                assert key in full_keys, key


class TestChainBuild:
    def test_t2_ten_steps(self):
        st = small_chain("t2", 10)
        assert st.stage == 10
        assert all(e["status"] == "ok" for e in st.step_log)
        assert all(r["passed"] for e in st.step_log for r in e["reports"])

    def test_zero_steps_is_initial(self):
        st = new_chain("t2", Mode("test", 2), BUD, 0)
        assert len(st.chain) == 1 and st.chain[0].depth == 1

    def test_depth_grows_with_A(self):
        st = new_chain("t2", Mode("test", 2), BUD, 0)
        target = DescA(2)
        st._apply_witness(target, "targeted")
        assert st.chain[-1].depth >= 2

    def test_conjugator_table_is_built_once_per_prefix(self):
        # the builds' layers begin with a few id prefixes in turn; each
        # prefix's (x, x⁻¹) table is made once over the five rotations
        nbhd._conjugator_pairs.cache_clear()
        prefixes = set()
        for seed in range(5):
            st = small_chain("full", 45, seed)
            prefixes |= {
                tuple(itertools.islice(layer.alphabet, nbhd.CONJUGATOR_ID_CAP))
                for layer in st.chain[-1].system.ancestors()
                if isinstance(layer, EnrichedNsys)
            }
        assert nbhd._conjugator_pairs.cache_info().misses <= len(prefixes)

    def test_consecutive_extensions_hold(self):
        st = small_chain("full", 12)
        for p, q in zip(st.chain, st.chain[1:]):
            assert is_extension(q, p, BUD).passed

    def test_depths_monotone(self):
        st = small_chain("full", 15)
        depths = [c.depth for c in st.chain]
        assert depths == sorted(depths)

    def test_predicates_all_hold(self):
        st = small_chain("full", 15)
        assert all(e["predicate_ok"] for e in st.step_log if e["status"] == "ok")

    def test_deep_build_never_builds_the_threshold(self, monkeypatch):
        # the E steps decide `guaranteed` on exponents; 2^(|X|·4^n) at
        # depth 13 and beyond has more bits than memory holds
        def refuse(size_x, n):
            raise AssertionError("threshold built in test mode")

        monkeypatch.setattr(ps, "threshold", refuse)
        st = small_chain("full", 80)
        assert st.chain[-1].depth > 13
        assert all(e["status"] == "ok" for e in st.step_log)
        assert all(r["passed"] for e in st.step_log for r in e["reports"])

    def test_each_pair_checked_once(self, monkeypatch):
        seen = []

        def counting(q, p, budget=ps.DEFAULT_BUDGET):
            seen.append((id(q), id(p), budget.key()))
            return is_extension(q, p, budget)

        monkeypatch.setattr(ps, "is_extension", counting)
        monkeypatch.setattr(ch, "is_extension", counting)
        st = small_chain("full", 20)
        assert len(seen) == len(set(seen)) == len(st.chain) - 1
        # the reused witness report is still logged twice, as before
        last = st.step_log[-1]
        assert last["descriptor"].startswith("E:")
        assert last["reports"][-2] == last["reports"][-1]

    def test_paper_spot_check_not_reused(self):
        st = new_chain("full", Mode("paper"), BUD, 0)
        st.run(5)
        e_step = st.step_log[4]
        assert e_step["descriptor"].startswith("E:")
        full, spot = e_step["reports"][-2:]
        assert not full["spot"] and full["budget"] == list(BUD.key())
        assert spot["spot"] and spot["budget"] != full["budget"]

    def test_paper_cap_names_the_step(self):
        st = new_chain("full", Mode("paper"), BUD, 0)
        st.run(8)
        with pytest.raises(ps.PaperCapExceeded, match=r"step 8 \(AD:0\|a\).*2\^4194368"):
            st.step()


# sha256 of serialize() for the full preset, 45 steps, test:2, budget
# (6, 2, 120), chain seeds 0-4, as first measured before the build step
# compared threshold exponents and reused witness reports; re-pinned once
# for format version 2, which writes each word in its one segmentation
GOLDEN_FULL_45 = {
    0: "a184ef8daa5832b2c8565dec94c36cdd4f867d604a32fe179adecb45076d1b87",
    1: "f0e2515b196d010759b2185937fe0a0efe9b8b33d2016d9c0585704af56558a2",
    2: "b85a2b65382c6a04b4ed3eacacbb8eaa0b33c9d08217f4594028f591d85e0786",
    3: "d2ecb0ce279fd9ae13f382bb9e4a42057dcdd43a44c112e5e978a39ee6b6bf0a",
    4: "feb52890a3982cf4d3114d86497a3c558a399716a42bc50e038d10ece2e4b388",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FULL_45))
def test_full_45_state_bytes_golden(seed):
    st = small_chain("full", 45, seed)
    assert hashlib.sha256(serialize(st)).hexdigest() == GOLDEN_FULL_45[seed]


# the same for the assgp preset (C, AD, B), 120 steps, chain seeds 0-2, as
# measured before DescD was folded into DescAD(0, g)
GOLDEN_ASSGP_120 = {
    0: "3fb937478f7851c490364fc21053606f71f1c126a56dc8e9f6fc3c1e1852f4f6",
    1: "174a27b41f2c4b20a4be138c814683a0a6b15fc8a0c5f5b9b028f5d04964ff12",
    2: "fbe92ad7ae9b9225dd1c6b811577191ee576cde817ff4390c0b89dd67d4286c8",
}


@functools.cache
def built_chain(preset, steps, seed):
    """A chain that tests read but do not step; built once per session."""
    return small_chain(preset, steps, seed)


@pytest.mark.parametrize("seed", sorted(GOLDEN_ASSGP_120))
def test_assgp_120_state_bytes_golden(seed):
    st = built_chain("assgp", 120, seed)
    assert hashlib.sha256(serialize(st)).hexdigest() == GOLDEN_ASSGP_120[seed]


def test_full_240_state_bytes_golden():
    # 136 conditions, depth 49: deeper than the goldens above reach
    st = small_chain("full", 240, 0)
    assert (len(st.chain), st.chain[-1].depth) == (136, 49)
    assert (
        hashlib.sha256(serialize(st)).hexdigest()
        == "e2dfdbe9b770c5b41f49c996886f17644ef34323099c97b5bd2597bddf1c332b"
    )


def test_assgp_240_state_bytes_golden():
    # 149 conditions, depth 81
    st = small_chain("assgp", 240, 0)
    assert (len(st.chain), st.chain[-1].depth) == (149, 81)
    assert (
        hashlib.sha256(serialize(st)).hexdigest()
        == "227511a6923699aa4d5120af57a38339af0af4c0082be7a283aa1f140680eb84"
    )


def test_t2_120_state_bytes_golden():
    # 47 conditions, depth 41: the preset whose enrich layers carry the
    # letter-count bound, one record each
    st = built_chain("t2", 120, 0)
    assert (len(st.chain), st.chain[-1].depth) == (47, 41)
    data = serialize(st)
    assert data.count(b'"bounded_base_size"') == 6
    assert (
        hashlib.sha256(data).hexdigest()
        == "d1a12c6e6a4cc29f0ff75ef6ae3257fe1e0e8591fe438de32f3abd474d9e0c96"
    )


class TestLetterCountBound:
    def test_listed_words_lie_within_the_bound(self):
        # every word a bounded layer of t2-120 lists at level i has at most
        # _bound(i) letters, so the bound refutes none of them
        st = built_chain("t2", 120, 0)
        layers = [
            layer
            for layer in st.chain[-1].system.ancestors()
            if isinstance(layer, EnrichedNsys) and layer.bounded_base_size is not None
        ]
        assert len(layers) == 6
        listed = 0
        for layer in layers:
            for i in range(layer.depth + 1):
                for w, _ in layer.enumerate(i, st.budget):
                    assert letters(w).size <= layer._bound(i), (layer.depth, i, w)
                    listed += 1
        assert listed == 9060

    def test_forged_bound_is_a_malformed_state(self, tmp_path, capsys):
        # with the bound forged to 0 the state would refute b at level 2,
        # which the stored state holds in an adjoined set
        path = tmp_path / "t2.json"
        path.write_bytes(serialize(built_chain("t2", 120, 0)))
        argv = ["query", "member", "--n", "2", "--word", "b", "--out", "-", "--state"]
        assert main([*argv, str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["stage"], out["certificate"]) == (
            "yes",
            46,
            ["leaf", 2, "b", "extra"],
        )
        obj = json.loads(path.read_bytes())
        for cond in obj["chain"]:
            for layer in cond["layers"]:
                if "bounded_base_size" in layer:
                    layer["bounded_base_size"] = 0
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="malformed chain state.*bounded_base_size 0"):
            deserialize(path.read_bytes())
        assert main([*argv, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "malformed" in err and "Traceback" not in err


def test_full_1000_state_bytes_golden():
    # 582 conditions, depth 201: the deepest stack of inherited levels.  The
    # reloaded state re-verifies its certificates at the default limit.
    st = built_chain("full", 1000, 0)
    assert (len(st.chain), st.chain[-1].depth) == (582, 201)
    data = serialize(st)
    assert (
        hashlib.sha256(data).hexdigest()
        == "ead295b29ecc9d8f63143b792571be58add3903d8c4eac3dd7b14da56880a9e0"
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        bad = deserialize(data).verify_certificates()
    finally:
        sys.setrecursionlimit(limit)
    assert bad == []


# The full-45 seed-3 state as format version 1 wrote it (sha256 786d914a...),
# when the two-letter fresh runs were spelled x[1..2]; version 2 spells them
# b c.  The reader still takes it.
V1_STATE = Path(__file__).resolve().parent / "data" / "full_45_seed3_v1.json"


def _separation(st, g):
    try:
        return st.separation_index(g)
    except NotYetSeparated:
        return "not yet"


def test_version_1_state_answers_like_a_fresh_build():
    data = V1_STATE.read_bytes()
    assert json.loads(data)["version"] == 1
    old, new = deserialize(data), small_chain("full", 45, 3)
    assert json.loads(serialize(new))["version"] == 2
    assert old.verify_certificates() == []
    last = new.chain[-1]
    for n in range(last.depth + 1):
        for w, _ in last.system.enumerate(n, BUD)[:3]:
            a, b = old.basis_member(n, w), new.basis_member(n, w)
            assert (a.verdict, a.stage) == (b.verdict, b.stage), (n, w)
    for g in ("a", "b a^-1", "c d"):
        assert _separation(old, W(g)) == _separation(new, W(g))
    a, b = old.check_group_axioms(), new.check_group_axioms()
    assert (len(a["entries"]), a["violations"]) == (len(b["entries"]), b["violations"])


def full_scan_report(q, p, budget):
    """The oracle for is_extension on a stacked pair: the restriction scan
    over every level of q, with no level skipped."""
    assert p.system in q.system.ancestors()
    rpt = ExtensionReport(budget_key=budget.key())
    for i in range(p.depth + 1):
        p_words = {w for w, _ in p.system.enumerate(i, budget)}
        for w, _ in q.system.enumerate(i, budget):
            if not supported_in(w, p.alphabet):
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


def inherits_by_rule(layer, i, budget):
    """A pad layer inherits the levels up to its base's depth; an enrich
    layer those below its depth whose base level holds `nodes` words."""
    if isinstance(layer, PaddedNsys):
        return i <= layer.base.depth
    return i < layer.depth and len(layer.base.enumerate(i, budget)) >= budget.nodes


@pytest.mark.parametrize("preset", ["full", "assgp"])
class TestInheritedLevels:
    """is_extension skips the levels q inherits from p; these pin the skip
    to the full scan and check the facts it rests on, over a 120-step
    chain."""

    def test_reports_match_the_full_scan(self, preset):
        st = built_chain(preset, 120, 0)
        for entry in st.step_log:
            new = entry["new_conditions"]
            for k, recorded in zip(new, entry["reports"]):
                bud = Budget(*recorded["budget"])  # the state's budget
                q, p = st.chain[k], st.chain[k - 1]
                oracle = full_scan_report(q, p, bud).describe()
                assert recorded == oracle, (entry["descriptor"], k)
                assert is_extension(q, p, bud).describe() == oracle
            if len(new) > 1:  # the whole step, over several layers
                q, p = st.chain[new[-1]], st.chain[new[0] - 1]
                assert is_extension(q, p, BUD).describe() == full_scan_report(q, p, BUD).describe()

    def test_enumerated_words_lie_in_the_alphabet(self, preset):
        # axiom (1), on which the skip rests.  The alphabets grow along the
        # chain, so a word seen at one condition need not be checked again.
        st = built_chain(preset, 120, 0)
        seen = set()
        for p, cond in zip([None] + st.chain, st.chain):
            assert p is None or p.alphabet.issubset(cond.alphabet)
            for i in range(cond.depth + 1):
                for w, _ in cond.system.enumerate(i, BUD):
                    if w not in seen:
                        assert supported_in(w, cond.alphabet), (cond, i, w)
                        seen.add(w)

    def test_inherited_level_is_the_base_level(self, preset):
        st = built_chain(preset, 120, 0)
        inherited = 0
        for layer in st.chain[-1].system.ancestors()[:-1]:
            for i in range(layer.depth + 1):
                level = layer.enumerate(i, BUD)
                shared = i <= layer.base.depth and level is layer.base.enumerate(i, BUD)
                assert shared == inherits_by_rule(layer, i, BUD), (layer, i)
                inherited += shared
        assert inherited

    def test_listed_certificates_verify_in_later_conditions(self, preset):
        # every item of every level of every condition verifies, unchanged,
        # in the layer that built its list and in the last condition.  A
        # list shared by several layers is checked once.
        st = built_chain(preset, 120, 0)
        last = st.chain[-1].system
        verified = set()
        for cond in st.chain:
            for i in range(cond.depth + 1):
                items = cond.system.enumerate(i, BUD)
                if id(items) in verified:
                    continue
                verified.add(id(items))
                owner = cond.system
                while owner.base is not None and inherits_by_rule(owner, i, BUD):
                    owner = owner.base
                assert items is owner.enumerate(i, BUD)
                for w, rep in items:
                    assert owner.verify_rep(i, w, rep) == (True, ""), (owner, i, w)
                    assert last.verify_rep(i, w, rep) == (True, ""), (cond, i, w)


def test_skip_matches_the_full_scan_off_the_chain():
    # built chains never fail a step, so also pin the skip on stacks whose
    # scan finds something: a foreign word below a pad layer, and levels
    # that a small node budget makes inherited
    ab = IdSet.of(0, 1)
    p = Condition(trivial_system(ab, 2))
    bad = enrich(p.system, make_base(finite=[E, b, b.inverse()]), ab)
    q = Condition(pad_system(bad, 3))
    small = Budget(6, 2, 10)
    u = cyclic_alphabet_extension(trivial_system(ab, 2), IdSet.of(24))
    r = Condition(u)
    v = identity_extension(u, IdSet.of(25))
    s = Condition(v)
    for hi, lo, bud in [(q, p, BUD), (q, p, small), (s, r, small), (s, r, BUD)]:
        got = is_extension(hi, lo, bud).describe()
        assert got == full_scan_report(hi, lo, bud).describe()
    assert is_extension(q, p, BUD).violations
    assert v.enumerate(0, small) is u.enumerate(0, small)
    assert v.enumerate(v.depth, small) is not u.enumerate(v.depth, small)


class TestExtensionReference:
    """is_extension scans only the levels the layers between q and p build
    and takes the other levels' sizes from a running total; the reference
    scans every level and skips one only where q's list is p's."""

    @pytest.mark.parametrize("preset", ["t2", "assgp", "simple", "full"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_report_matches_the_reference(self, preset, seed):
        st = built_chain(preset, 120, seed)
        # the same pairs on a reloaded copy, asked top first, build nothing
        # before is_extension asks
        cold = deserialize(serialize(st))
        pairs = []
        for entry in st.step_log:
            new = entry["new_conditions"]
            pairs += [(k, k - 1, recorded) for k, recorded in zip(new, entry["reports"])]
            for recorded in entry["reports"][len(new) :]:  # the witness's own report
                assert recorded == entry["reports"][len(new) - 1], entry["descriptor"]
            if len(new) > 1:  # the whole step, over several layers
                pairs.append((new[-1], new[0] - 1, None))
        for hi, lo, recorded in pairs:
            want = reference_extension_report(st.chain[hi], st.chain[lo], BUD).describe()
            assert recorded in (None, want), (hi, lo)
            assert is_extension(st.chain[hi], st.chain[lo], BUD).describe() == want
        for hi, lo, _ in reversed(pairs):
            got = is_extension(cold.chain[hi], cold.chain[lo], BUD).describe()
            assert got == reference_extension_report(st.chain[hi], st.chain[lo], BUD).describe()

    def test_a_level_inherited_between_built_ones(self):
        # the extension builds levels 0 and 2 and keeps its root's level 1,
        # which holds 51 words at 30 nodes
        q, ref = (Condition(shared_level_stack()) for _ in range(2))
        p, ref_p = Condition(q.system.base), Condition(ref.system.base)
        got = is_extension(q, p, SHARED_BUDGET).describe()  # on a cold stack
        assert got == reference_extension_report(ref, ref_p, SHARED_BUDGET).describe()
        assert len(p.system.enumerate(1, SHARED_BUDGET)) == 51
        assert is_extension(q, p, SHARED_BUDGET).describe() == got
        kept = q.system.levels_kept(SHARED_BUDGET)
        assert sorted(i for i, (_, by) in kept.items() if by is q.system) == [0, 2]


class TestLevelStore:
    def test_entries_stay_near_the_distinct_lists(self):
        # a layer stores the lists it builds and those it was asked for,
        # not a list per level below it
        st = built_chain("assgp", 240, 0)
        layers = st.chain[-1].system.ancestors()
        kept = [layer.levels_kept(BUD) for layer in layers]
        entries = sum(map(len, kept))
        distinct = {id(items) for k in kept for items, _ in k.values()}
        built = [items for layer, k in zip(layers, kept) for items, by in k.values() if by is layer]
        assert len(built) == len(distinct) == len({id(items) for items in built})
        assert entries <= 2 * len(distinct), (entries, len(distinct))

    def test_a_cold_query_builds_few_levels(self, monkeypatch):
        # one basis_member on a reloaded full-240 builds 5 lists; the
        # per-level cache called _build_level 90 times, once for each level
        # a layer inherited too
        cold = deserialize(serialize(built_chain("full", 240, 0)))
        calls = []
        build = EnrichedNsys._build_level

        def counting(self, *args):
            calls.append(self)
            return build(self, *args)

        monkeypatch.setattr(EnrichedNsys, "_build_level", counting)
        cold.basis_member(1, W("a b"))
        assert len(calls) == 5


def stage_walk(st, n, w, budget=BUD):
    """The oracle for basis_member: the walk it replaced, over each stage
    deep enough from last to first, with a fresh member call per stage.
    Yes once a stage certifies w, no when every stage refutes it."""
    verdicts = set()
    for cond in reversed(st.chain):
        if cond.depth < n:
            continue
        ans = cond.system.member(n, w, budget)
        if ans.is_yes:
            return "yes"
        verdicts.add(ans.verdict)
    return "no" if verdicts == {"no"} else "unknown"


class TestBasisMember:
    def test_identity_always_yes(self):
        st = small_chain("t2", 4)
        for n in (0, 1, 2):
            if any(c.depth >= n for c in st.chain):
                assert st.basis_member(n, E).is_yes

    def test_fresh_chain_refutes(self):
        st = new_chain("t2", Mode("test", 2), BUD, 0)
        assert st.basis_member(1, a).is_no

    def test_no_condition_deep_enough_is_unknown(self):
        st = small_chain("full", 10)
        assert st.chain[-1].depth < 100
        for w in (E, a):
            ans = st.basis_member(100, w)
            assert ans.verdict == "unknown" and ans.stage is None

    def test_e_witness_membership(self):
        st = small_chain("full", 5)
        rec = st.conj_density_witness(a, b, 1)
        assert st.basis_member(1, rec["witness"]).is_yes

    def test_monotone_in_stage(self):
        st = small_chain("full", 5)
        rec = st.conj_density_witness(a, b, 1)
        w = rec["witness"]
        assert st.basis_member(1, w).is_yes
        st.run(8)
        assert st.basis_member(1, w).is_yes

    def test_view(self):
        st = small_chain("t2", 4)
        assert st.basis_member(1, E).is_yes

    def test_answer_depends_only_on_the_query(self):
        # no verdict outlives the query that found it: asking again, or
        # verifying the stored certificates first, gives the same answer
        data = serialize(built_chain("assgp", 120, 0))
        st = deserialize(data)
        w = W("x4 x[1..3]")
        first = st.basis_member(1, w)
        assert first.is_yes and st.basis_member(1, w) == first
        w = W("k x[5..9]")
        plain = deserialize(data).basis_member(3, w)
        verified = deserialize(data)
        assert verified.verify_certificates() == []
        assert verified.basis_member(3, w) == plain

    def test_last_condition_list_decides(self):
        # the last condition's level n is the chain's union, so each word
        # that its own level-n list holds is a yes at the last stage, also
        # where the bounded search finds no certificate for it
        st = built_chain("assgp", 120, 0)
        system = st.chain[-1].system
        for n in (1, 3, 6):
            for w, _ in system.enumerate(n, BUD):
                ans = st.basis_member(n, w)
                assert ans.is_yes and ans.stage == len(st.chain) - 1, (n, w)
                assert system.verify_rep(n, w, ans.rep) == (True, ""), (n, w)

    def test_cli_member_from_the_list(self, tmp_path, capsys):
        path = tmp_path / "assgp.json"
        path.write_bytes(serialize(built_chain("assgp", 120, 0)))
        argv = ["query", "member", "--n", "3", "--word", "k x[5..9]"]
        assert main([*argv, "--state", str(path), "--out", "-"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["stage"], out["certificate_verified"]) == ("yes", 72, True)

    def test_deep_chain_finds_what_an_earlier_condition_finds(self):
        # full-1000 stacks 381 enrich layers, more than the 120 search nodes;
        # a target g0 that the condition holding its E certificate finds at
        # level n is a yes of the last condition
        st = built_chain("full", 1000, 0)
        last = st.chain[-1].system
        for key, rec in st.certs.items():
            if rec["kind"] != "E":
                continue
            d = descriptor_from_key(key)
            g0 = W(rec["g0"])
            assert st.basis_member(rec["level"], g0).is_yes, key
            if st.chain[rec["stage"]].system.member(d.n, g0, st.budget).is_yes:
                ans = st.basis_member(d.n, g0)
                assert ans.is_yes and last.verify_rep(d.n, g0, ans.rep) == (True, ""), key

    def test_conj_answers_every_cached_key_from_its_certificate(self):
        # the stored certificate of an E key holds in the last condition, and
        # nesting it with x = e carries it down to level n: every key that
        # conj_density_witness rebuilds is answered without a search, also
        # where a search of the last condition finds no certificate
        st = built_chain("full", 1000, 0)
        last = st.chain[-1].system
        n_chain, n_certs = len(st.chain), len(st.certs)
        answered = 0
        for key, rec in list(st.certs.items()):
            d = descriptor_from_key(key)
            if rec["kind"] != "E" or letters(d.g).union(letters(d.h)) != d.S:
                continue
            out = st.conj_density_witness(d.g, d.h.inverse(), d.n)
            assert out["witness"] == W(rec["g0"]) and out["stage"] == n_chain - 1, key
            assert last.verify_rep(d.n, out["witness"], out["basis"].rep) == (True, ""), key
            answered += 1
        assert answered == 49
        assert (len(st.chain), len(st.certs)) == (n_chain, n_certs)

    def test_decides_what_the_stage_walk_decides(self):
        # a yes of the walk is a yes at the last stage that verifies there,
        # and a no stays a no; an unknown may be decided either way
        st = built_chain("assgp", 120, 0)
        system = st.chain[-1].system
        rng = random.Random(10)
        corpus = [(n, W("x4 x[1..3]")) for n in (0, 1, 2)] + [(3, W("k x[5..9]"))]
        for n in range(system.depth + 1):
            corpus.append((n, rand_nonempty_word(rng, range(0, 800, 25), 4)))
        for n in range(system.depth):  # check_group_axioms' first products
            pool = system.enumerate(n + 1, BUD)[:3]
            pairs = itertools.islice(itertools.product(pool, pool), 3)
            corpus += [(n, multiply(u, v)) for (u, _), (v, _) in pairs]
        for n, w in corpus:
            verdict = stage_walk(st, n, w)
            ans = st.basis_member(n, w)
            if verdict == "yes":
                assert ans.is_yes and ans.stage == len(st.chain) - 1, (n, w)
                assert system.verify_rep(n, w, ans.rep) == (True, ""), (n, w)
            elif verdict == "no":
                assert ans.is_no, (n, w)


def member_answer_records(st):
    """Seeded member queries on several conditions of st and basis_member
    queries on st, as (verdict, reason, certificate) and (verdict, stage,
    certificate) records.  A third of the words hold a letter of the last
    condition's alphabet, which earlier conditions lack, and a third a
    letter of no alphabet."""
    rng = random.Random(1414)
    last = st.chain[-1]
    wide = list(last.alphabet)

    def word():
        raw = [rng.choice((1, 2, 3, 4, 5, 6)) * rng.choice((1, -1)) for _ in range(rng.randint(1, 5))]
        kind = rng.randrange(3)
        if kind:
            gen = rng.choice(wide) if kind == 1 else 10**6
            raw.insert(rng.randrange(len(raw) + 1), (gen + 1) * rng.choice((1, -1)))
        return reduce(raw)

    def cert(ans):
        return rep_to_obj(ans.rep) if ans.rep else None

    for idx in (0, 5, 9, 18, 27, 36, 45, 60, len(st.chain) - 1):
        system = st.chain[idx].system
        for n in sorted({*range(0, system.depth + 1, 3), system.depth}):
            listed = system.enumerate(n, BUD)
            for w in (word(), word(), word(), rng.choice(listed)[0]):
                ans = system.member(n, w, BUD)
                yield ["member", idx, n, str(w), ans.verdict, ans.reason, cert(ans)]
    for n in range(last.depth + 1):
        for w in (word(), word(), rng.choice(last.system.enumerate(n, BUD))[0]):
            ans = st.basis_member(n, w)
            yield ["basis", n, str(w), ans.verdict, ans.stage, cert(ans)]


def test_member_answers_golden():
    # 398 records on the query-mix state.  The digest was taken from a search
    # that tested every word's letters at every enriched layer it passed, so
    # a cheaper search node must still give each of these answers
    h = hashlib.sha256()
    for rec in member_answer_records(built_chain("assgp", 120, 0)):
        h.update(json.dumps(rec, separators=(",", ":")).encode())
    assert h.hexdigest() == "a4e7809b394db236b7d6f8e931f66933c76b019847d85f4afd7075097c3b0453"


class TestSeparation:
    def test_after_C_stage(self):
        # separation_index still walks the stages, and the stage it names
        # refutes g on a fresh member call
        rng = random.Random(8)
        big = built_chain("assgp", 120, 0)
        cases = [(small_chain("t2", 6), a)]
        cases += [(big, rand_nonempty_word(rng, range(6), 4)) for _ in range(6)]
        for st, g in cases:
            stage, level = st.separation_index(g)
            assert st.chain[stage].system.member(level, g).is_no, g

    def test_identity_rejected(self):
        st = small_chain("t2", 3)
        with pytest.raises(TrivialG):
            st.separation_index(E)

    def test_not_yet_separated(self):
        st = new_chain("t2", Mode("test", 2), BUD, 0)
        with pytest.raises(NotYetSeparated):
            st.separation_index(single(5))


class TestConjDensity:
    def test_witness_certified(self):
        st = small_chain("full", 5)
        rec = st.conj_density_witness(a, b, 1)
        f = rec["f"]
        expected = multiply(multiply(multiply(f, a), f.inverse()), b.inverse())
        assert expected == rec["witness"]
        assert rec["basis"].is_yes

    def test_cached_deterministic(self):
        st = small_chain("full", 5)
        r1 = st.conj_density_witness(a, b, 1)
        n_chain = len(st.chain)
        r2 = st.conj_density_witness(a, b, 1)
        assert r1["f"] == r2["f"]
        assert len(st.chain) == n_chain  # no new conditions for a cached query

    def test_identity_h(self):
        st = small_chain("full", 5)
        rec = st.conj_density_witness(a, E, 2)
        f = rec["f"]
        assert rec["witness"] == multiply(multiply(f, a), f.inverse())

    def test_trivial_g_rejected(self):
        st = small_chain("full", 3)
        with pytest.raises(TrivialG):
            st.conj_density_witness(E, b, 1)

    def test_stored_targets_stand_at_level_1_in_one_leaf(self):
        # each E target is adjoined at a depth of up to 201; its leaf
        # stands at level 1 as it is, with no nesting node per level
        st = built_chain("full", 1000, 0)
        system = st.chain[-1].system
        targets = [parse_word(r["g0"]) for r in st.certs.values() if r["kind"] == "E"]
        assert targets
        for g0 in targets:
            rep = system.adjoined_rep(1, g0)
            assert isinstance(rep, Leaf) and system.verify_rep(1, g0, rep) == (True, "")


class TestAssgpCertificate:
    def test_single_letter(self):
        st = small_chain("full", 5)
        cert = st.assgp_certificate(1, a)
        prod = E
        for f in cert.factors:
            prod = multiply(prod, f)
        assert prod == a
        assert len(cert.factors) == 3

    def test_identity_empty(self):
        st = small_chain("full", 3)
        assert st.assgp_certificate(1, E).factors == ()

    def test_length_two_word(self):
        st = small_chain("full", 5)
        g = parse_word("a b^-1")
        cert = st.assgp_certificate(1, g)
        prod = E
        for f in cert.factors:
            prod = multiply(prod, f)
        assert prod == g

    def test_deep_query_descends_to_level_1(self, tmp_path, capsys):
        # on full-1000 the generators are adjoined at depth 201, far below
        # where a 120-node search of level 1 reaches; the query appends
        # conditions, so it runs on a copy of the shared state
        data = serialize(built_chain("full", 1000, 0))
        st = deserialize(data)
        g = parse_word("a b")
        cert = st.assgp_certificate(1, g)
        prod = E
        for f in cert.factors:
            prod = multiply(prod, f)
        assert prod == g
        at_1 = ps.CycCert(cert.target, cert.factors, cert.gens, cert.exponents, 1)
        assert ps.verify_cyc_cert(at_1, st.chain[-1].system) == (True, "")
        path = tmp_path / "full1000.json"
        path.write_bytes(data)
        argv = ["query", "assgp", "--state", str(path), "--n", "1", "--g", "a b", "--out", "-"]
        assert main(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["target"] == "a b" and out["level"] == cert.level


class TestChecksDoNotSearch:
    """A certificate re-verifies without the search that found it."""

    @staticmethod
    def refuse_search(monkeypatch):
        def member(*args):
            raise AssertionError("a check searched")

        monkeypatch.setattr(Nsys, "member", member)

    @pytest.mark.parametrize("preset, steps", [("assgp", 120), ("full", 1000)])
    def test_stored_certificates(self, monkeypatch, preset, steps):
        st = deserialize(serialize(built_chain(preset, steps, 0)))
        self.refuse_search(monkeypatch)
        assert st.verify_certificates() == []

    def test_fresh_cyclic_certificate(self, monkeypatch):
        p = built_chain("assgp", 120, 0).chain[-1]
        q, cert, _ = ps.cyc_witness(p, parse_word("a b"), Mode("test", 2), BUD)
        self.refuse_search(monkeypatch)
        assert ps.verify_cyc_cert(cert, q.system) == (True, "")

    def test_generator_that_no_layer_adjoins_is_refused(self):
        # x[2..4] b is listed at level 1, and a search certifies it, but only
        # through conjugation nodes: no layer adjoins ⟨x[2..4] b⟩
        system = built_chain("assgp", 120, 0).chain[-1].system
        w = W("x[2..4] b")
        assert w in dict(system.enumerate(1, BUD)) and system.member(1, w, BUD).is_yes
        assert system.adjoined_rep(1, w) is None
        cert = ps.CycCert(w, (w,), (w,), (1,), 1)
        assert ps.verify_cyc_cert(cert, system) == (False, f"power {w}^1 not certified at level 1")


def adjoined_probes(system):
    """e, and for each word c that an enriched layer of the stack adjoins,
    its powers c^±1..3, and c^±1 with its first or last letter changed to
    the next generator's, conjugated by a, and turned by one letter."""
    out = {E}
    for layer in system.ancestors():
        for c in layer.extra.finite + layer.extra.cyclic if isinstance(layer, EnrichedNsys) else ():
            out.update(power(c, k) for k in (1, 2, 3, -1, -2, -3))
            for w in (c, c.inverse()) if not c.is_identity() else ():
                spelled = flatten_letters(w)
                for pos in (0, len(spelled) - 1):
                    other = spelled[pos] + (1 if spelled[pos] > 0 else -1)
                    out.add(reduce(spelled[:pos] + [other] + spelled[pos + 1 :]))
                for x in (a, reduce([-w.first])):
                    out.add(multiply(multiply(x, w), x.inverse()))
    return sorted(out, key=word_key)


class TestAdjoinedIndex:
    """One dict per run of enriched layers answers what the walk that tests
    every layer's adjoined set answers (the reference in ``oracle``)."""

    @pytest.mark.parametrize("preset, steps", [("full", 240), ("assgp", 120)])
    def test_lookup_matches_the_per_layer_walk(self, preset, steps):
        system = built_chain(preset, steps, 0).chain[-1].system
        found = 0
        for w in adjoined_probes(system):
            for i, (rep, vouched) in enumerate(reference_adjoined(system, w)):
                assert system.adjoined_rep(i, w) == rep, (i, str(w))
                assert system.verify_rep(i, w, Leaf(i, w, "extra"))[0] == vouched, (i, str(w))
                found += vouched
        assert found


class TestGroupAxioms:
    def test_trivial_chain_vacuous_pass(self):
        st = new_chain("t2", Mode("test", 2), BUD, 0)
        rpt = st.check_group_axioms(samples=2)
        assert rpt["passed"]

    def test_built_chain_passes(self):
        st = small_chain("full", 10)
        rpt = st.check_group_axioms(Budget(leaf_len=6, exp=2, nodes=100), samples=3)
        assert rpt["passed"], [e for e in rpt["entries"] if not e["ok"]][:3]
        kinds = {e["kind"] for e in rpt["entries"]}
        assert {"product", "symmetry", "conjugation"} <= kinds

    def test_certificates_verify_without_the_member_fallback(self, monkeypatch):
        # each check verifies the certificate its closure argument predicts,
        # or e's own leaf, and never searches; on a stack whose level 1 is
        # its base's list, every one of them (built from that list's
        # certificates) must verify, with member stubbed to unknown so that
        # only the basis cross-check reads it
        V = shared_level_stack()
        st = new_chain("t2", Mode("test", 2), SHARED_BUDGET, 0)
        st.chain.append(Condition(V))
        monkeypatch.setattr(V, "member", lambda *args: MembershipAnswer("unknown"))
        rpt = st.check_group_axioms(SHARED_BUDGET, samples=3)
        assert rpt["passed"], [e for e in rpt["entries"] if not e["ok"]][:3]
        assert {"product", "symmetry", "conjugation"} <= {e["kind"] for e in rpt["entries"]}


class TestSerialization:
    def test_round_trip_identity(self):
        st = small_chain("full", 10)
        blob = serialize(st)
        st2 = deserialize(blob)
        assert serialize(st2) == blob
        assert len(st2.chain) == len(st.chain)

    def test_deterministic_rebuild(self):
        st1 = small_chain("full", 12, seed=3)
        st2 = small_chain("full", 12, seed=3)
        assert serialize(st1) == serialize(st2)

    def test_seed_changes_bytes(self):
        assert serialize(small_chain("t2", 6, seed=1)) != serialize(
            small_chain("t2", 6, seed=2)
        )

    def test_corrupt_data_raises(self):
        with pytest.raises(FormatError):
            deserialize(b"not json at all {")
        with pytest.raises(FormatError):
            deserialize(b'{"format":"other"}')
        with pytest.raises(FormatError):
            deserialize(b'{"format":"assgp-chain","version":99}')

    def test_certificates_reverify_after_load(self):
        st = small_chain("full", 10)
        st.conj_density_witness(a, b, 1)
        st2 = deserialize(serialize(st))
        assert st2.verify_certificates() == []

    def test_cyc_cert_reads_back(self):
        st = small_chain("assgp", 6)
        recs = [r["cyc"] for r in st.certs.values() if r["kind"] == "D" and r.get("cyc")]
        assert recs
        for obj in recs:
            assert ps.CycCert.from_obj(obj).describe() == obj

    def test_t2_state_with_generator_4_reads_back(self):
        # the state holds words with generator 4, which must not print as "e"
        st = small_chain("t2", 35)
        blob = serialize(st)
        assert b"x4" in blob
        assert serialize(deserialize(blob)) == blob

    def test_resumed_chain_continues_deterministically(self):
        st = small_chain("full", 8, seed=5)
        resumed = deserialize(serialize(st))
        st.run(4)
        resumed.run(4)
        assert serialize(st) == serialize(resumed)


class TestFailedWitness:
    def test_failed_witness_is_logged_once(self, monkeypatch):
        # the chain logs a failed witness once and takes the next scheduled
        # descriptor; nothing is retried, also after a reload
        real = ch.witness
        attempts = []

        def witness(p, d, mode, budget):
            if d.key() == "C:a":
                attempts.append(budget)
                raise ps.WitnessFailed("forced failure")
            return real(p, d, mode, budget)

        monkeypatch.setattr(ch, "witness", witness)
        st = small_chain("full", 2)
        mid = serialize(st)
        st.run(6)  # C:a is the third scheduled descriptor
        assert attempts == [BUD]
        assert [(e["origin"], e["status"]) for e in st.step_log if e["descriptor"] == "C:a"] == [
            ("scheduled", "failed")
        ]
        failed = st.step_log[2]
        assert (failed["descriptor"], failed["reason"]) == ("C:a", "forced failure")
        assert all(e["origin"] == "scheduled" for e in st.step_log)
        assert all(e["status"] == "ok" for e in st.step_log[3:])
        assert "C:a" not in st.certs and st.stage == len(st.step_log) == 8

        resumed = deserialize(mid)
        resumed.run(6)
        assert serialize(resumed) == serialize(st)
