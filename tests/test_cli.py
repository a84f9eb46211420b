import copy
import functools
import json
import operator
import random
import signal

import pytest

from assgp import chain as ch
from assgp.cli import EXIT_FAIL, EXIT_NOT_YET, EXIT_OK, EXIT_USAGE, main
from assgp.poset import Mode
from assgp.words import MATERIALIZE_CAP, parse_word


def run(argv) -> int:
    """main(argv)'s exit status; argparse usage errors exit via SystemExit."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def state(tmp_path):
    path = tmp_path / "chain.json"
    assert run(["build", "--steps", 10, "--out", path]) == EXIT_OK
    return path


def _first_enrich(obj):
    return next(l for c in obj["chain"] for l in c["layers"] if l["kind"] == "enrich")


def query(state, *argv):
    return run(["query", *argv, "--state", state, "--out", "-"])


class TestBuild:
    def test_repeat_is_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            out, rep = tmp_path / f"s{i}.json", tmp_path / f"r{i}.json"
            argv = ["build", "--steps", 12, "--seed", 3, "--out", out, "--report", rep]
            assert run(argv) == EXIT_OK
            outs.append((out.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["build", "--mode", "bogus"], id="bogus"),
            pytest.param(["build", "--mode", "test:1"], id="test:1"),
            pytest.param(["build", "--mode", "test:x"], id="test:x"),
            ["build", "--steps", "-3"],
            ["build", "--steps", "2.5"],
            ["build", "--budget-leaf", "0"],
            ["build", "--budget-exp", "-1"],
            ["build", "--budget-nodes", "0"],
            ["verify", "--trials", "-1"],
            ["check-axioms", "--samples", "-2"],
        ],
        ids=lambda argv: f"{argv[1]}={argv[2]}",
    )
    def test_bad_mode_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "s.json"
        where = {"build": ["--out", out], "verify": ["--report", out]}
        argv = argv + where.get(argv[0], ["--state", out, "--out", out])
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert argv[1] in err and "Traceback" not in err
        assert not out.exists()

    def test_paper_mode_refuses_past_the_cap(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["build", "--mode", "paper", "--steps", 12, "--out", out]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "step 8" in err and "cap is 2^4096" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_paper_mode_below_the_cap_builds(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["build", "--mode", "paper", "--steps", 8, "--out", out]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["mode"] == "paper"


class TestVerify:
    def test_passes(self, tmp_path):
        rep = tmp_path / "v.json"
        assert run(["verify", "--trials", 50, "--report", rep]) == EXIT_OK
        report = json.loads(rep.read_text())
        assert report["counterexamples"] == 0 and not report["vacuous"]

    def test_injected_bug_fails(self, tmp_path):
        rep = tmp_path / "v.json"
        argv = ["verify", "--trials", 50, "--inject-bug", "eta-skip", "--report", rep]
        assert run(argv) == EXIT_FAIL
        assert json.loads(rep.read_text())["counterexamples"] > 0


class TestQuery:
    def test_member(self, state, capsys):
        assert query(state, "member", "--word", "e") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "yes" and out["certificate_verified"]

    def test_separate(self, state, capsys):
        assert query(state, "separate", "--g", "a") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["query"] == "separate"

    def test_separate_not_yet_echoes_the_text(self, state, capsys):
        assert query(state, "separate", "--g", "x50  x51") == EXIT_NOT_YET
        out = json.loads(capsys.readouterr().out)
        assert out == {"query": "separate", "g": "x50  x51", "verdict": "not-yet"}

    def test_conj(self, state, capsys):
        assert query(state, "conj", "--g", "a", "--h", "b") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["query"] == "conj"

    def test_assgp(self, state, capsys):
        assert query(state, "assgp", "--g", "a b^-1") == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["factors"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["member", "--word", "zz"],
            ["conj", "--g", "a", "--h", "q!"],
            ["separate", "--g", "e^-1"],
            ["member", "--word", "x[70000..0]"],
        ],
    )
    def test_bad_word_is_usage_error(self, state, argv, capsys):
        assert query(state, *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad word token" in err or "inverse marker" in err
        assert "Traceback" not in err
        if "x[70000..0]" in argv:
            assert f"materialization cap {MATERIALIZE_CAP}" in err

    def test_trivial_g_is_usage_error(self, state, capsys):
        assert query(state, "separate", "--g", "e") == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_state_is_usage_error(self, tmp_path):
        assert query(tmp_path / "none.json", "member") == EXIT_USAGE


class TestStateCommands:
    def test_check_axioms(self, state, capsys):
        assert run(["check-axioms", "--state", state]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_export(self, state, capsys):
        assert run(["export", "--state", state]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["reverification_failures"] == []

    def test_corrupt_state_is_usage_error(self, state, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["export", "--state", bad]) == EXIT_USAGE
        # a list nested past the JSON decoder's recursion limit
        obj = json.loads(state.read_text())
        obj["certs"]["deep"] = "<nested>"
        bad.write_text(json.dumps(obj).replace('"<nested>"', "[" * 5000 + "]" * 5000))
        for argv in (["query", "member", "--word", "a"], ["export"], ["check-axioms"]):
            assert run([*argv, "--state", bad]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "not a valid state file" in err and "Traceback" not in err

        # well-framed files whose content is malformed
        obj = json.loads(state.read_text())
        d_key = next(k for k, r in obj["certs"].items() if r["kind"] == "D")
        e_key = next(k for k, r in obj["certs"].items() if r["kind"] == "E")
        c_key = next(k for k, r in obj["certs"].items() if r["kind"] == "C")
        edits = [
            lambda o: o["certs"][d_key]["cyc"].update(target="zz"),
            # a D payload re-verifies at its level, an int in 0..its stage's
            # depth, over three lists of one length: non-trivial generators
            # and int exponents
            lambda o: o["certs"][d_key]["cyc"].update(level="1"),
            lambda o: o["certs"][d_key]["cyc"].update(level=True),
            lambda o: o["certs"][d_key]["cyc"].update(level=999),
            lambda o: o["certs"][d_key]["cyc"]["gens"].__setitem__(0, ""),
            lambda o: o["certs"][d_key]["cyc"].update(gens=[], exponents=[]),
            lambda o: o["certs"][d_key]["cyc"]["exponents"].__delitem__(slice(1, None)),
            lambda o: o["certs"][d_key]["cyc"]["exponents"].__setitem__(1, True),
            lambda o: o["certs"][d_key]["cyc"]["exponents"].__setitem__(1, 1.0),
            # a C record's level is an int in 0..its stage's depth too
            lambda o: o["certs"][c_key].update(level="1"),
            # a record's kind is its key's: conj reads an E key's f and g0
            lambda o: o["certs"][e_key].update(kind="C"),
            lambda o: o["certs"][e_key].update(g0="zz"),
            lambda o: o["certs"][e_key].pop("g0"),
            lambda o: o["certs"][e_key].pop("rep"),
            lambda o: o["certs"][e_key].pop("f"),
            lambda o: o["certs"][e_key].update(f="zz"),
            # a leaf holds no inner certificate
            lambda o: o["certs"][e_key]["rep"].append(["leaf", 0, "e", "trivial"]),
            lambda o: o["retry_queue"].append(["Q:zz", 1]),
            lambda o: o["certs"][e_key].update(stage=999),
            lambda o: o["certs"][e_key].update(stage="1"),
            # an E record re-verifies at its level, an int in 0..its stage's depth
            lambda o: o["certs"][e_key].update(level="1"),
            lambda o: o["certs"][e_key].update(level=True),
            lambda o: o["certs"][e_key].update(level=-1),
            lambda o: o["certs"][e_key].update(level=999),
            lambda o: o["certs"][d_key].update(kind="Z"),
            lambda o: o["chain"][3].update(base=1),  # not stacked on condition 2
            # a budget is three int caps; a bool is not an int
            lambda o: o["config"].update(budget=[6, 2.5, 120]),
            lambda o: o["config"].update(budget=[6, 2, 120.5]),
            lambda o: o["config"].update(budget=[True, 2, 120]),
            lambda o: o["config"].update(budget=[6, 2]),
            # an enrich layer must hold its base's letters and its adjoined set's
            lambda o: _first_enrich(o).update(alphabet=[[1, 3]]),
            lambda o: _first_enrich(o)["extra"].update(cyclic=["x99"]),
        ]
        # the step log names each condition after the first once, in order,
        # and logs one scheduled entry per stage, the schedule's descriptor
        # for that stage
        edits += [
            lambda o: o["step_log"][4].update(descriptor="C:b a"),
            lambda o: o["chain"].append(
                {"base": len(o["chain"]) - 1, "layers": [{"kind": "pad", "depth": 10**4}]}
            ),
            lambda o: o["step_log"][-1]["new_conditions"].append(len(o["chain"]) - 1),
            lambda o: o.update(stage=o["stage"] + 1),
        ]
        # every one is refused on load, so also by check-axioms, which
        # re-verifies no certificate
        for edit in edits:
            broken = json.loads(state.read_text())
            edit(broken)
            bad.write_text(json.dumps(broken))
            for argv in (["export"], ["query", "member", "--n", 1, "--word", "a"], ["check-axioms"]):
                assert run([*argv, "--state", bad]) == EXIT_USAGE
                err = capsys.readouterr().err
                assert "malformed" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", ["null", "empty", "missing"])
    def test_d_record_without_payload_is_usage_error(self, state, tmp_path, capsys, edit):
        # a D record is stored with its cyc payload, so it is refused without
        # one, not skipped by the re-verification
        obj = json.loads(state.read_text())
        rec = next(r for r in obj["certs"].values() if r["kind"] == "D")
        if edit == "missing":
            del rec["cyc"]
        else:
            rec["cyc"] = None if edit == "null" else {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["export"], ["query", "member", "--n", 1, "--word", "a"], ["check-axioms"]):
            assert run([*argv, "--state", bad]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "malformed" in err and "Traceback" not in err

    def test_failed_reverification_is_a_failure(self, tmp_path, capsys):
        # a cached conjugacy record whose conjugator f no longer conjugates g
        # into g0 is a failed verification, not a traceback
        st = ch.new_chain("full", Mode("test", 2), seed=0)
        st.run(5)
        st.conj_density_witness(parse_word("a"), parse_word("b"), 1)
        obj = st.to_obj()
        obj["certs"]["E:1|0,1|a|b^-1"]["f"] = "a"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert query(bad, "conj", "--n", 1, "--g", "a", "--h", "b") == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "re-verification" in err
        assert "Traceback" not in err


# The state fuzzer: what it sets a JSON path to (_DELETE removes the path),
# and the commands it runs on each edited state.
_DELETE = object()
FUZZ_VALUES = (_DELETE, None, "zz", -1, 10**9, [], {}, True, 1.5, "", [1, 2])
FUZZ_COMMANDS = (
    ["export"],
    ["check-axioms"],
    ["query", "member", "--n", 1, "--word", "a"],
    ["query", "conj", "--n", 1, "--g", "a", "--h", "b"],
    ["query", "assgp", "--n", 1, "--g", "a"],
    ["query", "separate", "--g", "a"],
)
# (edit, command) runs known to outlast the alarm.  A pad at depth 10^9
# loads, and check-axioms asks for every level below it: ROADMAP item 15.
EXPECTED_HANGS = {("chain/3/layers/0/depth=1000000000", "check-axioms")}


class _Alarm(BaseException):
    """The fuzzer's per-run alarm; not an Exception, so no handler in the
    code under test can take it for malformed content."""


def _raise_alarm(signum, frame):
    raise _Alarm


def _json_paths(obj, path=()):
    """Every path into a JSON value, each parent before its children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _json_paths(v, path + (k,))


def _edited(obj, path, value):
    """A copy of obj with path removed or set to value, and the edit's name."""
    obj = copy.deepcopy(obj)
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    name = "/".join(map(str, path))
    if value is _DELETE:
        del parent[path[-1]]
        return obj, f"del {name}"
    parent[path[-1]] = value
    return obj, f"{name}={json.dumps(value)}"


def test_fuzzed_state_never_raises(state, tmp_path, capsys):
    # a seeded sample of edits to a full-10 state's JSON paths; every
    # command returns an exit status and raises nothing, within a second.
    # Always run: two D-record fields that once ended in a traceback, and
    # the pad depth of EXPECTED_HANGS.
    obj = json.loads(state.read_text())
    d_key = next(k for k, r in obj["certs"].items() if r["kind"] == "D")
    rng = random.Random(1)
    edits = [
        (("certs", d_key, "cyc", "level"), "1"),
        (("certs", d_key, "cyc", "gens", 0), ""),
        (("chain", 3, "layers", 0, "depth"), 10**9),
    ] + [(path, rng.choice(FUZZ_VALUES)) for path in rng.sample(list(_json_paths(obj)), 40)]
    bad = tmp_path / "fuzzed.json"
    failed, hung = [], set()
    old = signal.signal(signal.SIGALRM, _raise_alarm)
    try:
        for path, value in edits:
            broken, name = _edited(obj, path, value)
            bad.write_text(json.dumps(broken))
            for argv in FUZZ_COMMANDS:
                command = " ".join(argv[:2])
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                try:
                    outcome = run([*argv, "--state", bad])
                except _Alarm:
                    outcome = "hang"
                except Exception as exc:
                    outcome = repr(exc)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if outcome == "hang":
                    hung.add((name, command))
                elif outcome not in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_NOT_YET):
                    failed.append((name, command, outcome))
            capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, old)
    assert failed == []
    assert hung <= EXPECTED_HANGS
