"""Batch command-line surface.

Subcommands:

* ``build``        — run a chain for a number of scheduled steps and write the
                     state file plus per-step extension reports;
* ``verify``       — run the property suites (word laws, collapse equality,
                     same-sign corollary, η-invariance, letter bounds,
                     extension instantiation) with configurable trial counts;
* ``query``        — answer member / separate / conj / assgp queries against a
                     state file, re-verifying stored certificates on load;
* ``check-axioms`` — sampled product/symmetry/conjugation checks on a state;
* ``export``       — dump all stored certificates after independent re-checks.

``query`` and ``check-axioms`` search at the budget recorded in the state
file, the budget its ``build`` used.

Exit status: 0 success; 1 a verification failed or a counterexample was
found; 2 usage or file-format errors; 3 query not yet decidable at the
current stage (separation).  Unknown membership verdicts never affect exit
status by themselves.

All outputs are canonical JSON: identical configurations give byte-identical
files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import cancel as cc
from . import chain as ch
from . import nbhd
from . import poset as ps
from .nbhd import Budget
from .words import (
    E,
    IdSet,
    WordError,
    letters,
    multiply,
    parse_word,
    reduce as reduce_word,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_YET = 3


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_state(path: str) -> ch.ChainState:
    with open(path, "rb") as fh:
        return ch.deserialize(fh.read())


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    budget = Budget(args.budget_leaf, args.budget_exp, args.budget_nodes)
    state = ch.new_chain(args.preset, args.mode, budget, args.seed)
    state.run(args.steps)
    failures = [e for e in state.step_log if e["status"] != "ok"]
    bad_reports = [
        (e["descriptor"], r["violations"])
        for e in state.step_log
        for r in e["reports"]
        if not r["passed"]
    ]
    _write(args.out, ch.serialize(state).decode())
    if args.report:
        report = {
            "steps": state.stage,
            "conditions": len(state.chain),
            "final_depth": state.chain[-1].depth,
            "final_alphabet_size": state.chain[-1].alphabet.size,
            "witness_failures": [e["descriptor"] for e in failures],
            "failed_reports": [
                {"descriptor": d, "violations": v} for d, v in bad_reports
            ],
            "step_log": state.step_log,
        }
        _write(args.report, _canon_json(report))
    if failures or bad_reports:
        print(
            f"build: {len(failures)} witness failures, "
            f"{len(bad_reports)} failed extension reports",
            file=sys.stderr,
        )
        return EXIT_FAIL
    print(
        f"build: {state.stage} steps, {len(state.chain)} conditions, "
        f"depth {state.chain[-1].depth}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_word_laws(trials: int, seed: int) -> dict:
    rng = random.Random(seed)
    counterexamples = []
    for t in range(trials):
        raws = [
            [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 10))]
            for _ in range(3)
        ]
        x, y, z = (reduce_word(r) for r in raws)
        if (x * y) * z != x * (y * z):
            counterexamples.append({"law": "associativity", "trial": t})
        if x * x.inverse() != E or (x * E) != x:
            counterexamples.append({"law": "identity/inverse", "trial": t})
        if not letters(x * y).issubset(letters(x).union(letters(y))):
            counterexamples.append({"law": "letters-subadditive", "trial": t})
    return {"name": "word-laws", "trials": trials, "counterexamples": counterexamples}


def _suite_collapse(trials: int, seed: int) -> dict:
    counterexamples = []
    params = cc.GenParams()
    for t, inst in enumerate(itertools.islice(cc.gen_instances(seed, params), trials)):
        rpt = cc.collapse_check(inst)
        if not rpt.ok:
            counterexamples.append({"trial": t, **rpt.describe()})
    return {"name": "collapse", "trials": trials, "counterexamples": counterexamples}


def _suite_same_sign(trials: int, seed: int) -> dict:
    counterexamples = []
    params = cc.GenParams(sample_j0=True, k=4)
    for t, inst in enumerate(itertools.islice(cc.gen_same_sign(seed, params), trials)):
        rpt = cc.same_sign_not_in_FX(inst)
        if not rpt.ok:
            counterexamples.append({"trial": t, **rpt.describe()})
    return {"name": "same-sign", "trials": trials, "counterexamples": counterexamples}


def _suite_eta(trials: int, seed: int, inject_bug: str) -> dict:
    rng = random.Random(seed)
    counterexamples = []
    X = IdSet.of(0, 1)
    for t in range(trials):
        g = cc._rand_reduced(rng, [1, 2], 5)
        while g.is_identity():
            g = cc._rand_reduced(rng, [1, 2], 5)
        st = cc.make_setting(X, g, cc._rand_reduced(rng, [1, 2], 4), rng.randint(2, 5))
        seq = []
        for _ in range(rng.randint(1, 3)):
            q = rng.choice([qq for qq in range(-3, 4) if qq])
            seq.append(st.g0**q)
            seq.append(st.g0 ** (-q))
            seq.append(cc._rand_reduced(rng, [1, 2], 4))
        rpt = cc.eta_invariance_check(seq, st)
        if inject_bug == "eta-skip":
            # deliberately keep the first collapsed factor un-collapsed
            rhs = E
            for idx, w in enumerate(seq, 1):
                rhs = multiply(rhs, E if idx in rpt.L[1:] else w)
            if rpt.lhs != rhs:
                counterexamples.append({"trial": t, "lhs": str(rpt.lhs), "rhs": str(rhs)})
        elif not rpt.ok:
            counterexamples.append({"trial": t, **rpt.describe()})
    return {"name": "eta-invariance", "trials": trials, "counterexamples": counterexamples}


def _suite_letter_bound(trials: int) -> dict:
    counterexamples = []
    checked = 0
    if trials > 0:
        budget = Budget(leaf_len=6, exp=2, nodes=150)
        for size in (1, 2):
            X = IdSet.from_range(0, size - 1)
            for n in (1, 2):
                U = nbhd.trivial_system(X, n)
                fresh = IdSet.from_range(40, 41)
                for V in (
                    nbhd.cyclic_alphabet_extension(U, fresh),
                    nbhd.identity_extension(U, fresh),
                ):
                    for i in range(n + 1):
                        for w, rep in V.enumerate(i, budget):
                            checked += 1
                            if not nbhd.letter_bound_check(rep, size, n, i):
                                counterexamples.append(
                                    {"sizeX": size, "n": n, "i": i, "word": str(w)}
                                )
    return {
        "name": "letter-bound",
        "trials": checked,
        "counterexamples": counterexamples,
    }


def _suite_extension(trials: int, seed: int) -> dict:
    counterexamples = []
    checked = 0
    if trials > 0:
        budget = Budget(leaf_len=6, exp=2, nodes=200)
        grid = [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 2, 4)]
        for size, n, k in grid[: max(1, min(trials, len(grid)))]:
            X = IdSet.from_range(0, size - 1)
            p = ps.Condition(nbhd.trivial_system(X, n))
            g = parse_word("a")
            h = parse_word("b") if size > 1 else parse_word("a")
            ext = ps.conj_extension(p, g, h, ps.Mode("test", k), budget)
            checked += ext.report.checked
            for viol in ext.report.violations:
                counterexamples.append(
                    {"sizeX": size, "n": n, "k": k, "violation": list(viol)}
                )
    return {"name": "extension", "trials": checked, "counterexamples": counterexamples}


def cmd_verify(args) -> int:
    trials = args.trials
    suites = [
        _suite_word_laws(trials, args.seed),
        _suite_collapse(trials, args.seed + 1),
        _suite_same_sign(max(trials // 5, 0), args.seed + 2),
        _suite_eta(max(trials // 5, 0), args.seed + 3, args.inject_bug),
        _suite_letter_bound(trials),
        _suite_extension(trials, args.seed + 4),
    ]
    total_cx = sum(len(s["counterexamples"]) for s in suites)
    vacuous = all(s["trials"] == 0 for s in suites)
    report = {
        "suites": suites,
        "counterexamples": total_cx,
        "vacuous": vacuous,
        "injected_bug": args.inject_bug,
    }
    _write(args.report, _canon_json(report))
    for s in suites:
        status = "PASS" if not s["counterexamples"] else "FAIL"
        if s["trials"] == 0:
            status = "VACUOUS"
        print(f"verify: {s['name']:<16} {status} ({s['trials']} trials)", file=sys.stderr)
    if vacuous:
        print("verify: all suites vacuous (zero trials)", file=sys.stderr)
    return EXIT_FAIL if total_cx else EXIT_OK


# ---------------------------------------------------------------------------
# query / check-axioms / export
# ---------------------------------------------------------------------------


def cmd_query(args) -> int:
    try:
        state = _load_state(args.state)
    except (OSError, ch.FormatError) as exc:
        print(f"query: cannot load state: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bad = state.verify_certificates()
    if bad:
        print(f"query: stored certificates failed re-verification: {bad}", file=sys.stderr)
        return EXIT_FAIL

    if args.what == "member":
        w = parse_word(args.word)
        ans = state.basis_member(args.n, w)
        out = {
            "query": "member",
            "n": args.n,
            "word": str(w),
            "verdict": ans.verdict,
            "stage": ans.stage,
        }
        if ans.rep is not None:
            out["certificate"] = nbhd.rep_to_obj(ans.rep)
            ok, why = state.chain[-1].system.verify_rep(args.n, w, ans.rep)
            out["certificate_verified"] = ok
            if not ok:
                _write(args.out, _canon_json(out))
                return EXIT_FAIL
        _write(args.out, _canon_json(out))
        return EXIT_OK

    if args.what == "separate":
        g = parse_word(args.g)
        try:
            stage, level = state.separation_index(g)
        except ch.NotYetSeparated:
            _write(args.out, _canon_json({"query": "separate", "g": args.g, "verdict": "not-yet"}))
            return EXIT_NOT_YET
        _write(
            args.out,
            _canon_json(
                {"query": "separate", "g": str(g), "stage": stage, "level": level}
            ),
        )
        return EXIT_OK

    if args.what == "conj":
        g, h = parse_word(args.g), parse_word(args.h)
        rec = state.conj_density_witness(g, h, args.n)
        out = {
            "query": "conj",
            "f": str(rec["f"]),
            "witness": str(rec["witness"]),
            "stage": rec["stage"],
            "certificate": nbhd.rep_to_obj(rec["basis"].rep),
        }
        _write(args.out, _canon_json(out))
        return EXIT_OK

    # args.what == "assgp", the last of the choices argparse admits
    g = parse_word(args.g)
    try:
        cert = state.assgp_certificate(args.n, g)
    except ps.WitnessFailed as exc:
        _write(args.out, _canon_json({"query": "assgp", "failed": str(exc)}))
        return EXIT_FAIL
    _write(args.out, _canon_json({"query": "assgp", **cert.describe()}))
    return EXIT_OK


def cmd_check_axioms(args) -> int:
    try:
        state = _load_state(args.state)
    except (OSError, ch.FormatError) as exc:
        print(f"check-axioms: cannot load state: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rpt = state.check_group_axioms(samples=args.samples)
    _write(args.out, _canon_json(rpt))
    print(
        f"check-axioms: {'PASS' if rpt['passed'] else 'FAIL'} "
        f"({len(rpt['entries'])} checks, {rpt['violations']} violations)",
        file=sys.stderr,
    )
    return EXIT_OK if rpt["passed"] else EXIT_FAIL


def cmd_export(args) -> int:
    try:
        state = _load_state(args.state)
    except (OSError, ch.FormatError) as exc:
        print(f"export: cannot load state: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bad = state.verify_certificates()
    out = {
        "certificates": state.certs,
        "reverification_failures": bad,
        "stages": len(state.chain),
    }
    _write(args.out, _canon_json(out))
    return EXIT_FAIL if bad else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _mode_arg(text: str) -> ps.Mode:
    try:
        return ps.parse_mode(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _word_arg(text: str) -> str:
    """Check that text parses as a word; keep the text, which output echoes."""
    try:
        parse_word(text)
    except WordError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _count_arg(least: int):
    """An argparse type: an integer count of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="assgp",
        description="Build and query desk-scale neighbourhood-system chains on free groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="run a chain and write its state")
    b.add_argument("--preset", choices=ch.PRESETS, default="full")
    b.add_argument("--steps", type=_count_arg(0), default=20)
    b.add_argument("--mode", type=_mode_arg, default="test:2")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="chain.json")
    b.add_argument("--report", default=None)
    b.add_argument("--budget-leaf", type=_count_arg(1), default=nbhd.DEFAULT_BUDGET.leaf_len)
    b.add_argument("--budget-exp", type=_count_arg(1), default=nbhd.DEFAULT_BUDGET.exp)
    b.add_argument("--budget-nodes", type=_count_arg(1), default=nbhd.DEFAULT_BUDGET.nodes)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("--trials", type=_count_arg(0), default=500)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", default="-")
    v.add_argument(
        "--inject-bug",
        choices=["none", "eta-skip"],
        default="none",
        help="deliberately corrupt one check to demonstrate suite sensitivity",
    )
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("query", help="answer a query against a state file")
    q.add_argument("what", choices=["member", "separate", "conj", "assgp"])
    q.add_argument("--state", required=True)
    q.add_argument("--n", type=int, default=1)
    q.add_argument("--word", type=_word_arg, default="e")
    q.add_argument("--g", type=_word_arg, default="a")
    q.add_argument("--h", type=_word_arg, default="e")
    q.add_argument("--out", default="-")
    q.set_defaults(func=cmd_query)

    c = sub.add_parser("check-axioms", help="sampled group-axiom checks on a state")
    c.add_argument("--state", required=True)
    c.add_argument("--samples", type=_count_arg(0), default=3)
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_check_axioms)

    e = sub.add_parser("export", help="dump re-verified certificates")
    e.add_argument("--state", required=True)
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ps.TrivialG, cc.CancelError, nbhd.NbhdError, ps.PosetError, ch.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ch.ChainError as exc:  # a stored or derived certificate failed to verify
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
