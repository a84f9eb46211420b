"""The CLI's outputs on a fixed corpus of commands, pinned byte for byte.

Each command runs in process through ``main``.  Its exit status, stdout,
stderr and the files it writes are hashed, with the temporary directory's
path replaced by ``<tmp>``, and the digest is compared with the one that
``data/cli_golden.json`` pins for that command.  argparse's messages are
wrapped at 80 columns, and their wording is that of Python 3.11.

Run as a script, this file prints the digests of the tree it runs in, for
re-pinning at the commit a change starts from:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from assgp.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

STATES = [("t2", 60), ("simple", 60), ("assgp", 120), ("full", 120)]
WORDS = ["e", "a", "a b a^-1", "x4 x[1..3]", "k x[5..9]", "c d c^-1 d^-1", "zz", "a^-1 a"]
SEPARATE = ["a", "a b", "x4", "c^-1 d"]
# a state file with a list nested past the JSON decoder's recursion limit
DEEP = ("<tmp>/deep.json", '{"certs": ' + "[" * 5000 + "]" * 5000 + "}")


def corpus():
    """(argv, files it writes) of each command, with paths under <tmp>."""
    for preset, steps in STATES:
        state = f"<tmp>/{preset}-{steps}.json"
        report = f"<tmp>/{preset}-{steps}-report.json"
        build = ["build", "--preset", preset, "--steps", str(steps), "--out", state]
        yield build + ["--report", report], [state, report]
        on_state = ["--state", state]
        for n in (0, 1, 3, 5):
            for w in WORDS:
                yield ["query", "member", *on_state, "--n", str(n), "--word", w], []
        for g in SEPARATE:
            yield ["query", "separate", *on_state, "--g", g], []
        yield ["query", "conj", *on_state, "--n", "0", "--g", "a", "--h", "b"], []
        yield ["query", "conj", *on_state, "--n", "1", "--g", "a", "--h", "b"], []
        yield ["query", "conj", *on_state, "--n", "2", "--g", "a b", "--h", "b^-1"], []
        yield ["query", "assgp", *on_state, "--n", "0", "--g", "a"], []
        yield ["query", "assgp", *on_state, "--n", "1", "--g", "a"], []
        yield ["query", "assgp", *on_state, "--n", "2", "--g", "a b"], []
        yield ["check-axioms", *on_state], []
        yield ["export", *on_state], []
    yield ["verify", "--trials", "300"], []
    for seed in (1, 2, 3):
        yield ["verify", "--trials", "500", "--seed", str(seed)], []
    yield ["verify", "--inject-bug", "eta-skip"], []
    paper = ["<tmp>/paper.json", "<tmp>/paper-report.json"]
    yield ["build", "--mode", "paper", "--steps", "8", "--out", paper[0], "--report", paper[1]], paper
    yield ["build", "--mode", "paper:3", "--out", "<tmp>/paper3.json"], []
    yield ["query", "member", "--state", "<tmp>/missing.json", "--word", "a"], []
    yield ["query", "member", "--state", "<tmp>/t2-60.json", "--word", "a b("], []
    for argv in (["query", "member", "--word", "a"], ["export"], ["check-axioms"]):
        yield [*argv, "--state", DEEP[0]], []


def digest(argv, files, tmp: str) -> str:
    """sha256 of the command's exit status, stdout, stderr and files."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([a.replace("<tmp>", tmp) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    h = hashlib.sha256()
    parts = [str(code), out.getvalue(), err.getvalue()]
    parts += [Path(f.replace("<tmp>", tmp)).read_text() for f in files]
    for part in parts:
        h.update(part.replace(tmp, "<tmp>").encode())
        h.update(b"\0")
    return h.hexdigest()


def digests(tmp: str) -> dict:
    Path(DEEP[0].replace("<tmp>", tmp)).write_text(DEEP[1])
    return {shlex.join(argv): digest(argv, files, tmp) for argv, files in corpus()}


def test_cli_outputs_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads(GOLDEN.read_text())
    got = digests(str(tmp_path))
    assert list(got) == list(pinned)
    assert [cmd for cmd in got if got[cmd] != pinned[cmd]] == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(tmp), sys.stdout, indent=1)
        print()
