"""The four benchmark workloads and the correctness gate they run.

Every workload uses mode ``test:2`` and the CLI's default budget (leaf 6,
exp 2, nodes 120), takes the benchmark seed, and calls only the public API
of ``assgp.chain``, ``poset``, ``nbhd``, ``cancel``, ``words`` and
``cli.main``.  Each runs its unit of work until ``seconds`` have passed, but
never fewer than its minimum, so sample counts have a floor that fixes
which tail percentile is reported.

* ``build-full``: builds the ``full`` preset once at every schedule rotation
  (chain seeds seed..seed+4).  It is the headline command and uses all five
  witness families; ``poset.threshold`` computes 2^(|X|·4^n) on every E step.
  A chain's cost depends strongly on its rotation: at 50 steps rotations
  0-2 take about 4 s and rotations 3-4 about 1 s, because the E steps land
  at different depths.  One build per seed would make the figures depend on
  the seed; a unit of all five rotations does not.
* ``build-assgp``: the ``assgp`` preset (C, AD, B) for 120 steps at every
  rotation (chain seeds seed..seed+2).  It never calls ``conj_extension``;
  its time goes to the word kernel via ``is_extension`` and cyclic
  certificates, and shows how step cost grows with chain length.
* ``query-mix``: a read workload on the ``build-assgp`` state at rotation 0
  (73 conditions, depth 41).  The state is fixed so that the seed picks the
  queries and not a differently shaped state; check-axioms alone takes
  4-6.5 s depending on the rotation.  A child process builds the state and
  pickles it into ``.bench_build/``; the measured process only loads and
  queries it, as ``assgp query`` does, so its peak memory is the query
  path's.
* ``verify-suites``: ``assgp verify`` at its default 500 trials, eight
  commands with successive seeds to a unit of 4000 trials.  Short words with
  explicit letters, the only caller of ``cancel``'s lemma checks.

Timings are kept as (start, end) spans and turned into numbers only at the
end, once with raw wall-clock durations and once in reference seconds
(:class:`Speed`).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from assgp import chain, cli, poset, words
from assgp.nbhd import Budget

MODE = poset.Mode("test", 2)
BUDGET = Budget(6, 2, 120)
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

Span = tuple  # (start, end) in perf_counter seconds


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_pct(min_samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it,
    taken from the sample count a run is guaranteed, so that every run of a
    workload reports the same percentile."""
    fits = [p for p in TAIL_LADDER if min_samples * (100 - p) / 100 >= 10]
    return fits[-1] if fits else 50


def wall(span: Span) -> float:
    return span[1] - span[0]


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def _probe() -> int:
    """A fixed piece of interpreter work: tuples, hashing and a dict."""
    d: dict = {}
    for i in range(3000):
        t = (i, i * 7 % 13, i ^ 5)
        d[t] = d.get(t, 0) + len(t)
    return len(d)


class Speed:
    """Samples how fast the host runs a fixed probe while a workload runs.

    A shared host runs the same Python code up to 1.7 times slower for
    seconds to tens of seconds at a time, which would make run-to-run spread
    reflect the host rather than the program.  Times are therefore reported
    in reference seconds: a span's wall time times ``REFERENCE_S`` over the
    mean probe time next to and inside the span.  The probe runs between
    operations, at most every 100 ms (about 3% of the run), and never inside
    a timed span.  The report prints the raw wall-clock figures as well."""

    REFERENCE_S = 1.0e-3  # typical probe time on the host the bounds were set on
    INTERVAL_S = 0.1

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        if perf_counter() < self._due:
            return
        best = float("inf")
        for _ in range(3):
            t = perf_counter()
            _probe()
            best = min(best, perf_counter() - t)
        self.times.append(perf_counter())
        self.probes.append(best)
        self._due = perf_counter() + self.INTERVAL_S

    def duration(self, span: Span) -> float:
        """The span in reference seconds: scaled by the probes inside it and
        the nearest one on each side."""
        lo = bisect.bisect_left(self.times, span[0])
        hi = bisect.bisect_right(self.times, span[1])
        near = self.probes[max(0, lo - 1) : hi + 1]
        return wall(span) * self.REFERENCE_S / statistics.fmean(near)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts operations, failed operations and wrong outputs.

    An operation that raises counts as failed.  An output that a check finds
    wrong counts as failed and also makes the run incorrect."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()
        self.speed = Speed()
        self._tracer = tracer
        self._bad = False

    @contextlib.contextmanager
    def op(self):
        self.attempted += 1
        if self._tracer is not None:
            self._tracer.op_id = self.attempted
        self._bad = False
        try:
            yield
        except Exception as exc:  # an op that raises is a failed op; go on
            self.errors[type(exc).__name__] += 1
            self._bad = True
        if self._bad:
            self.failed += 1
        self.speed.tick()

    def fail(self) -> None:
        """The current op did not do its job, without a wrong output."""
        self._bad = True

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            self._bad = True

    @property
    def correct(self) -> bool:
        return not self.wrong


@dataclass
class Figures:
    """A run's numbers under one way of turning spans into seconds."""

    end_to_end: dict  # name -> value (setup_s, command_s, op_p50_ms, op_tail_ms)
    named: list  # (name, value, unit, note)


@dataclass
class Result:
    gate: Gate
    op_count: int
    min_ops: int
    #: Computes the figures from the spans, given a span -> seconds function.
    figures: Callable[[Callable[[Span], float]], Figures]
    command_note: str
    facts: dict = field(default_factory=dict)
    corpus: list = field(default_factory=list)
    alphabets: list = field(default_factory=list)


def _ops(setup_s: float, command_s: float, op_s: list[float], tail: float) -> dict:
    op_ms = [s * 1e3 for s in op_s]
    return {
        "setup_s": setup_s,
        "command_s": command_s,
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": percentile(op_ms, tail),
    }


def repeat(seconds: float, min_units: int, unit) -> int:
    """Call ``unit(i)`` at least ``min_units`` times, then again while the
    next call is expected to end within ``seconds`` of the first."""
    start = perf_counter()
    last = 0.0
    n = 0
    while n < min_units or perf_counter() - start + last <= seconds:
        t = perf_counter()
        unit(n)
        last = perf_counter() - t
        n += 1
    return n


def _src_env(root: Path) -> dict:
    """The environment of a child interpreter that imports ``assgp`` from
    the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def startup_spans(root: Path, speed: Speed, repeats: int = 9) -> list:
    """A fresh interpreter importing the CLI, which every ``assgp`` command
    pays before its first operation."""
    env = _src_env(root)
    spans = []
    for _ in range(repeats):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "import assgp.cli"], env=env, check=True)
        spans.append((t, perf_counter()))
        speed.tick()
    return spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _state_words(state) -> list:
    """The final condition's enumerated levels and the stored certificate
    words of a state, in a fixed order."""
    found = {}
    last = state.chain[-1]
    for n in range(last.depth + 1):
        for w, _ in last.system.enumerate(n, BUDGET):
            found.setdefault(w, None)
    for key in sorted(state.certs):
        rec = state.certs[key]
        texts = []
        if rec["kind"] == "D" and rec.get("cyc"):
            cyc = rec["cyc"]
            texts = [cyc["target"], *cyc["factors"], *cyc["gens"]]
        elif rec["kind"] == "E":
            texts = [rec["f"], rec["g0"]]
        for text in texts:
            found.setdefault(words.parse_word(text), None)
    return list(found)


# ---------------------------------------------------------------------------
# build-full, build-assgp
# ---------------------------------------------------------------------------


def _build(preset, steps, chain_seed, gate):
    """Build one chain; returns (state, canonical bytes, step spans)."""
    state = chain.new_chain(preset, MODE, BUDGET, chain_seed)
    spans = []
    for _ in range(steps):
        with gate.op():
            t = perf_counter()
            entry = state.step()
            spans.append((t, perf_counter()))
            if entry["status"] != "ok":
                gate.fail()
            gate.check(
                all(r["passed"] for r in entry["reports"]),
                f"extension report failed at {entry['descriptor']}",
            )
    data = b""
    with gate.op():
        data = chain.serialize(state)
        again = chain.deserialize(data)
        gate.check(chain.serialize(again) == data, "serialize→deserialize→serialize changed bytes")
        gate.check(again.verify_certificates() == [], "certificates fail after reload")
    return state, data, spans


def build_workload(preset: str):
    def run(root, seed, seconds, size, tracer=None) -> Result:
        steps = size["steps"]
        rotations = len(chain.Schedule(preset).families)
        gate = Gate(tracer)
        startup = startup_spans(root, gate.speed)
        if tracer is not None:
            tracer.install()
        builds: dict[int, list[list]] = {}  # chain seed -> step spans of each build
        digests: dict[int, str] = {}
        sizes: dict[int, int] = {}
        states = []

        # Chain seeds seed..seed+rotations-1 cover every schedule rotation once.
        def unit(_):
            for chain_seed in range(seed, seed + rotations):
                state, data, spans = _build(preset, steps, chain_seed, gate)
                builds.setdefault(chain_seed, []).append(spans)
                digest = hashlib.sha256(data).hexdigest()
                gate.check(
                    digests.setdefault(chain_seed, digest) == digest,
                    f"state of chain seed {chain_seed} changed between repeats",
                )
                sizes[chain_seed] = len(data)
                if not states:
                    states.append(state)

        units = repeat(seconds, size["min_units"], unit)
        if tracer is not None:
            tracer.uninstall()
        min_ops = size["min_units"] * rotations * steps
        state_bytes = sum(sizes.values())

        def figures(dur) -> Figures:
            # A build is the sum of its steps.  The median per rotation drops
            # the first, slower build of a process; the mean over rotations
            # weighs cheap and expensive rotations alike.
            build_s = statistics.fmean(
                statistics.median(sum(map(dur, spans)) for spans in runs)
                for runs in builds.values()
            )
            step_s = [dur(s) for runs in builds.values() for spans in runs for s in spans]
            last_quarter_ms = statistics.median(
                1e3 * statistics.fmean(map(dur, spans[-max(1, len(spans) // 4):]))
                for runs in builds.values()
                for spans in runs
            )
            setup = statistics.median(map(dur, startup))
            return Figures(
                _ops(setup, build_s, step_s, tail_pct(min_ops)),
                [
                    ("build_s", build_s, "s", f"{steps} steps; as command_s"),
                    ("last_quarter_step_ms", last_quarter_ms, "ms",
                     "mean over the last quarter of a build's steps, median over builds"),
                    ("state_bytes", state_bytes, "bytes",
                     f"canonical state, summed over {rotations} rotations"),
                ],
            )

        return Result(
            gate=gate,
            op_count=sum(len(spans) for runs in builds.values() for spans in runs),
            min_ops=min_ops,
            figures=figures,
            command_note=f"one build: mean over {rotations} rotations of the median of {units}",
            facts={
                "state_bytes": state_bytes,
                "state_sha256": dict(sorted(digests.items())),
                "failed_share": gate.failed / max(1, gate.attempted),
            },
            corpus=_state_words(states[0]),
            alphabets=[states[0].chain[-1].alphabet, words.IdSet.of(0, 1, 2)],
        )

    return run


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------


def _random_word(rng: random.Random, max_len: int):
    """A reduced word over generators 0-5 (x4 included: it prints as ``e``,
    a known defect that the workload keeps visible)."""
    raw = [rng.choice((1, 2, 3, 4, 5, 6)) * rng.choice((1, -1)) for _ in range(rng.randint(1, max_len))]
    return words.reduce(raw)


def build_fixture(steps: int, path: Path) -> None:
    """Build query-mix's state (``assgp`` preset, chain seed 0) and pickle
    its canonical bytes, the known members of each level, the word corpus
    and the gate counts of the build into ``path``.  Runs in a child process
    (``python3 perfbench/workloads.py fixture STEPS PATH``), so that the
    build's memory stays out of the measured process."""
    gate = Gate()
    fixture = chain.new_chain("assgp", MODE, BUDGET, 0)
    for _ in range(steps):
        with gate.op():
            entry = fixture.step()
            if entry["status"] != "ok":
                gate.fail()
            gate.check(all(r["passed"] for r in entry["reports"]), "fixture extension report failed")
    last = fixture.chain[-1]
    payload = {
        "data": chain.serialize(fixture),
        # Known members come from the built state, so drawing them leaves the
        # queried state's caches untouched.
        "pools": {
            n: [w for w, _ in last.system.enumerate(n, BUDGET)] for n in range(1, last.depth + 1)
        },
        "corpus": _state_words(fixture),
        "gate": (gate.attempted, gate.failed, gate.wrong, dict(gate.errors)),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(payload))


def _load_fixture(root: Path, steps: int, gate: Gate) -> dict:
    """Run :func:`build_fixture` in a child process, read its output and
    count the build's operations in ``gate``."""
    path = root / ".bench_build" / f"query-mix-fixture-{steps}.pickle"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "fixture", str(steps), str(path)],
        env=_src_env(root), check=True,
    )
    payload = pickle.loads(path.read_bytes())
    attempted, failed, wrong, errors = payload["gate"]
    gate.attempted += attempted
    gate.failed += failed
    gate.wrong += wrong
    gate.errors.update(errors)
    return payload


def query_mix(root, seed, seconds, size, tracer=None) -> Result:
    gate = Gate(tracer)
    fixture = _load_fixture(root, size["steps"], gate)
    data, pools = fixture["data"], fixture["pools"]
    if tracer is not None:
        tracer.install()

    startup = startup_spans(root, gate.speed)
    loads = []
    session = None
    for _ in range(5):
        with gate.op():
            t = perf_counter()
            session = chain.deserialize(data)
            bad = session.verify_certificates()
            loads.append((t, perf_counter()))
            gate.check(bad == [], f"stored certificates fail on load: {bad[:3]}")
            gate.check(chain.serialize(session) == data, "reload changed the state bytes")
    digest = hashlib.sha256(data).hexdigest()
    last = session.chain[-1]
    depth = last.depth

    rng = random.Random(seed)
    timed_start = perf_counter()
    axioms = []
    axiom_entries = None
    with gate.op():
        t = perf_counter()
        report = session.check_group_axioms(BUDGET, samples=3)
        axioms.append((t, perf_counter()))
        axiom_entries = len(report["entries"])
        gate.check(report["passed"], f"check_group_axioms: {report['violations']} violations")

    # Each assgp query appends conditions, so each gets its own reload.
    assgp = []
    for _ in range(size["assgp_queries"]):
        g = _random_word(rng, 3)
        while g.is_identity():
            g = _random_word(rng, 3)
        fresh = chain.deserialize(data)
        before = len(fresh.step_log)
        with gate.op():
            t = perf_counter()
            cert = fresh.assgp_certificate(1, g)
            assgp.append((t, perf_counter()))
            ok, why = poset.verify_cyc_cert(cert, fresh.chain[-1].system, BUDGET)
            gate.check(cert.target == g and ok, f"assgp certificate for {g} does not verify: {why}")
            gate.check(
                all(r["passed"] for e in fresh.step_log[before:] for r in e["reports"]),
                "assgp query extension report failed",
            )

    member_spans = {True: [], False: []}  # keyed by "word is a known member"
    verdicts: Counter = Counter()
    known = Counter()

    def member(n, w, is_known):
        with gate.op():
            t = perf_counter()
            ans = session.basis_member(n, w)
            member_spans[is_known].append((t, perf_counter()))
            verdicts[ans.verdict] += 1
            if ans.is_yes:
                ok, why = session.chain[ans.stage].system.verify_rep(n, w, ans.rep)
                gate.check(ok, f"member yes for {w} at level {n} without a valid certificate: {why}")
            if is_known:
                known[ans.verdict] += 1
                gate.check(not ans.is_no, f"known member {w} at level {n} answered no")

    def separate(g):
        with gate.op():
            try:
                idx, level = session.separation_index(g)
            except chain.NotYetSeparated:
                verdicts["separate:not-yet"] += 1
                return
            verdicts["separate:stage"] += 1
            cond = session.chain[idx]
            gate.check(
                words.supported_in(g, cond.alphabet)
                and cond.system.member(level, g, BUDGET).is_no,
                f"separation stage {idx} does not exclude {g} at level {level}",
            )

    # A round visits every level once, in a seeded order, with one known
    # member, one random word and one separate query.  Visiting every level
    # keeps the mix of cheap (deep) and expensive (shallow) levels the same in
    # every run.  The op latency is that of the random words: a known member
    # returns from the last stage in about 2 ms, so a median over both groups
    # would fall in the gap between them and jump from seed to seed.
    def round_(_):
        levels = list(range(1, depth + 1))
        rng.shuffle(levels)
        for n in levels:
            member(n, rng.choice(pools[n]), True)
            member(n, _random_word(rng, 6), False)
            g = _random_word(rng, 4)
            if not g.is_identity():
                separate(g)

    rounds = repeat(max(0.0, seconds - (perf_counter() - timed_start)), size["min_rounds"], round_)
    if tracer is not None:
        tracer.uninstall()

    known_total = sum(known.values())
    min_ops = size["min_rounds"] * depth
    tail = tail_pct(min_ops)

    def median_or_nan(spans, dur):
        return statistics.median(map(dur, spans)) if spans else float("nan")

    def figures(dur) -> Figures:
        setup = statistics.median(map(dur, startup)) + statistics.median(map(dur, loads))
        random_s = [dur(s) for s in member_spans[False]]
        ops = _ops(setup, median_or_nan(member_spans[True], dur), random_s, tail)
        return Figures(
            ops,
            [
                ("member_p50_ms", ops["op_p50_ms"], "ms",
                 f"{len(random_s)} random-word queries, {rounds} rounds"),
                ("member_tail_ms", ops["op_tail_ms"], "ms", f"p{tail:g} of {len(random_s)}"),
                ("member_yes_share", known["yes"] / max(1, known_total), "ratio",
                 f"of {known_total} known members"),
                ("check_axioms_s", median_or_nan(axioms, dur), "s", "one call, samples=3"),
                ("assgp_query_s", median_or_nan(assgp, dur), "s",
                 f"median of {len(assgp)} that returned, of {size['assgp_queries']}"),
                ("load_s", median_or_nan(loads, dur), "s",
                 f"deserialize + verify_certificates, median of {len(loads)}"),
                ("state_bytes", len(data), "bytes", "fixture: assgp preset, chain seed 0"),
            ],
        )

    return Result(
        gate=gate,
        op_count=len(member_spans[False]),
        min_ops=min_ops,
        figures=figures,
        command_note=f"member query on a known member, median of {len(member_spans[True])}",
        facts={
            "state_bytes": len(data),
            "state_sha256": digest,
            "verdicts": dict(sorted(verdicts.items())),
            "axiom_entries": axiom_entries,
            "failed_share": gate.failed / max(1, gate.attempted),
        },
        corpus=fixture["corpus"],
        alphabets=[last.alphabet, words.IdSet.of(0, 1, 2)],
    )


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------


def _short_words(seed: int, count: int = 2000) -> list:
    """Short words with explicit letters, drawn like verify's word-law suite."""
    rng = random.Random(seed)
    return [
        words.reduce([rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randint(0, 10))])
        for _ in range(count)
    ]


def verify_suites(root, seed, seconds, size, tracer=None) -> Result:
    gate = Gate(tracer)
    startup = startup_spans(root, gate.speed)
    if tracer is not None:
        tracer.install()
    units: list[list] = []  # spans of each unit's verify commands
    counterexamples = Counter()

    def unit(i):
        spans = []
        for k in range(size["commands"]):
            cmd_seed = seed * 1000 + i * size["commands"] + k
            out, err = io.StringIO(), io.StringIO()
            with gate.op():
                t = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(["verify", "--trials", str(size["trials"]),
                                   "--seed", str(cmd_seed), "--report", "-"])
                spans.append((t, perf_counter()))
                report = json.loads(out.getvalue())
                for suite in report["suites"]:
                    counterexamples[suite["name"]] += len(suite["counterexamples"])
                gate.check(
                    rc == 0 and report["counterexamples"] == 0 and not report["vacuous"],
                    f"verify seed {cmd_seed}: exit {rc}, {report['counterexamples']} counterexamples",
                )
        units.append(spans)

    n_units = repeat(seconds, size["min_units"], unit)
    if tracer is not None:
        tracer.uninstall()
    min_ops = size["min_units"] * size["commands"]

    def figures(dur) -> Figures:
        verify_s = statistics.median(sum(map(dur, spans)) for spans in units)
        ops = _ops(
            statistics.median(map(dur, startup)),
            verify_s,
            [dur(s) for spans in units for s in spans],
            tail_pct(min_ops),
        )
        return Figures(ops, [("verify_s", verify_s, "s", "as command_s")])

    return Result(
        gate=gate,
        op_count=sum(map(len, units)),
        min_ops=min_ops,
        figures=figures,
        command_note=f"median of {n_units} units of {size['commands']} x {size['trials']} trials",
        facts={
            "counterexamples": dict(sorted(counterexamples.items())),
            "failed_share": gate.failed / max(1, gate.attempted),
        },
        corpus=_short_words(seed),
        alphabets=[words.IdSet.of(0, 1), words.IdSet.of(0, 1, 2)],
    )


WORKLOADS = {
    "build-full": build_workload("full"),
    "build-assgp": build_workload("assgp"),
    "query-mix": query_mix,
    "verify-suites": verify_suites,
}

#: What one run does.  ``min_units``/``min_rounds`` is the floor of repeats;
#: more follow while ``--seconds`` allows.
FULL_SIZE = {
    "build-full": {"steps": 45, "min_units": 1},
    "build-assgp": {"steps": 120, "min_units": 1},
    "query-mix": {"steps": 120, "assgp_queries": 2, "min_rounds": 3},
    "verify-suites": {"trials": 500, "commands": 8, "min_units": 5},
}

#: The reduced size of the steadiness check.
SMALL_SIZE = {
    "build-full": {"steps": 30, "min_units": 2},
    "build-assgp": {"steps": 40, "min_units": 2},
    "query-mix": {"steps": 40, "assgp_queries": 1, "min_rounds": 2},
    "verify-suites": {"trials": 50, "commands": 2, "min_units": 2},
}


if __name__ == "__main__":
    if sys.argv[1:2] != ["fixture"] or len(sys.argv) != 4:
        sys.exit("usage: workloads.py fixture STEPS PATH")
    build_fixture(int(sys.argv[2]), Path(sys.argv[3]))
