"""Decreasing chains of conditions meeting scheduled dense sets.

A chain starts at the one-letter depth-1 condition and repeatedly extends its
last element through the witness constructors, following a fair schedule over
a preset's countable descriptor families:

* ``t2``      — pad / grow-alphabet / separate          (Hausdorff basics)
* ``assgp``   — separate + (pad ∩ cyclic-factorization) + grow-alphabet
* ``simple``  — t2 plus conjugation witnesses
* ``full``    — union of all families

Every family is enumerated by a deterministic diagonal (words ordered by
length then letters, alphabets by max-id then size), and the families are
interleaved round-robin with a seed-dependent rotation, so every descriptor
appears at a finite, reproducible stage.

The union of level n over all chain conditions deep enough is the chain's
n-th identity neighbourhood; ``basis_member`` queries it with certificates.
The topology-level queries (separation, conjugacy density, cyclic-subgroup
factorizations, the group-axiom sample checks) all answer with stage-indexed
certificates that re-verify independently of the chain that produced them.
A query searches at the state's budget; re-verifying a certificate searches
nothing: it reads the stack with ``Nsys.verify_rep``/``Nsys.adjoined_rep``.

States serialize to a canonical JSON container: identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional

from .nbhd import (
    Budget,
    Conj,
    DEFAULT_BUDGET,
    MembershipAnswer,
    NbhdError,
    invert_rep,
    rep_from_obj,
    rep_to_obj,
    system_from_layers,
    system_layers,
)
from .poset import (
    Condition,
    CycCert,
    DescA,
    DescAD,
    DescB,
    DescC,
    DescE,
    Mode,
    PaperCapExceeded,
    TrivialG,
    WitnessFailed,
    initial_condition,
    is_extension,
    parse_mode,
    verify_cyc_cert,
    witness,
)
from .words import (
    E,
    IdSet,
    Word,
    WordError,
    flatten_letters,
    gen_of,
    letters,
    multiply,
    parse_word,
    reduce as reduce_word,
    single,
    supported_in,
)

FORMAT_NAME = "assgp-chain"
FORMAT_VERSION = 2

PRESETS = ("t2", "assgp", "simple", "full")


class ChainError(Exception):
    pass


class NotYetSeparated(ChainError):
    """No chain stage excludes the queried word yet; step further."""


class FormatError(ChainError):
    pass


# ---------------------------------------------------------------------------
# Deterministic enumeration of descriptor families
# ---------------------------------------------------------------------------


def _reduced_tuples(length: int, max_id: int) -> Iterator[tuple[int, ...]]:
    """Reduced letter tuples of given length over ids 0..max_id that actually
    use max_id, in lexicographic order (letter order +0, -0, +1, -1, ...)."""
    alphabet = []
    for g in range(max_id + 1):
        alphabet.append(g + 1)
        alphabet.append(-(g + 1))

    def rec(prefix: list[int], used_max: bool):
        if len(prefix) == length:
            if used_max:
                yield tuple(prefix)
            return
        for l in alphabet:
            if prefix and prefix[-1] == -l:
                continue
            if length - len(prefix) == 1 and not used_max and abs(l) - 1 != max_id:
                continue
            prefix.append(l)
            yield from rec(prefix, used_max or abs(l) - 1 == max_id)
            prefix.pop()

    yield from rec([], max_id == 0)


def word_stream(include_identity: bool = False) -> Iterator[Word]:
    """All reduced words, each exactly once, by length + max-id rank."""
    if include_identity:
        yield E
    rank = 1
    while True:
        for max_id in range(rank):
            length = rank - max_id
            for tup in _reduced_tuples(length, max_id):
                yield reduce_word(tup)
        rank += 1


def alphabet_stream(include_empty: bool = False) -> Iterator[IdSet]:
    """All finite id sets, each once, by max-id + size rank."""
    if include_empty:
        yield IdSet.empty()
    rank = 1
    while True:
        for max_id in range(rank):
            size = rank - max_id
            if size > max_id + 1:
                continue
            for rest in itertools.combinations(range(max_id), size - 1):
                yield IdSet.from_ids(rest + (max_id,))
        rank += 1


class _Indexed:
    """Lazily indexable view of an infinite generator."""

    def __init__(self, gen):
        self._gen = gen
        self._cache: list = []

    def __getitem__(self, i: int):
        while len(self._cache) <= i:
            self._cache.append(next(self._gen))
        return self._cache[i]


def _diagonal_pairs() -> Iterator[tuple[int, int]]:
    for total in itertools.count(0):
        for i in range(total + 1):
            yield i, total - i


def _diagonal_quads() -> Iterator[tuple[int, int, int, int]]:
    for total in itertools.count(0):
        for i in range(total + 1):
            for j in range(total - i + 1):
                for k in range(total - i - j + 1):
                    yield i, j, k, total - i - j - k


class Schedule:
    """Deterministic fair interleaving of a preset's descriptor families."""

    def __init__(self, preset: str, seed: int = 0):
        if preset not in PRESETS:
            raise ChainError(f"unknown preset {preset!r}; pick one of {PRESETS}")
        self.preset = preset
        self.seed = seed
        self.families = {
            "t2": ("A", "B", "C"),
            "assgp": ("C", "AD", "B"),
            "simple": ("A", "B", "C", "E"),
            "full": ("A", "B", "C", "AD", "E"),
        }[preset]
        self._streams = {
            "A": _Indexed(self._a_stream()),
            "B": _Indexed(self._b_stream()),
            "C": _Indexed(self._c_stream()),
            "AD": _Indexed(self._ad_stream()),
            "E": _Indexed(self._e_stream()),
        }

    @staticmethod
    def _a_stream():
        for n in itertools.count(0):
            yield DescA(n)

    @staticmethod
    def _b_stream():
        yield from (DescB(s) for s in alphabet_stream())

    @staticmethod
    def _c_stream():
        yield from (DescC(g) for g in word_stream(include_identity=False))

    @staticmethod
    def _ad_stream():
        gs = _Indexed(word_stream(include_identity=True))
        for i, j in _diagonal_pairs():
            yield DescAD(i, gs[j])

    @staticmethod
    def _e_stream():
        gs = _Indexed(word_stream(include_identity=False))
        hs = _Indexed(word_stream(include_identity=True))
        ss = _Indexed(alphabet_stream(include_empty=True))
        for i, j, k, l in _diagonal_quads():
            yield DescE(i, ss[j], gs[k], hs[l])

    def descriptor(self, stage: int):
        fam_count = len(self.families)
        fam = self.families[(stage + self.seed) % fam_count]
        # rotation only shifts which family goes first; indexes stay fair
        return self._streams[fam][stage // fam_count]


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisAnswer(MembershipAnswer):
    """A chain membership answer; the ``stage`` of a yes is the last
    condition's index, the condition whose certificate it carries."""

    stage: Optional[int] = None


class ChainState:
    def __init__(self, preset: str, mode: Mode, budget: Budget, seed: int):
        self.preset = preset
        self.mode = mode
        self.budget = budget
        self.seed = seed
        self.schedule = Schedule(preset, seed)
        self.chain: list[Condition] = [initial_condition()]
        self.stage = 0
        self.certs: dict[str, dict] = {}
        self.step_log: list[dict] = []

    # -- construction ---------------------------------------------------------

    def _apply_witness(self, d, origin: str) -> dict:
        last = self.chain[-1]
        try:
            res = witness(last, d, self.mode, self.budget)
        except PaperCapExceeded as exc:
            raise PaperCapExceeded(f"step {len(self.step_log)} ({d.key()}): {exc}") from exc
        entry = {
            "descriptor": d.key(),
            "origin": origin,
            "status": "ok",
            "predicate_ok": bool(res.predicate_ok),
            "new_conditions": [],
            "reports": [],
            "detail": {
                k: v for k, v in res.detail.items() if isinstance(v, (int, str, bool))
            },
        }
        # the witness has already checked its own step at this budget; a
        # paper-mode spot check does not count, it used a smaller budget
        checked = {r.pair: r for r in res.reports if not r.spot}
        prev = last
        for cond in res.conditions:
            rpt = checked.get((cond, prev))
            if rpt is None:
                rpt = is_extension(cond, prev, self.budget)
            entry["reports"].append(rpt.describe())
            self.chain.append(cond)
            entry["new_conditions"].append(len(self.chain) - 1)
            prev = cond
        for r in res.reports:
            entry["reports"].append(r.describe())
        self._store_certs(d, res)
        self.step_log.append(entry)
        return entry

    def _store_certs(self, d, res) -> None:
        key = d.key()
        stage_idx = len(self.chain) - 1
        if isinstance(d, DescAD) and "cyc" in res.certs:
            cert: CycCert = res.certs["cyc"]
            self.certs[key] = {"kind": "D", "stage": stage_idx, "cyc": cert.describe()}
        elif isinstance(d, DescE):
            ext = res.certs["conj"]
            self.certs[key] = {
                "kind": "E",
                "stage": stage_idx,
                "level": ext.condition.depth,
                "f": str(ext.setting.f),
                "g0": str(ext.setting.g0),
                "rep": rep_to_obj(ext.rep),
            }
        elif isinstance(d, DescC):
            self.certs[key] = {
                "kind": "C",
                "stage": stage_idx,
                "level": self.chain[-1].depth,
            }

    def step(self) -> dict:
        """Consume the next scheduled descriptor.  A witness that fails is
        logged once as ``failed``; the next step takes the next descriptor."""
        d = self.schedule.descriptor(self.stage)
        self.stage += 1
        try:
            return self._apply_witness(d, "scheduled")
        except WitnessFailed as exc:
            entry = {
                "descriptor": d.key(),
                "origin": "scheduled",
                "status": "failed",
                "reason": str(exc.args[0]) if exc.args else "witness failed",
                "predicate_ok": False,
                "new_conditions": [],
                "reports": [],
                "detail": {},
            }
            self.step_log.append(entry)
            return entry

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- queries ---------------------------------------------------------------

    def basis_member(self, n: int, w: Word) -> BasisAnswer:
        """Is w in the chain's n-th basic neighbourhood (so far)?

        Each condition is stacked on the one before it and extends it, so
        the union of level n over the chain is the last condition's level n,
        and one search of the last condition answers the query.  A word that
        the search leaves undecided is still a yes when the last condition's
        own level-n list holds it.  Unknown while the chain does not reach
        level n.  The search runs at the state's budget, so the answer
        depends only on (chain, n, w)."""
        system = self.chain[-1].system
        if system.depth < n:
            return BasisAnswer(verdict="unknown")
        ans = system.member(n, w, self.budget)
        rep = ans.rep
        if ans.verdict == "unknown":
            level = system.enumerate(n, self.budget)
            rep = next((r for u, r in level if u == w), None)
        if rep is not None:
            return BasisAnswer(verdict="yes", rep=rep, stage=len(self.chain) - 1)
        return BasisAnswer(verdict=ans.verdict)

    def separation_index(self, g: Word) -> tuple[int, int]:
        """Find a stage whose deepest level exactly excludes g.

        The stage-local exclusion is exact; the global claim that g stays out
        of the chain's basic neighbourhood additionally rests on the per-step
        extension reports, which the step log records.  Each stage is asked
        on its own, so the stage named refutes g on a fresh ``member`` call."""
        if g.is_identity():
            raise TrivialG("the identity is never separated")
        for idx, cond in enumerate(self.chain):
            if not supported_in(g, cond.alphabet):
                continue
            if cond.system.member(cond.depth, g, self.budget).is_no:
                return idx, cond.depth
        raise NotYetSeparated(f"no stage excludes {g} yet")

    def conj_density_witness(self, g: Word, h: Word, n: int) -> dict:
        """A conjugator f with f·g·f⁻¹·h⁻¹ certified in the n-th neighbourhood,
        so the conjugacy class of g meets U_n·h.

        The E witness adjoins f·g·f⁻¹·h⁻¹ at the depth of the condition it
        adds, at least n, so the last condition certifies it at level n
        with ``adjoined_rep``, without a search: one ``extra`` leaf, however
        far below n that depth lies."""
        if g.is_identity():
            raise TrivialG("conjugacy density needs g != e")
        Z = letters(g).union(letters(h))
        d = DescE(n, Z, g, h.inverse())
        key = d.key()
        if key not in self.certs or "f" not in self.certs[key]:
            self._apply_witness(d, "targeted")
        rec = self.certs[key]
        f = _read(parse_word, rec, "f")
        target = _read(parse_word, rec, "g0")
        expected = multiply(multiply(multiply(f, g), f.inverse()), h.inverse())
        if expected != target:
            raise ChainError("cached conjugacy witness fails re-verification")
        system = self.chain[-1].system
        rep = system.adjoined_rep(n, target)
        if rep is None or not system.verify_rep(n, target, rep)[0]:
            raise ChainError("conjugacy witness lost its membership certificate")
        basis = BasisAnswer(verdict="yes", rep=rep, stage=len(self.chain) - 1)
        return {"f": f, "witness": target, "stage": basis.stage, "basis": basis}

    def assgp_certificate(self, n: int, g: Word) -> CycCert:
        """Factor g into members of cyclic subgroups inside the n-th
        neighbourhood; raises WitnessFailed explicitly when the strategy
        cannot produce a factorization that verifies at level n."""
        if g.is_identity():
            return CycCert(E, (), (), (), n)
        if self.chain[-1].depth < n:
            self._apply_witness(DescA(n), "targeted")
        d = DescAD(n, g)
        self._apply_witness(d, "targeted")
        rec = self.certs[d.key()]
        cert = _read(CycCert.from_obj, rec, "cyc")
        at_n = CycCert(cert.target, cert.factors, cert.gens, cert.exponents, n)
        ok, why = verify_cyc_cert(at_n, self.chain[rec["stage"]].system)
        if not ok:
            raise WitnessFailed(f"stored factorization fails re-verification at level {n}: {why}")
        return cert

    # -- group-axiom sampling ----------------------------------------------------

    def check_group_axioms(self, budget: Optional[Budget] = None, samples: int = 3) -> dict:
        """Sampled product/symmetry/conjugation checks on certified members.

        Each check builds the certificate the corresponding closure argument
        predicts (a conjugation node with x = e for products, the mirrored
        tree for inverses, nested conjugation nodes of length-l words for the
        n+l law) and re-verifies it, searching nothing; on a level that a pad
        or the root builds that word is e, which ``identity_rep`` certifies.
        Products are cross-checked as not refuted by ``basis_member``, at the
        state's budget; ``budget`` sizes the sampled pools."""
        budget = budget or self.budget
        cond = self.chain[-1]
        sys_ = cond.system
        report = {"entries": [], "violations": 0}

        def note(kind, ok, detail):
            report["entries"].append({"kind": kind, "ok": bool(ok), "detail": detail})
            if not ok:
                report["violations"] += 1

        def certify(n, w, rep):
            ok, why = sys_.verify_rep(n, w, rep)
            if not ok and w.is_identity():
                ok, why = sys_.verify_rep(n, w, sys_.identity_rep(n))
            return ok, why

        for n in range(cond.depth):
            pool = sys_.enumerate(n + 1, budget)[: max(2, samples)]
            for (u, urep), (v, vrep) in itertools.product(pool, pool):
                w = multiply(u, v)
                ok, why = certify(n, w, Conj(n, E, urep, vrep))
                note("product", ok, f"U_{n + 1}·U_{n + 1} ∋ {u}·{v} at level {n}: {why}")
                basis = self.basis_member(n, w)
                note("product-basis", not basis.is_no, f"{w} at level {n}")

        for n in range(cond.depth + 1):
            for w, rep in sys_.enumerate(n, budget)[: max(2, samples)]:
                inv = invert_rep(rep)
                ok, why = sys_.verify_rep(n, w.inverse(), inv)
                note("symmetry", ok, f"inverse of {w} at level {n}: {why}")

        small_ids = [g for g, _ in zip(cond.alphabet, range(3))]
        gs = [single(i) for i in small_ids] + [
            multiply(single(i), single(j))
            for i in small_ids[:2]
            for j in small_ids[:2]
            if not multiply(single(i), single(j)).is_identity()
        ]
        for g in gs[: samples + 2]:
            l = g.length
            for n in range(max(0, cond.depth - l)):
                m = n + l
                pool = sys_.enumerate(m, budget)[: max(2, samples // 2)]
                for w, wrep in pool:
                    cur, level = wrep, m
                    for letter_val in reversed(flatten_letters(g)):
                        level -= 1
                        x = single(gen_of(letter_val), 1 if letter_val > 0 else -1)
                        cur = Conj(level, x, cur, sys_.identity_rep(level + 1))
                    target = multiply(multiply(g, w), g.inverse())
                    ok, why = certify(n, target, cur)
                    note(
                        "conjugation",
                        ok,
                        f"{g}·{w}·{g}^-1 from level {m} to {n}: {why}",
                    )
        report["passed"] = report["violations"] == 0
        return report

    # -- serialization -------------------------------------------------------------

    def to_obj(self) -> dict:
        chain_objs = []
        for idx, cond in enumerate(self.chain):
            # the layers stacked on the condition before it; system_layers
            # raises NbhdError when that condition is not one of its ancestors
            base = idx - 1 if idx else None
            stop = None if base is None else self.chain[base].system
            chain_objs.append({"base": base, "layers": system_layers(cond.system, stop)})
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "config": {
                "preset": self.preset,
                "mode": self.mode.describe(),
                "budget": list(self.budget.key()),
                "seed": self.seed,
            },
            "stage": self.stage,
            "chain": chain_objs,
            "certs": self.certs,
            "step_log": self.step_log,
            "retry_queue": [],  # kept so that states keep their bytes
        }

    @staticmethod
    def from_obj(obj: dict) -> "ChainState":
        if not isinstance(obj, dict) or obj.get("format") != FORMAT_NAME:
            raise FormatError("not a chain state file")
        # version 1 has the same word grammar; only some words were spelled
        # differently before each word had one segmentation
        if obj.get("version") not in (1, FORMAT_VERSION):
            raise FormatError(f"unsupported version {obj.get('version')!r}")
        try:
            cfg = obj["config"]
            if len(cfg["budget"]) != 3:
                raise ValueError(f"budget {cfg['budget']!r} is not three caps")
            budget = Budget(*cfg["budget"])
            state = ChainState(cfg["preset"], parse_mode(cfg["mode"]), budget, cfg["seed"])
            state.stage = obj["stage"]
            state.certs = obj["certs"]
            state.step_log = obj["step_log"]
            if obj.get("retry_queue", []) != []:  # a failed step is not retried
                raise ValueError("retry_queue is not empty")
            chain: list[Condition] = []
            for idx, entry in enumerate(obj["chain"]):
                # basis_member reads the chain's union from the last
                # condition, so each condition is stacked on the one before
                if entry["base"] != (idx - 1 if idx else None):
                    raise ValueError(f"condition {idx} is not stacked on the one before")
                root = chain[-1].system if chain else None
                system = system_from_layers(entry["layers"], root)
                chain.append(Condition(system))
            if not chain:
                raise FormatError("empty chain")
            state.chain = chain
            # each step is logged once, the steps name every condition after
            # the first once, in order, and the k-th scheduled step logs the
            # schedule's k-th descriptor
            logged = [k for entry in state.step_log for k in entry["new_conditions"]]
            if logged != list(range(1, len(chain))):
                raise ValueError(f"the step log does not name conditions 1..{len(chain) - 1} in order")
            scheduled = [entry["descriptor"] for entry in state.step_log if entry["origin"] == "scheduled"]
            if len(scheduled) != state.stage:
                raise ValueError(f"{len(scheduled)} scheduled steps logged at stage {state.stage}")
            for k, key in enumerate(scheduled):
                if key != state.schedule.descriptor(k).key():
                    raise ValueError(f"scheduled step {k} logs {key!r}, not the schedule's descriptor")
            for key, rec in state.certs.items():
                if rec["kind"] not in ("C", "D", "E"):
                    raise ValueError(f"certificate {key} has unknown kind {rec['kind']!r}")
                if type(rec["stage"]) is not int or not 0 <= rec["stage"] < len(chain):
                    raise ValueError(f"certificate {key} names stage {rec['stage']!r}")
                if rec["kind"] == "E":  # verify_certificates checks it at that level
                    level = rec["level"]
                    if type(level) is not int or not 0 <= level <= chain[rec["stage"]].depth:
                        raise ValueError(f"certificate {key} names level {level!r}")
        except FormatError:
            raise
        except Exception as exc:  # malformed content of a well-framed file
            raise FormatError(f"malformed chain state: {exc}") from exc
        return state

    def verify_certificates(self) -> list[str]:
        """Re-check every stored certificate without a search; returns failures."""
        failures = []
        for key in sorted(self.certs):
            rec = self.certs[key]
            cond = self.chain[rec["stage"]]
            if rec["kind"] == "E":
                rep = _read(rep_from_obj, rec, "rep")
                g0 = _read(parse_word, rec, "g0")
                ok, why = cond.system.verify_rep(rec["level"], g0, rep)
            elif rec["kind"] == "D" and rec.get("cyc"):
                cert = _read(CycCert.from_obj, rec, "cyc")
                ok, why = verify_cyc_cert(cert, cond.system)
            else:
                continue  # C: separation is re-checked on demand via separation_index
            if not ok:
                failures.append(f"{key}: {why}")
        return failures


# what the readers of stored fields raise on malformed content
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError, WordError, NbhdError)


def _read(reader, rec: dict, name: str):
    """``reader`` on the stored field ``rec[name]``; a missing field or
    malformed content is a FormatError."""
    try:
        return reader(rec[name])
    except _MALFORMED as exc:
        raise FormatError(f"malformed stored record: {exc}") from exc


# ---------------------------------------------------------------------------
# Module-level API
# ---------------------------------------------------------------------------


def new_chain(
    preset: str = "full",
    mode: Mode = Mode("test", 2),
    budget: Budget = DEFAULT_BUDGET,
    seed: int = 0,
) -> ChainState:
    return ChainState(preset, mode, budget, seed)


def serialize(state: ChainState) -> bytes:
    return (
        json.dumps(state.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def deserialize(data: bytes) -> ChainState:
    try:
        obj = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"not a valid state file: {exc}") from exc
    return ChainState.from_obj(obj)
