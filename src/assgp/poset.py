"""Conditions, the extension order, and constructive dense-set witnesses.

A condition is a finite neighbourhood system; its alphabet and depth are
the system's.  Condition q extends p when q's alphabet and depth dominate
p's and every level of q's system restricted to words over p's alphabet
gives back exactly p's level.  Every extension here is stacked: q's system
is p's with layers added on top, so p's levels lie in q's by construction.
The restriction equality is the expensive half; :func:`is_extension`
checks it over a budgeted enumeration and reports concrete witnesses for
any violation.

Witness constructors produce, for each dense-set descriptor, an extending
condition that lands in the set:

* ``A(n)``  — pad with {e} levels up to depth n;
* ``B(S)``  — grow the alphabet by a cyclic fresh-letter enrichment;
* ``C(g)``  — grow the alphabet to cover g, then pad one {e} level, so g is
  exactly excluded from the deepest level;
* ``AD(n,g)`` — pad to depth n, then adjoin ⟨g0⟩ ∪ ⟨f⟩ for g0 = f·g·f⁻¹
  and certify the three-factor product g = f⁻¹·g0·f (verified, fallible);
* ``E(n,S,g,h)`` — after B/A preparation, adjoin ⟨g0⟩ for g0 = f·g·f⁻¹·h,
  which places a member of Conj(g)·h in the deepest level.

Fresh-letter counts: with k fresh letters and depth n, a chain of n
conjugations can strip at most n letters off f, so any k > n keeps foreign
words foreign at desk scale; the astronomically safe choice k = 2^(|X|·4^n)
is available as ``paper`` mode and :func:`threshold`.  Whether a test-mode k
reaches that count is decided on exponents (:func:`threshold_log2`), so the
number itself is never built.  Paper mode does build it, and refuses with
:class:`PaperCapExceeded` once the exponent passes :data:`PAPER_LOG2_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cancel import ConjSetting, TrivialG, make_setting
from .nbhd import (
    Budget,
    DEFAULT_BUDGET,
    Leaf,
    Nsys,
    cyclic_alphabet_extension,
    enrich,
    make_base,
    pad_system,
    trivial_system,
)
from .words import E, IdSet, Word, cyclic_member, letters, multiply, parse_word, power, supported_in


class PosetError(Exception):
    pass


class WitnessFailed(PosetError):
    """A fallible witness strategy could not produce a verified condition."""


class PaperCapExceeded(PosetError):
    """Paper mode would need more than 2^PAPER_LOG2_CAP fresh letters."""


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Condition:
    """A poset element: a system, whose alphabet and depth are the
    condition's alphabet and depth."""

    system: Nsys

    @property
    def alphabet(self) -> IdSet:
        return self.system.alphabet

    @property
    def depth(self) -> int:
        return self.system.depth

    def __repr__(self):
        return f"Condition(|X|={self.alphabet.size}, n={self.depth})"


def initial_condition() -> Condition:
    """⟨{x0}, 1, all-{e}⟩; satisfies the axioms by inspection."""
    return Condition(trivial_system(IdSet.of(0), 1))


# ---------------------------------------------------------------------------
# Dense-set descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescA:
    n: int

    def key(self) -> str:
        return f"A:{self.n}"


@dataclass(frozen=True)
class DescB:
    S: IdSet

    def key(self) -> str:
        return "B:" + ",".join(str(i) for i in self.S)


@dataclass(frozen=True)
class DescC:
    g: Word

    def __post_init__(self):
        if self.g.is_identity():
            raise TrivialG("C descriptors need g != e")

    def key(self) -> str:
        return f"C:{self.g}"


@dataclass(frozen=True)
class DescAD:
    n: int
    g: Word

    def key(self) -> str:
        return f"AD:{self.n}|{self.g}"


@dataclass(frozen=True)
class DescE:
    n: int
    S: IdSet
    g: Word
    h: Word

    def __post_init__(self):
        if self.g.is_identity():
            raise TrivialG("E descriptors need g != e")

    def key(self) -> str:
        ids = ",".join(str(i) for i in self.S)
        return f"E:{self.n}|{ids}|{self.g}|{self.h}"


# ---------------------------------------------------------------------------
# Extension checking
# ---------------------------------------------------------------------------


@dataclass
class ExtensionReport:
    violations: list[tuple[int, str, str]] = field(default_factory=list)
    unknowns: int = 0
    checked: int = 0
    budget_key: tuple = ()
    spot: bool = False
    pair: tuple = field(default=(), repr=False, compare=False)  # (q, p) checked

    @property
    def passed(self) -> bool:
        return not self.violations

    def describe(self) -> dict:
        return {
            # a stacked pair meets both; the constants keep step logs' bytes
            "alphabet_ok": True,
            "depth_ok": True,
            "containment_mode": "stacked",
            "violations": [list(v) for v in self.violations],
            "unknowns": self.unknowns,
            "checked": self.checked,
            "budget": list(self.budget_key),
            "spot": self.spot,
            "passed": self.passed,
        }


def is_extension(q: Condition, p: Condition, budget: Budget = DEFAULT_BUDGET) -> ExtensionReport:
    """Check that q extends p, where q's system is p's or stacked on it.

    A q that is not stacked on p raises NbhdError; deciding that walks only
    the layers between q and p.  The stacking gives the two structural
    conditions and containment of p's levels: a layer only widens the
    alphabet or deepens the system.  The restriction direction enumerates
    q's levels within budget, filters words supported in p's alphabet, and
    demands membership in p's level; an exact refusal is a violation with a
    concrete witness word.

    A level that no layer between q and p builds is p's list object: it
    holds exactly p's words, each in p's level and, by axiom (1), in F(X_p),
    so a scan would count them all and find nothing.  Only the levels that
    the enriched layers between them build (``Nsys.levels_kept``, once
    ``Nsys.list_sizes`` has made them build) are scanned, as a pad builds
    none up to p's depth; the others add their sizes to ``checked`` through
    p's running total.
    """
    layers = q.system.ancestors(p.system)  # raises unless q is stacked on p
    q.system.list_sizes(budget)  # so every layer has built what it builds
    built = {i for layer in layers for i, (_, by) in layer.levels_kept(budget).items() if by is layer}
    p_levels = {i: p.system.enumerate(i, budget) for i in sorted(built) if i <= p.depth}
    rpt = ExtensionReport(budget_key=budget.key(), pair=(q, p))
    rpt.checked = p.system.list_sizes(budget)[1] - sum(map(len, p_levels.values()))
    p_alphabet = p.alphabet
    for i, p_level in p_levels.items():
        p_words = {w for w, _ in p_level}
        for w, _ in q.system.enumerate(i, budget):
            if not supported_in(w, p_alphabet):
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


# ---------------------------------------------------------------------------
# Elementary witnesses
# ---------------------------------------------------------------------------


def pad_levels(p: Condition, n: int) -> Condition:
    """Deepen to depth n with {e} levels (identity when n <= depth)."""
    if n <= p.depth:
        return p
    return Condition(pad_system(p.system, n))


def add_letters(p: Condition, S: IdSet) -> Condition:
    """Grow the alphabet to cover S via the cyclic fresh-letter enrichment."""
    fresh = S.difference(p.alphabet)
    if not fresh:
        return p
    return Condition(cyclic_alphabet_extension(p.system, fresh))


def separate(p: Condition, g: Word) -> Condition:
    """A condition with g in F(X^q) but exactly outside the deepest level."""
    if g.is_identity():
        raise TrivialG("cannot separate the identity")
    q = add_letters(p, letters(g))
    return pad_levels(q, p.depth + 1)


def threshold_log2(size_x: int, n: int) -> int:
    """The exponent |X|·4^n of :func:`threshold`, without building 2^that."""
    return size_x * 4**n


def threshold(size_x: int, n: int) -> int:
    """The fresh-letter count 2^(|X|·4^n) that makes foreign words heavier
    than anything a depth-n system can express over X.

    The value has |X|·4^n + 1 bits.  Comparisons against it go through
    :func:`threshold_log2`; only paper mode, which uses it as k, builds it,
    and then only up to :data:`PAPER_LOG2_CAP`."""
    if size_x < 1 or n < 1:
        raise ValueError("need size_x >= 1 and n >= 1")
    return 2 ** threshold_log2(size_x, n)


# Paper mode takes k = 2^m fresh letters, and k, together with letter ids
# just above k, is written in decimal into words, descriptor keys and state
# files.  Python refuses int->str conversions beyond 4300 digits (about
# 2^14284), so paper mode refuses any k above 2^4096 before building it.
PAPER_LOG2_CAP = 4096


def paper_k(p: Condition) -> int:
    """Paper mode's fresh-letter count for p, or PaperCapExceeded."""
    m = threshold_log2(p.alphabet.size, p.depth)
    if m > PAPER_LOG2_CAP:
        raise PaperCapExceeded(
            f"paper mode needs 2^{m} fresh letters at |X|={p.alphabet.size}, "
            f"depth {p.depth}; the cap is 2^{PAPER_LOG2_CAP}"
        )
    return threshold(p.alphabet.size, p.depth)


# ---------------------------------------------------------------------------
# Modes and the conjugation witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    kind: str = "test"  # "test" | "paper"
    k: int = 2

    def __post_init__(self):
        if self.kind not in ("test", "paper"):
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == "test" and self.k < 2:
            raise ValueError("test mode needs k >= 2")

    def describe(self) -> str:
        return "paper" if self.kind == "paper" else f"test:{self.k}"


def parse_mode(text: str) -> Mode:
    if text == "paper":
        return Mode("paper")
    usage = f"mode must be 'paper' or 'test:<k>', got {text!r}"
    if not text.startswith("test:"):
        raise ValueError(usage)
    try:
        k = int(text.split(":", 1)[1])
    except ValueError:
        raise ValueError(usage) from None
    return Mode("test", k)


def safe_k(mode: Mode, p: Condition) -> int:
    """Fresh-letter count for witness steps: in paper mode the threshold
    guarantee, in test mode at least depth+1, since depth-many conjugations
    can strip depth letters off f."""
    return paper_k(p) if mode.kind == "paper" else max(mode.k, p.depth + 1)


def _adjoin(
    p: Condition, g: Word, h: Word, k: int, with_f: bool = False
) -> tuple[Condition, ConjSetting]:
    """The move both conjugation witnesses make: g0 = f·g·f⁻¹·h over k
    fresh letters (``make_setting`` refuses g = e and letters outside p's),
    then p enriched by ⟨g0⟩, and by ⟨f⟩ too when ``with_f``, over X ∪ Y."""
    setting = make_setting(p.alphabet, g, h, k)
    gens = [setting.g0, setting.f] if with_f else [setting.g0]
    return Condition(enrich(p.system, make_base(cyclic=gens), setting.y_alphabet)), setting


@dataclass
class ConjExtension:
    """The condition an E step adds, the setting that names its f and g0,
    g0's certificate ``rep`` (the ``extra`` leaf of the layer that adjoins
    g0, at the condition's depth) and the extension report."""

    condition: Condition
    setting: ConjSetting
    rep: Leaf
    report: ExtensionReport
    # k >= threshold, extension backed by the general lemma; decided on
    # exponents, as k.bit_length() - 1 >= threshold_log2
    guaranteed: bool


def conj_extension(
    p: Condition,
    g: Word,
    h: Word,
    mode: Mode,
    budget: Budget = DEFAULT_BUDGET,
) -> ConjExtension:
    """Adjoin ⟨g0⟩ for g0 = f·g·f⁻¹·h over k fresh letters.

    g0 lands in the deepest level by construction; its certificate is the
    leaf of the layer that adjoins it (:meth:`Nsys.adjoined_rep`).  In test
    mode the extension property is checked at the budget; in paper mode (k
    at threshold) it is guaranteed and only spot-checked with a small budget.
    """
    k = paper_k(p) if mode.kind == "paper" else mode.k
    q, setting = _adjoin(p, g, h, k)
    rep = q.system.adjoined_rep(q.depth, setting.g0)
    guaranteed = k.bit_length() - 1 >= threshold_log2(p.alphabet.size, p.depth)
    if mode.kind == "paper":
        report = is_extension(q, p, Budget(leaf_len=4, exp=1, nodes=40))
        report.spot = True
    else:
        report = is_extension(q, p, budget)
    return ConjExtension(q, setting, rep, report, guaranteed)


@dataclass
class CycCert:
    """g written as a product of factors, each inside a cyclic subgroup whose
    generator a layer of the system adjoins at a depth of at least ``level``;
    a generator that levels hold only through conjugation nodes is not."""

    target: Word
    factors: tuple[Word, ...]
    gens: tuple[Word, ...]
    exponents: tuple[int, ...]
    level: int

    def describe(self) -> dict:
        return {
            "target": str(self.target),
            "factors": [str(w) for w in self.factors],
            "gens": [str(w) for w in self.gens],
            "exponents": list(self.exponents),
            "level": self.level,
        }

    @staticmethod
    def from_obj(obj: dict) -> "CycCert":
        """The inverse of :meth:`describe`.  Raises on a payload of the wrong
        shape: factors, generators and exponents are lists of one length, each
        generator a non-trivial word and each exponent an int, not a bool."""
        lists = obj["factors"], obj["gens"], obj["exponents"]
        if any(type(l) is not list or len(l) != len(lists[0]) for l in lists):
            raise ValueError("factors, gens and exponents are not lists of one length")
        factors, gens = (tuple(map(parse_word, l)) for l in lists[:2])
        if any(type(q) is not int for q in lists[2]) or any(c.is_identity() for c in gens):
            raise ValueError("an exponent is not an int, or a generator is e")
        return CycCert(parse_word(obj["target"]), factors, gens, tuple(lists[2]), obj["level"])


def verify_cyc_cert(cert: CycCert, system: Nsys, budget: Budget = DEFAULT_BUDGET) -> tuple[bool, str]:
    """Re-check a factorization certificate against a system, without a search.

    Exact: the factors re-multiply to the target, each factor is the claimed
    power of its generator, and sampled powers of each generator verify at
    the certificate's level with the leaf of a layer that adjoins them
    (:meth:`Nsys.adjoined_rep`), so the whole cyclic subgroup is claimed.
    That leaf keeps the depth of its layer and stands at any shallower
    level, so the check does not grow with the gap between the two.
    ``budget`` is unused; it stays because the benchmark passes one."""
    prod = E
    for f in cert.factors:
        prod = multiply(prod, f)
    if prod != cert.target:
        return False, "factors do not multiply to the target"
    for f, c, q in zip(cert.factors, cert.gens, cert.exponents):
        if cyclic_member(f, c) != q:
            return False, f"factor {f} is not {c}^{q}"
        for j in (1, -1, 2):
            cj = power(c, j)
            rep = system.adjoined_rep(cert.level, cj)
            if rep is None or not system.verify_rep(cert.level, cj, rep)[0]:
                return False, f"power {c}^{j} not certified at level {cert.level}"
    return True, ""


def cyc_witness(
    p: Condition,
    g: Word,
    mode: Mode,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[Condition, CycCert, ExtensionReport]:
    """Adjoin ⟨g0⟩ ∪ ⟨f⟩ with g0 = f·g·f⁻¹ and certify g = f⁻¹·g0·f.

    Returns (q, certificate, report) only when the certificate re-verifies
    on q and the extension report passes at budget; otherwise raises
    :class:`WitnessFailed` with the reason.  Never returns an unverified
    success.
    """
    q, setting = _adjoin(p, g, E, safe_k(mode, p), with_f=True)
    cert = CycCert(
        target=g,
        factors=(setting.f_inv, setting.g0, setting.f),
        gens=(setting.f, setting.g0, setting.f),
        exponents=(-1, 1, 1),
        level=q.depth,
    )
    ok, why = verify_cyc_cert(cert, q.system, budget)
    if not ok:
        raise WitnessFailed(f"certificate failed: {why}")
    report = is_extension(q, p, budget)
    if not report.passed:
        raise WitnessFailed("extension report failed")
    return q, cert, report


# ---------------------------------------------------------------------------
# Witness dispatch with predicate evaluation
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    conditions: list[Condition]  # newly built, shallowest first
    predicate_ok: bool
    certs: dict
    reports: list[ExtensionReport]
    detail: dict = field(default_factory=dict)


def witness(
    p: Condition,
    d,
    mode: Mode = Mode(),
    budget: Budget = DEFAULT_BUDGET,
) -> WitnessResult:
    """Build an extension of p inside the dense set described by d.

    The defining predicate of the set is evaluated directly on the final
    condition, never assumed from the construction.  AD is fallible:
    :func:`cyc_witness` raises :class:`WitnessFailed` when its certificate
    fails on the final condition or its extension report fails, never retried.
    """
    conds: list[Condition] = []

    def add(new: Condition) -> Condition:
        """Keep ``new`` as a built condition unless it is the last one."""
        if new is not (conds[-1] if conds else p):
            conds.append(new)
        return new

    if isinstance(d, DescA):
        q = add(pad_levels(p, d.n))
        return WitnessResult(conds, (q.depth >= d.n), {}, [], {"depth": q.depth})

    if isinstance(d, DescB):
        q = add(add_letters(p, d.S))
        return WitnessResult(conds, d.S.issubset(q.alphabet), {}, [], {})

    if isinstance(d, DescC):
        q = add(separate(p, d.g))
        ans = q.system.member(q.depth, d.g, budget)
        ok = supported_in(d.g, q.alphabet) and ans.is_no
        return WitnessResult(conds, ok, {"excluded_at": q.depth}, [], {})

    if isinstance(d, DescAD):
        cur = add(pad_levels(p, d.n))
        if d.g.is_identity():
            # e is the empty product; any condition witnesses it
            return WitnessResult(conds, True, {"factorization": []}, [], {})
        cur = add(add_letters(cur, letters(d.g)))
        q, cert, report = cyc_witness(cur, d.g, mode, budget)
        add(q)
        return WitnessResult(conds, q.depth >= d.n, {"cyc": cert}, [report], {})

    if isinstance(d, DescE):
        need = d.S.union(letters(d.g)).union(letters(d.h))
        cur = add(add_letters(p, need))
        cur = add(pad_levels(cur, d.n))
        eff_mode = mode if mode.kind == "paper" else Mode("test", safe_k(mode, cur))
        ext = conj_extension(cur, d.g, d.h, eff_mode, budget)
        q = add(ext.condition)
        f, g0, k = ext.setting.f, ext.setting.g0, ext.setting.k
        rep_ok, _ = q.system.verify_rep(q.depth, g0, ext.rep)
        witness_word_ok = multiply(multiply(multiply(f, d.g), f.inverse()), d.h) == g0
        ok = d.n <= q.depth and d.S.issubset(q.alphabet) and rep_ok and witness_word_ok
        detail = {
            "f": str(f) if k <= 64 else f"run of {k}",
            "used_k": k,
            "guaranteed": ext.guaranteed,
            "threshold_log2_param_n": threshold_log2(cur.alphabet.size, d.n),
            "threshold_log2_depth": threshold_log2(cur.alphabet.size, cur.depth),
        }
        return WitnessResult(conds, ok, {"conj": ext, "g0": g0}, [ext.report], detail)

    raise PosetError(f"unknown descriptor {d!r}")
