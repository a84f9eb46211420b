"""Foreign-word cancellation machinery, verified on concrete instances.

Fix an alphabet X, words g ≠ e and h in F(X), and k fresh generators
y_1, ..., y_k outside X.  With f = y_1·...·y_k the special word is

    g0 = f * g * f⁻¹ * h        (pure concatenation, always reduced).

The central phenomenon: in any product w_1·v_1·w_2·...·w_n·v_n·w_{n+1} whose
v_i are copies of g0 or g0⁻¹ and whose w_i all avoid some fresh letter
y_{j0}, either the product keeps a visible y_{j0} (when the v-signs all
agree) or, if the product lands back in F(X), the v's cancel so completely
that the product equals w_1·w_2·...·w_{n+1} with every v_i deleted.

This module makes those statements executable: a constructive same-sign
decomposition, the collapse equality, the η-invariance of factor sequences
through ⟨g0⟩, and a seeded generator of valid instances for bulk checking.
Everything is re-verified against direct reduced multiplication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce as fold
from itertools import accumulate
from typing import Iterator, Optional

from .words import (
    E,
    IdSet,
    Word,
    cyclic_exponent,
    cyclic_parts,
    fresh_run,
    is_concatenation,
    junction_cancels,
    multiply,
    occurs,
    reduce as reduce_word,
    split_at,
    supported_in,
)


class CancelError(Exception):
    pass


class TrivialG(CancelError):
    pass


class SignMismatch(CancelError):
    pass


class DecompositionFailed(CancelError):
    """The constructive decomposition failed re-verification (must not happen)."""


class HypothesisViolated(CancelError):
    pass


class PreconditionViolated(CancelError):
    def __init__(self, index: int, why: str):
        super().__init__(f"element {index}: {why}")
        self.index = index
        self.why = why


# ---------------------------------------------------------------------------
# The setting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjSetting:
    """The data (X, Y, g, h, k) together with f and g0."""

    x_alphabet: IdSet
    y_alphabet: IdSet
    g: Word
    h: Word
    k: int
    fresh_start: int
    f: Word
    g0: Word

    def y_letter_id(self, j: int) -> int:
        """Generator id of y_j (1-based j)."""
        if not 1 <= j <= self.k:
            raise ValueError(f"j must be in 1..{self.k}")
        return self.fresh_start + j - 1

    def f_sub(self, j0: int) -> Word:
        """The tail y_{j0}·...·y_k of f."""
        if not 1 <= j0 <= self.k:
            raise ValueError(f"j0 must be in 1..{self.k}")
        return fresh_run(self.fresh_start + j0 - 1, self.k - j0 + 1)

    # f⁻¹ and g0⁻¹, made once on first use; not fields, so equality and repr ignore them
    f_inv = cached_property(lambda self: self.f.inverse())
    g0_inv = cached_property(lambda self: self.g0.inverse())

    def v(self, sign: int) -> Word:
        return self.g0 if sign == 1 else self.g0_inv


def make_setting(
    x_alphabet: IdSet,
    g: Word,
    h: Word,
    k: int,
    fresh_start: Optional[int] = None,
) -> ConjSetting:
    """Allocate k fresh letters and build f and g0 = f*g*f⁻¹*h.

    g0 is reduced of length exactly 2k + |g| + |h|; with run compression it
    occupies O(1) segments however large k is.
    """
    if g.is_identity():
        raise TrivialG("g must be non-trivial")
    if k < 1:
        raise ValueError("need at least one fresh letter")
    if not supported_in(g, x_alphabet) or not supported_in(h, x_alphabet):
        raise CancelError("g and h must be words over the base alphabet")
    if fresh_start is None:
        fresh_start = x_alphabet.max_id + 1
    fresh = IdSet.from_range(fresh_start, fresh_start + k - 1)
    if not fresh.isdisjoint(x_alphabet):
        raise CancelError("fresh letters overlap the base alphabet")
    f = fresh_run(fresh_start, k)
    g0 = multiply(multiply(multiply(f, g), f.inverse()), h)
    assert g0.length == 2 * k + g.length + h.length
    return ConjSetting(
        x_alphabet, x_alphabet.union(fresh), g, h, k, fresh_start, f, g0
    )


# ---------------------------------------------------------------------------
# Hypothesis instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypInstance:
    """A product shape w_1·v_1·...·w_n·v_n·w_{n+1} with v_i = g0^{±1}.

    Structural invariants checked at construction: the fresh letter y_{j0}
    appears in no w_i, and signs are ±1.  Whether the product lands in F(X)
    is the business of :func:`check_hypothesis`.  The product h* is made
    once (``hstar``): :func:`check_hypothesis` and :func:`collapse_check` share it.
    """

    setting: ConjSetting
    ws: tuple[Word, ...]
    signs: tuple[int, ...]
    j0: int = 1

    def __post_init__(self):
        if len(self.ws) != len(self.signs) + 1:
            raise CancelError("need exactly n+1 separator words for n special factors")
        if any(s not in (1, -1) for s in self.signs):
            raise CancelError("signs must be ±1")
        yid = self.setting.y_letter_id(self.j0)
        for i, w in enumerate(self.ws):
            if occurs(yid, w):
                raise CancelError(f"w_{i + 1} contains the reserved fresh letter y_{self.j0}")
            if not supported_in(w, self.setting.y_alphabet):
                raise CancelError(f"w_{i + 1} leaves the ambient alphabet")

    @property
    def n(self) -> int:
        return len(self.signs)

    @cached_property
    def hstar(self) -> Word:
        acc = E
        for w, s in zip(self.ws, self.signs):
            acc = multiply(multiply(acc, w), self.setting.v(s))
        return multiply(acc, self.ws[-1])


def check_hypothesis(inst: HypInstance) -> bool:
    """Condition (iii): does the product land in F(X)?"""
    return supported_in(inst.hstar, inst.setting.x_alphabet)


def separator_product(inst: HypInstance) -> Word:
    """w_1·w_2·...·w_{n+1}: the product with every v_i deleted."""
    return fold(multiply, inst.ws, E)


# ---------------------------------------------------------------------------
# Same-sign decomposition
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """w_1·v_1·...·w_N·v_N written as w1p * fp * f_{j0} * a * f⁻¹ * h."""

    w1p: Word
    fp: Word
    a: Word
    prefix_product: Word
    pieces: list[Word]


# exponent range sampled for the g^l·a·g^r property
SAMPLE_EXP = 4


def same_sign_decompose(inst: HypInstance, N: int) -> Decomposition:
    """Constructive form of the all-positive prefix product.

    Requires signs_1..signs_N = +1.  Produces the pure-concatenation
    factorization and re-verifies: the five junctions are cancellation-free,
    the factors multiply back to the directly reduced prefix product, a ≠ e,
    and sampled words g^l·a·g^k are non-trivial and share g's first and last
    letters.  Failure of any re-check raises :class:`DecompositionFailed`.
    The samples make each g^l and each g^l·a once; the prefix product is kept
    for :func:`same_sign_not_in_FX`, which reuses it.
    """
    st = inst.setting
    if not 1 <= N <= inst.n:
        raise CancelError(f"N must be in 1..{inst.n}")
    if any(s != 1 for s in inst.signs[:N]):
        raise SignMismatch("decomposition needs an all-positive prefix")

    f, f_inv, g, h = st.f, st.f_inv, st.g, st.h
    f_j0 = st.f_sub(inst.j0)

    # Base case: w_1·f cancels at most the first j0-1 letters of f.
    j = junction_cancels(inst.ws[0], f)
    if j > inst.j0 - 1:
        raise DecompositionFailed("cancellation into f reached the reserved letter")
    w1p, _ = split_at(inst.ws[0], inst.ws[0].length - j)
    fp = fresh_run(st.fresh_start + j, inst.j0 - 1 - j) if inst.j0 - 1 - j >= 1 else E
    a = g
    for t in range(1, N):
        # a ← reduced bracket a·f⁻¹·h·w_{t+1}·f·g; the surrounding pieces of
        # the factorization are unchanged.
        for piece in (f_inv, h, inst.ws[t], f, g):
            a = multiply(a, piece)

    pieces = [w1p, fp, f_j0, a, f_inv, h]
    prefix = E
    for w, s in zip(inst.ws[:N], inst.signs[:N]):
        prefix = multiply(multiply(prefix, w), st.v(s))

    if a.is_identity():
        raise DecompositionFailed("middle factor collapsed to e")
    for left, right in zip(pieces, pieces[1:]):
        if not is_concatenation(left, right):
            raise DecompositionFailed(f"junction {left} | {right} cancels")
    if fold(multiply, pieces, E) != prefix:
        raise DecompositionFailed("factorization does not re-multiply to the prefix")
    if a.first != g.first or a.last != g.last:
        raise DecompositionFailed("middle factor does not share g's boundary letters")
    g_pows = list(accumulate([g] * SAMPLE_EXP, multiply, initial=E))
    for l, g_l in enumerate(g_pows):
        g_l_a = multiply(g_l, a)
        for r, g_r in enumerate(g_pows):
            w = multiply(g_l_a, g_r)
            if w.first != g.first or w.last != g.last:
                raise DecompositionFailed(f"g^{l}·a·g^{r} loses g's boundary letters")
            if l > 1 and r > 1 and w.is_identity():
                raise DecompositionFailed(f"g^{l}·a·g^{r} is trivial")
    return Decomposition(w1p, fp, a, prefix, pieces)


@dataclass
class SameSignReport:
    ok: bool
    sign: int
    N: int
    j0: int
    product: Word
    y_j0_present: bool
    decomposition: Optional[Decomposition]

    def describe(self) -> dict:
        return {
            "ok": self.ok,
            "sign": self.sign,
            "N": self.N,
            "j0": self.j0,
            "product": str(self.product),
            "y_j0_present": self.y_j0_present,
        }


def same_sign_not_in_FX(inst: HypInstance) -> SameSignReport:
    """All-equal-sign products keep the reserved fresh letter visible.

    Verifies y_{j0} ∈ lett(w_1·v_1·...·w_N·v_N·w_{N+1}) for N = inst.n; the
    negative-sign case is routed through the re-indexed setting (g⁻¹, e)
    whose instance is all-positive.  A positive prefix product is read from
    the decomposition; a negative one is made once and compared with it.
    """
    st = inst.setting
    N = inst.n
    if N < 1:
        raise CancelError("need at least one special factor")
    signs = set(inst.signs[:N])
    if len(signs) != 1:
        raise SignMismatch("prefix signs are not all equal")
    sign = signs.pop()

    if sign == 1:
        decomp = same_sign_decompose(inst, N)
        prefix = decomp.prefix_product
    else:
        # ĝ0 = f·g⁻¹·f⁻¹ arises from the setting (X, g⁻¹, e, k); the shifted
        # separators ŵ_i = w_i·h⁻¹ stay y_{j0}-free because h ∈ F(X).
        hat_setting = make_setting(st.x_alphabet, st.g.inverse(), E, st.k, st.fresh_start)
        hat_ws = tuple(multiply(w, st.h.inverse()) for w in inst.ws[:N]) + (inst.ws[N],)
        hat = HypInstance(hat_setting, hat_ws, (1,) * N, inst.j0)
        decomp = same_sign_decompose(hat, N)
        prefix = E
        for w in inst.ws[:N]:
            prefix = multiply(multiply(prefix, w), st.g0_inv)
        if decomp.prefix_product != prefix:
            raise DecompositionFailed("re-indexed prefix differs from the original")

    product = multiply(prefix, inst.ws[N])
    present = occurs(st.y_letter_id(inst.j0), product)
    return SameSignReport(present, sign, N, inst.j0, product, present, decomp)


# ---------------------------------------------------------------------------
# Collapse and η-invariance
# ---------------------------------------------------------------------------


@dataclass
class CollapseReport:
    ok: bool
    hstar: Word
    wstar: Word

    def describe(self) -> dict:
        return {"ok": self.ok, "hstar": str(self.hstar), "wstar": str(self.wstar)}


def collapse_check(inst: HypInstance) -> CollapseReport:
    """h* equals the separator product once the hypothesis holds."""
    hstar = inst.hstar
    if not supported_in(hstar, inst.setting.x_alphabet):
        raise HypothesisViolated("the product does not land in F(X)")
    wstar = separator_product(inst)
    return CollapseReport(hstar == wstar, hstar, wstar)


@dataclass
class EtaReport:
    ok: bool
    lhs: Word
    rhs: Word
    L: list[int]  # 1-based indices of factors inside ⟨g0⟩ \ {e}
    exponents: list[Optional[int]]
    deltas: list[int]

    def describe(self) -> dict:
        return {
            "ok": self.ok,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "L": self.L,
            "exponents": self.exponents,
            "deltas": self.deltas,
        }


def eta_invariance_check(seq: list[Word], setting: ConjSetting) -> EtaReport:
    """∏ a_l = ∏ η(a_l) where η deletes the non-trivial powers of g0.

    Preconditions, checked exactly: the product lies in F(X), and each factor
    contains y_1 exactly when it is a non-trivial power of g0.
    """
    yid = setting.y_letter_id(1)
    exponents: list[Optional[int]] = []
    deltas: list[int] = []
    L: list[int] = []
    g0_parts = cyclic_parts(setting.g0)
    for idx, a in enumerate(seq):
        q = cyclic_exponent(a, g0_parts)
        in_group = q is not None and q != 0
        has_y = occurs(yid, a)
        if has_y != in_group:
            raise PreconditionViolated(
                idx, "y_1 occurrence does not match membership in ⟨g0⟩ \\ {e}"
            )
        exponents.append(q)
        deltas.append(0 if not in_group else (1 if q > 0 else -1))
        if in_group:
            L.append(idx + 1)

    lhs = fold(multiply, seq, E)
    if not supported_in(lhs, setting.x_alphabet):
        raise PreconditionViolated(-1, "the full product does not land in F(X)")
    rhs = E
    for a_, q in zip(seq, exponents):
        rhs = multiply(rhs, E if (q is not None and q != 0) else a_)
    return EtaReport(lhs == rhs, lhs, rhs, L, exponents, deltas)


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------


# the generators' shape: base alphabet, nesting pairs, separator lengths and
# the chance that a separator inside a matched pair draws fresh letters
X_IDS = (0, 1)
N_PAIRS_MAX = 3
MAX_WORD_LEN = 6
FRESH_PROB = 0.35


@dataclass(frozen=True)
class GenParams:
    k: int = 2
    sample_j0: bool = False


def _rand_reduced(rng: random.Random, ids: list[int], max_len: int) -> Word:
    n = rng.randint(0, max_len)
    out: list[int] = []
    for _ in range(n):
        l = rng.choice(ids) * rng.choice((1, -1))
        if out and out[-1] == -l:
            continue
        out.append(l)
    return reduce_word(out)


def _rand_forest(rng: random.Random, n_pairs: int) -> list:
    """Random nesting structure: a forest of (orientation, children) nodes."""

    def grow(budget: list[int]) -> list:
        children = []
        while budget[0] > 0 and rng.random() < 0.6:
            budget[0] -= 1
            orient = rng.choice((1, -1))
            children.append((orient, grow(budget)))
        return children

    budget = [n_pairs]
    forest = grow(budget)
    while budget[0] > 0:  # ensure the full pair count is used
        budget[0] -= 1
        forest.append((rng.choice((1, -1)), grow(budget)))
    return forest


def gen_instances(seed: int, params: GenParams = GenParams()) -> Iterator[HypInstance]:
    """Seeded stream of instances satisfying the full hypothesis.

    The v-signs form balanced nesting; inside every matched pair the direct
    separator words multiply to e (the last one is forced to the inverse of
    its siblings' product), which makes the whole product collapse into the
    top-level separators and hence into F(X).  Separators inside forced
    regions may use the non-reserved fresh letters; top-level separators are
    drawn from F(X).  Every instance is validated before it is yielded.
    """
    rng = random.Random(seed)
    while True:
        yield _gen_one(rng, params)


def _gen_one(rng: random.Random, params: GenParams) -> HypInstance:
    st = _setting_for(rng, params)
    j0 = rng.randint(1, params.k) if params.sample_j0 else 1
    n_pairs = rng.randint(0, N_PAIRS_MAX)
    forest = _rand_forest(rng, n_pairs)

    signs: list[int] = []
    regions: list[list[int]] = []

    def walk(children) -> list[int]:
        slots = []
        for orient, grandkids in children:
            slots.append(len(signs) + 1)
            signs.append(orient)
            regions.append(walk(grandkids))
            signs.append(-orient)
        slots.append(len(signs) + 1)
        return slots

    top_slots = walk(forest)
    n = len(signs)

    x_ids = [g + 1 for g in X_IDS]
    mixed_ids = list(x_ids)
    for j in range(1, min(params.k, 4) + 1):
        if j != j0:
            mixed_ids.append(st.y_letter_id(j) + 1)

    ws: list[Word] = [E] * (n + 1)
    for slot in top_slots:
        ws[slot - 1] = _rand_reduced(rng, x_ids, MAX_WORD_LEN)
    for slots in regions:
        free, forced = slots[:-1], slots[-1]
        acc = E
        for slot in free:
            pool = mixed_ids if rng.random() < FRESH_PROB else x_ids
            w = _rand_reduced(rng, pool, MAX_WORD_LEN)
            ws[slot - 1] = w
            acc = multiply(acc, w)
        ws[forced - 1] = acc.inverse()

    inst = HypInstance(st, tuple(ws), tuple(signs), j0)
    if not check_hypothesis(inst):
        raise AssertionError("generated instance violates the hypothesis")
    return inst


def _setting_for(rng: random.Random, params: GenParams) -> ConjSetting:
    x_alpha = IdSet.from_ids(X_IDS)
    x_pool = [g + 1 for g in X_IDS]
    g = _rand_reduced(rng, x_pool, MAX_WORD_LEN)
    while g.is_identity():
        g = _rand_reduced(rng, x_pool, MAX_WORD_LEN)
    h = _rand_reduced(rng, x_pool, MAX_WORD_LEN)
    return make_setting(x_alpha, g, h, params.k)


def gen_same_sign(seed: int, params: GenParams = GenParams()) -> Iterator[HypInstance]:
    """Seeded stream of all-equal-sign instances (free separators).

    These deliberately do not satisfy condition (iii): the point is that the
    reserved fresh letter survives in the product.
    """
    rng = random.Random(seed)
    while True:
        st = _setting_for(rng, params)
        j0 = rng.randint(1, params.k) if params.sample_j0 else 1
        n = rng.randint(1, 2 * N_PAIRS_MAX)
        sign = rng.choice((1, -1))
        x_ids = [g + 1 for g in X_IDS]
        mixed = list(x_ids)
        for j in range(1, min(params.k, 4) + 1):
            if j != j0:
                mixed.append(st.y_letter_id(j) + 1)
        ws = []
        for _ in range(n + 1):
            pool = mixed if rng.random() < FRESH_PROB else x_ids
            ws.append(_rand_reduced(rng, pool, MAX_WORD_LEN))
        yield HypInstance(st, tuple(ws), (sign,) * n, j0)
