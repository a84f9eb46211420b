"""Exact reduced-word arithmetic for free groups over a countable generator set.

Generators are identified by non-negative integers.  A letter is a nonzero
signed integer: generator ``i`` with exponent ``+1`` is encoded as ``i + 1``
and its inverse as ``-(i + 1)``, so two letters cancel exactly when they sum
to zero.

A :class:`Word` stores its (freely reduced) letter sequence as a short list
of segments.  A segment is either an explicit tuple of letters or a
:class:`Run`: the signed letters ``first, first + 1, ...``, that is a block
``x_i·x_{i+1}·...·x_j`` of ascending generator ids or its inverse.  Runs are
what make words such as ``x0·x1·...·x{2^32-1}`` representable: every
operation below works on segment descriptors and never expands a run.  A
product walks only the segments that cancel at the junction (a run against
a run in one step), re-glues the segments beside them and concatenates the
rest as tuples; inversion and equality cost time proportional to the number
of segments.  Lengths are plain Python ints, may be astronomically large,
and are carried over from the factors, never summed again.

Each word has exactly one segmentation: every maximal stretch of at least
``RUN_MIN`` letters ``a, a + 1, a + 2, ...`` is one Run, and the letters
between runs form one explicit tuple.  So words are immutable and hashable,
and two words are equal exactly when their segments are.  A word's text is a
function of its segments, so joining two words' texts spells their product
exactly only when nothing cancels and no stretch crosses the junction: a
clean junction, across which :func:`multiply` just joins the two segment lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

GeneratorId = int
Letter = int  # nonzero signed int; see module docstring

#: Words longer than this refuse to materialize into an explicit letter list.
MATERIALIZE_CAP = 1 << 16


class WordError(Exception):
    """Base class for word-arithmetic errors."""


class EmptyWord(WordError):
    """Raised when an operation requires a non-trivial word."""


class EmptyGenerator(WordError):
    """Raised when a cyclic-subgroup query is made against the identity."""


def letter(gen: GeneratorId, sign: int = 1) -> Letter:
    if gen < 0:
        raise ValueError(f"generator ids are non-negative, got {gen}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign * (gen + 1)


def gen_of(l: Letter) -> GeneratorId:
    return abs(l) - 1


# ---------------------------------------------------------------------------
# Generator-id sets (interval-compressed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdSet:
    """A finite set of generator ids stored as sorted disjoint intervals.

    Used for alphabets and word supports.  Interval storage keeps alphabets
    with millions of consecutive fresh generators O(1)-sized.
    """

    intervals: tuple[tuple[int, int], ...]  # inclusive [lo, hi], sorted

    @staticmethod
    def empty() -> "IdSet":
        return _EMPTY_IDSET

    @staticmethod
    def of(*ids: int) -> "IdSet":
        return IdSet.from_ids(ids)

    @staticmethod
    def from_ids(ids: Iterable[int]) -> "IdSet":
        return IdSet.from_intervals((i, i) for i in ids)

    @staticmethod
    def from_range(lo: int, hi: int) -> "IdSet":
        """Ids lo..hi inclusive."""
        if hi < lo:
            return _EMPTY_IDSET
        return IdSet(((lo, hi),))

    @staticmethod
    def from_intervals(pairs: Iterable[tuple[int, int]]) -> "IdSet":
        items = sorted((lo, hi) for lo, hi in pairs if hi >= lo)
        merged: list[tuple[int, int]] = []
        for lo, hi in items:
            if lo < 0:
                raise ValueError("generator ids are non-negative")
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return IdSet(tuple(merged))

    @property
    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __contains__(self, i: int) -> bool:
        lo_idx, hi_idx = 0, len(self.intervals)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            lo, hi = self.intervals[mid]
            if i < lo:
                hi_idx = mid
            elif i > hi:
                lo_idx = mid + 1
            else:
                return True
        return False

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def union(self, other: "IdSet") -> "IdSet":
        return IdSet.from_intervals(self.intervals + other.intervals)

    def difference(self, other: "IdSet") -> "IdSet":
        out: list[tuple[int, int]] = []
        for lo, hi in self.intervals:
            cur = lo
            for olo, ohi in other.intervals:
                if ohi < cur or olo > hi:
                    continue
                if olo > cur:
                    out.append((cur, olo - 1))
                cur = max(cur, ohi + 1)
                if cur > hi:
                    break
            if cur <= hi:
                out.append((cur, hi))
        return IdSet(tuple(out))

    def intersection(self, other: "IdSet") -> "IdSet":
        out = []
        for lo, hi in self.intervals:
            for olo, ohi in other.intervals:
                nlo, nhi = max(lo, olo), min(hi, ohi)
                if nlo <= nhi:
                    out.append((nlo, nhi))
        return IdSet(tuple(sorted(out)))

    def issubset(self, other: "IdSet") -> bool:
        return not self.difference(other)

    def isdisjoint(self, other: "IdSet") -> bool:
        return not self.intersection(other)

    def contains_range(self, lo: int, hi: int) -> bool:
        for ilo, ihi in self.intervals:
            if ilo <= lo and hi <= ihi:
                return True
        return False

    @property
    def max_id(self) -> int:
        if not self.intervals:
            return -1
        return self.intervals[-1][1]

    def __repr__(self) -> str:
        parts = [f"{lo}" if lo == hi else f"{lo}..{hi}" for lo, hi in self.intervals]
        return "IdSet{%s}" % ",".join(parts)


_EMPTY_IDSET = IdSet(())


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

#: A maximal stretch of at least this many letters is stored as one Run.
RUN_MIN = 3


@dataclass(frozen=True, slots=True)
class Run:
    """The ``count`` signed letters ``first, first + 1, ...``.

    That is ``x_i·x_{i+1}·...·x_j`` (``first > 0``) or its inverse
    (``first < 0``).  A letter ``b`` follows ``a`` inside a run only when
    ``b == a + 1``; such letters never cancel, and the maximal stretches of a
    letter sequence never overlap.  A canonical word stores each maximal
    stretch of at least ``RUN_MIN`` letters as one run, so ``count >=
    RUN_MIN``.
    """

    first: Letter
    count: int

    @property
    def last(self) -> Letter:
        return self.first + self.count - 1

    def ids(self) -> tuple[int, int]:
        """The lowest and the highest generator id of the run."""
        a, b = gen_of(self.first), gen_of(self.last)
        return min(a, b), max(a, b)


def _seg_len(seg) -> int:
    return seg.count if type(seg) is Run else len(seg)


def _seg_first(seg) -> Letter:
    return seg.first if type(seg) is Run else seg[0]


def _seg_last(seg) -> Letter:
    return seg.last if type(seg) is Run else seg[-1]


def _letter_at(seg, t: int) -> Letter:
    return seg.first + t if type(seg) is Run else seg[t]


def _mk_run(first: Letter, count: int):
    """The segment of the stretch ``first, first + 1, ...`` of ``count``
    letters: a Run from ``RUN_MIN`` letters on, explicit letters below."""
    if count >= RUN_MIN:
        return Run(first, count)
    return tuple(range(first, first + count))


def _seg_inv(seg):
    if type(seg) is Run:
        return Run(-seg.last, seg.count)
    return tuple(-l for l in reversed(seg))


def _seg_drop_front(seg, m: int):
    if type(seg) is Run:
        return _mk_run(seg.first + m, seg.count - m)
    return seg[m:]


def _seg_drop_back(seg, m: int):
    if type(seg) is Run:
        return _mk_run(seg.first, seg.count - m)
    return seg[: len(seg) - m]


def _put(out: list, seg) -> None:
    """Append a non-empty segment; explicit letters join explicit letters."""
    if type(seg) is tuple and out and type(out[-1]) is tuple:
        out[-1] += seg
    else:
        out.append(seg)


def _glue(segs) -> tuple:
    """The canonical segments of the concatenation of ``segs``.

    Each of ``segs`` is a Run or a tuple that holds no stretch of ``RUN_MIN``
    letters, and the concatenation is freely reduced.  Only the stretch that
    crosses a junction is rebuilt.
    """
    out: list = []
    for s in segs:
        if type(s) is Run:
            first = s.first
        elif s:
            first = s[0]
        else:
            continue
        if not out:
            out.append(s)
            continue
        t = out[-1]
        if first != _seg_last(t) + 1:
            if type(s) is tuple and type(t) is tuple:
                out[-1] = t + s
            else:
                out.append(s)
            continue
        # t[i:] and s[:j] are the two halves of the stretch across the junction
        out.pop()
        i = 0
        if type(t) is tuple:
            i = len(t) - 1
            while i and t[i - 1] + 1 == t[i]:
                i -= 1
            if i:
                out.append(t[:i])
        j = _seg_len(s)
        if type(s) is tuple:
            j = 1
            while j < len(s) and s[j - 1] + 1 == s[j]:
                j += 1
        _put(out, _mk_run(_letter_at(t, i), _seg_len(t) - i + j))
        if j < _seg_len(s):
            _put(out, s[j:])
    return tuple(out)


def _segment(seq: list) -> tuple:
    """The canonical segments of an explicit, freely reduced letter list."""
    out: list = []
    loose: list = []  # explicit letters since the last run
    i, n = 0, len(seq)
    while i < n:
        j = i + 1
        while j < n and seq[j - 1] + 1 == seq[j]:
            j += 1
        if j - i >= RUN_MIN:
            if loose:
                out.append(tuple(loose))
                loose = []
            out.append(Run(seq[i], j - i))
        else:
            loose.extend(seq[i:j])
        i = j
    if loose:
        out.append(tuple(loose))
    return tuple(out)


# ---------------------------------------------------------------------------
# Word
# ---------------------------------------------------------------------------


class Word:
    __slots__ = ("_segs", "_length", "_hash", "_text")

    def __init__(self, segs: tuple, length: Optional[int] = None):
        """Internal constructor: ``segs`` must be the canonical segments of a
        freely reduced letter sequence (see the module docstring), and
        ``length``, when given, its number of letters.  Build words with the
        public constructors instead."""
        self._segs = segs
        if length is None:
            length = 0
            for s in segs:
                length += s.count if type(s) is Run else len(s)
        self._length = length
        self._hash: Optional[int] = None
        self._text: Optional[str] = None

    @property
    def length(self) -> int:
        return self._length

    @property
    def segments(self) -> tuple:
        return self._segs

    def is_identity(self) -> bool:
        return not self._segs

    @property
    def first(self) -> Optional[Letter]:
        return _seg_first(self._segs[0]) if self._segs else None

    @property
    def last(self) -> Optional[Letter]:
        return _seg_last(self._segs[-1]) if self._segs else None

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return multiply(self, other)

    def inverse(self) -> "Word":
        # inverting keeps every stretch a stretch, so the form stays canonical
        return Word(tuple(_seg_inv(s) for s in reversed(self._segs)), self._length)

    def __pow__(self, k: int) -> "Word":
        return power(self, k)

    # -- structural queries ---------------------------------------------------

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._segs)
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Word):
            return NotImplemented
        return self._length == other._length and self._segs == other._segs

    def __str__(self) -> str:
        if self._text is None:
            self._text = format_word(self)
        return self._text

    def __repr__(self) -> str:
        return f"W({self.__str__()})"


E = Word((), 0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def reduce(raw: Iterable[Letter]) -> Word:
    """Freely reduce an explicit letter sequence."""
    stack: list[int] = []
    for l in raw:
        if l == 0:
            raise ValueError("0 is not a letter")
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    if not stack:
        return E
    return Word(_segment(stack), len(stack))


def single(gen: GeneratorId, sign: int = 1) -> Word:
    """One-letter word."""
    return Word(((letter(gen, sign),),), 1)


def fresh_run(start: GeneratorId, k: int) -> Word:
    """The word ``x_start · x_{start+1} · ... · x_{start+k-1}``.

    One Run from ``RUN_MIN`` letters on, whatever k is.
    """
    if k < 1:
        raise ValueError(f"fresh_run needs k >= 1, got {k}")
    return Word((_mk_run(letter(start), k),), k)


def _clean(x: Letter, y: Letter) -> bool:
    """Is x then y a clean junction: no cancelling, and no stretch across?"""
    return x != -y and x + 1 != y


def multiply(v: Word, w: Word) -> Word:
    """The reduced product v·w.  Across a clean junction (:func:`_clean`) its
    segments are v's then w's, with a tuple meeting a tuple joined into one;
    else :func:`_walk` cancels the junction, and only the segments beside
    the cancelled ones are glued again.  Its length is |v| + |w| − 2m."""
    vs, ws = v._segs, w._segs
    if not (vs and ws):
        return v if vs else w
    t, s = vs[-1], ws[0]
    n = v._length + w._length
    if _clean(t.last if type(t) is Run else t[-1], s.first if type(s) is Run else s[0]):
        if type(t) is tuple and type(s) is tuple:
            return Word(vs[:-1] + (t + s,) + ws[1:], n)
        return Word(vs + ws, n)
    i, a, j, b, m = _walk(vs, ws)
    lo = i - 1 if i else 0  # a short remainder of a run joins the tuple before it
    return Word(vs[:lo] + _glue(vs[lo:i] + (a, b) + ws[j + 1 : j + 2]) + ws[j + 2 :], n - 2 * m)


def conjugate(x: Word, w: Word, x_inv: Word) -> Word:
    """x·w·x⁻¹, where ``x_inv`` is x⁻¹; the conjugators of the level lists
    and of the search are e and single letters.

    When x is one letter whose junctions with w are both clean
    (:func:`_clean`), the product's segments are w's with x's and x⁻¹'s
    joined on, and its text, when w's is known, is the three texts joined;
    any other product is made by :func:`multiply`.
    """
    if not x._segs:
        return w
    segs = w._segs
    if x._length == 1 and segs:
        (a,) = xs = x._segs[0]
        xis = x_inv._segs[0]
        head, tail = segs[0], segs[-1]
        f = head.first if type(head) is Run else head[0]
        l = tail.last if type(tail) is Run else tail[-1]
        if _clean(a, f) and _clean(l, -a):
            segs = (xs + head,) + segs[1:] if type(head) is tuple else (xs,) + segs
            tail = segs[-1]  # the joined head when w has one segment
            segs = segs[:-1] + (tail + xis,) if type(tail) is tuple else segs + (xis,)
            out = Word(segs, w._length + 2)
            if w._text is not None:
                out._text = f"{x} {w._text} {x_inv}"
            return out
    return multiply(multiply(x, w), x_inv)


def _walk(vs: tuple, ws: tuple) -> tuple:
    """Cancel the junction of the non-empty canonical segments ``vs`` and
    ``ws`` by index, copying no segment list.

    Returns ``(i, a, j, b, m)``: ``a`` is what is left of ``vs[i]`` and
    ``b`` of ``ws[j]`` (either may be empty, and a run cut below ``RUN_MIN``
    letters is explicit), ``vs[:i]`` and ``ws[j + 1:]`` are untouched, and
    ``m`` letter pairs cancel.  A run against a run cancels in one step.
    """
    i, j, m = len(vs) - 1, 0, 0
    a, b = vs[i], ws[0]
    while True:
        ra, rb = type(a) is Run, type(b) is Run
        if (a.last if ra else a[-1]) != -(b.first if rb else b[0]):
            return i, a, j, b, m
        la = a.count if ra else len(a)
        lb = b.count if rb else len(b)
        if ra and rb:
            k = min(la, lb)  # b starts with the inverse of a's last stretch
        else:
            k, top = 1, min(la, lb)
            while k < top and _letter_at(a, la - 1 - k) == -_letter_at(b, k):
                k += 1
        m += k
        a, b = _seg_drop_back(a, k), _seg_drop_front(b, k)
        if not a:
            if not i:
                return i, a, j, b, m
            i -= 1
            a = vs[i]
        if not b:
            if j == len(ws) - 1:
                return i, a, j, b, m
            j += 1
            b = ws[j]


def junction_cancels(v: Word, w: Word) -> int:
    """Number of letter pairs that cancel in the product v·w."""
    return _walk(v._segs, w._segs)[4] if v._segs and w._segs else 0


def power(w: Word, k: int) -> Word:
    if k == 0:
        return E
    if k < 0:
        return power(w.inverse(), -k)
    acc = E
    base = w
    while k:
        if k & 1:
            acc = multiply(acc, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return acc


def is_concatenation(v: Word, w: Word) -> bool:
    """True iff v·w reduces without junction cancellation."""
    return v.is_identity() or w.is_identity() or v.last != -w.first


def _explicit_ids(w: Word) -> set:
    """The absolute values (ids plus one) of w's explicit letters."""
    return {abs(l) for s in w._segs if type(s) is tuple for l in s}


def letters(w: Word) -> IdSet:
    """Support of w as a compact id set; letters(e) is empty.  Each explicit
    id enters once, and each run as its range."""
    runs = [s.ids() for s in w._segs if type(s) is Run]
    return IdSet.from_intervals(runs + [(l - 1, l - 1) for l in _explicit_ids(w)])


def letter_count(w: Word) -> int:
    """|letters(w)|; a word with no run builds no id set."""
    if any(type(s) is Run for s in w._segs):
        return letters(w).size
    return len(_explicit_ids(w))


def occurs(gen: GeneratorId, w: Word) -> bool:
    """``gen in letters(w)``, by a scan of w's segments that builds no id set."""
    l = gen + 1
    seqs = (range(s.first, s.first + s.count) if type(s) is Run else s for s in w._segs)
    return any(l in seq or -l in seq for seq in seqs)


def supported_in(w: Word, alpha: IdSet) -> bool:
    if len(alpha.intervals) == 1:
        # one interval: each letter is tested against its bounds, no search
        ((lo, hi),) = alpha.intervals
        lo, hi = lo + 1, hi + 1  # the bounds of the letters' absolute values
        for s in w._segs:
            if type(s) is Run:
                # a run's letters share one sign, so its ends are its extremes
                if not (lo <= abs(s.first) <= hi and lo <= abs(s.last) <= hi):
                    return False
            else:
                for l in s:
                    if not lo <= abs(l) <= hi:
                        return False
        return True
    for s in w._segs:
        if type(s) is Run:
            if not alpha.contains_range(*s.ids()):
                return False
        elif any(gen_of(l) not in alpha for l in s):
            return False
    return True


def split_at(w: Word, i: int) -> tuple[Word, Word]:
    """Split into (prefix of length i, rest)."""
    if i < 0 or i > w.length:
        raise ValueError(f"split index {i} out of range")
    if i == 0:
        return E, w
    if i == w.length:
        return w, E
    head: list = []
    rest = i
    segs = w._segs
    for idx, s in enumerate(segs):
        n = _seg_len(s)
        if rest >= n:
            head.append(s)
            rest -= n
            if rest == 0:
                return Word(tuple(head), i), Word(segs[idx + 1 :], w._length - i)
        else:
            head.append(_seg_drop_back(s, n - rest))
            tail = (_seg_drop_front(s, rest),) + segs[idx + 1 :]
            return Word(_glue(head), i), Word(_glue(tail), w._length - i)
    raise AssertionError("unreachable")


def subword(w: Word, i: int, j: int) -> Word:
    """Letters i..j-1 of w."""
    _, tail = split_at(w, i)
    head, _ = split_at(tail, j - i)
    return head


def cyclic_decompose(w: Word) -> tuple[Word, Word]:
    """Write w = p * c * p⁻¹ with c cyclically reduced and p maximal.

    All three factors concatenate without cancellation.
    """
    if w.is_identity():
        raise EmptyWord("cannot cyclically decompose the identity")
    m = junction_cancels(w, w)
    p = subword(w, 0, m)
    c = subword(w, m, w.length - m)
    return p, c


#: A cyclic generator c = p·core·p⁻¹, stored as (p, p⁻¹, core, core⁻¹).
CyclicParts = tuple[Word, Word, Word, Word]


def cyclic_parts(c: Word) -> CyclicParts:
    """Decompose the generator c once, for any number of :func:`cyclic_exponent`
    tests against ⟨c⟩."""
    if c.is_identity():
        raise EmptyGenerator("cyclic subgroup generator must be non-trivial")
    p, core = cyclic_decompose(c)
    return p, p.inverse(), core, core.inverse()


def cyclic_exponent(w: Word, parts: CyclicParts) -> Optional[int]:
    """The exponent k with w = c^k, where ``parts = cyclic_parts(c)``, or None.

    A non-trivial c^k is the reduced concatenation p·core^|k|·p⁻¹ (core
    inverted when k < 0), so w is rejected, before any word is split, when
    ``|w| - 2|p|`` is below |core| or not a multiple of it; then, when p ≠ e,
    when w's first letter is not p's first or its last is not p⁻¹'s last;
    or, when p = e, when its first letter is neither core's first nor
    core⁻¹'s.  Each rejection is exact.  A word that passes is split and
    compared in segment-proportional time.
    """
    if w.is_identity():
        return 0
    p, p_inv, core, core_inv = parts
    plen = p._length
    q, r = divmod(w._length - 2 * plen, core._length)
    if q <= 0 or r:
        return None
    if plen:
        if w.first != p.first or w.last != p_inv.last:
            return None
        head, rest = split_at(w, plen)
        if head != p:
            return None
        mid, tail = split_at(rest, rest._length - plen)
        if tail != p_inv:
            return None
    else:
        mid = w
    first = mid.first
    if first == core.first:
        base, k = core, q
    elif first == core_inv.first:
        base, k = core_inv, -q
    else:
        return None
    # mid is base^q exactly when it starts with base and has period |base|
    head, rest = split_at(mid, base._length)
    if head != base or rest != subword(mid, 0, rest._length):
        return None
    return k


def cyclic_member(w: Word, c: Word) -> Optional[int]:
    """The exponent k with w = c^k, or None; raises :class:`EmptyGenerator`
    when c = e.  Decomposes c on every call: a caller that tests many words
    against one c (an enriched layer's dict of adjoined words, the η check)
    calls :func:`cyclic_parts` once and :func:`cyclic_exponent` per word."""
    return cyclic_exponent(w, cyclic_parts(c))


def flatten_letters(w: Word, cap: int = MATERIALIZE_CAP) -> list[Letter]:
    """Explicit letter list; refuses words longer than ``cap``."""
    if w.length > cap:
        raise WordError(f"word of length {w.length} exceeds materialization cap {cap}")
    out: list[int] = []
    for s in w._segs:
        if type(s) is Run:
            out.extend(range(s.first, s.first + s.count))
        else:
            out.extend(s)
    return out


def word_key(w: Word):
    """Deterministic sort key: length, then text form.  Each word has one
    segmentation and so one text, which makes this a function of the word."""
    return (w.length, str(w))


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------
#
#   e                the identity
#   a .. z           generators 0..25, except e; generator 4 is x4
#   xN               generator N
#   x[i..j]          the run x_i · x_{i±1} · ... · x_j (positive letters)
#   t^-1             inverse of token t
#
# Tokens are whitespace separated.  ``y[i..j]`` is accepted as an alias for
# ``x[i..j]``.  A descending ``x[i..j]`` (i > j) is not a Run and is spelled
# out letter by letter, so it may hold at most MATERIALIZE_CAP letters.

_TOKEN_RE = re.compile(
    r"^(?:(?P<id>e)|(?P<alpha>[a-z])|x(?P<num>\d+)|[xy]\[(?P<lo>\d+)\.\.(?P<hi>\d+)\])"
    r"(?P<inv>\^-1)?$"
)


def parse_word(text: str) -> Word:
    acc = E
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise WordError(f"bad word token: {tok!r}")
        if m.group("id"):
            if m.group("inv"):
                raise WordError(f"the identity has no inverse marker: {tok!r}")
            continue
        if m.group("alpha"):
            piece = single(ord(m.group("alpha")) - ord("a"))
        elif m.group("num") is not None:
            piece = single(int(m.group("num")))
        else:
            lo, hi = int(m.group("lo")), int(m.group("hi"))
            if lo <= hi:
                piece = fresh_run(lo, hi - lo + 1)
            elif lo - hi + 1 > MATERIALIZE_CAP:
                raise WordError(
                    f"bad word token: {tok!r} spells out {lo - hi + 1} letters,"
                    f" more than the materialization cap {MATERIALIZE_CAP}"
                )
            else:
                piece = reduce(range(lo + 1, hi, -1))
        if m.group("inv"):
            piece = piece.inverse()
        acc = multiply(acc, piece)
    return acc


def _fmt_gen(gen: int) -> str:
    return chr(ord("a") + gen) if gen < 26 and gen != 4 else f"x{gen}"


def format_word(w: Word) -> str:
    if w.is_identity():
        return "e"
    toks: list[str] = []
    for s in w._segs:
        if type(s) is Run:
            lo, hi = s.ids()
            toks.append(f"x[{lo}..{hi}]" if s.first > 0 else f"x[{lo}..{hi}]^-1")
        else:
            for l in s:
                name = _fmt_gen(gen_of(l))
                toks.append(name if l > 0 else name + "^-1")
    return " ".join(toks)
