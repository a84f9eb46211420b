"""Exact reduced-word arithmetic for free groups over a countable generator set.

Generators are identified by non-negative integers.  A letter is a nonzero
signed integer: generator ``i`` with exponent ``+1`` is encoded as ``i + 1``
and its inverse as ``-(i + 1)``, so two letters cancel exactly when they sum
to zero.

A :class:`Word` stores its (freely reduced) letter sequence as a short list
of segments.  A segment is either an explicit tuple of letters or a
:class:`Run`: ``count`` consecutive generator ids starting at ``start``,
walked in one direction, all with the same sign.  Runs are what make words
such as ``x0·x1·...·x{2^32-1}`` representable: every operation below works on
segment descriptors and never expands a run, so multiplication, inversion and
equality cost time proportional to the number of segments, not letters.
Lengths are plain Python ints and may be astronomically large.

Words are immutable and hashable; equality compares the underlying letter
sequences (two differently segmented words that spell the same letters are
equal).
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


@dataclass(frozen=True)
class Run:
    """``count`` letters over consecutive generator ids, one shared sign.

    Position ``t`` (0-based) holds generator ``start + step*t`` with sign
    ``sign``.  All ids in a run are distinct, so a run is always reduced.
    Runs of fewer than 2 letters are stored as explicit tuples instead.
    """

    start: int
    count: int
    step: int  # +1 ascending, -1 descending
    sign: int

    def letter_at(self, t: int) -> Letter:
        return self.sign * (self.start + self.step * t + 1)


def _seg_len(seg) -> int:
    return seg.count if isinstance(seg, Run) else len(seg)


def _seg_first(seg) -> Letter:
    return seg.letter_at(0) if isinstance(seg, Run) else seg[0]


def _seg_last(seg) -> Letter:
    return seg.letter_at(seg.count - 1) if isinstance(seg, Run) else seg[-1]


def _mk_run(start: int, count: int, step: int, sign: int):
    """Run constructor that demotes short runs to explicit tuples."""
    if count <= 0:
        return ()
    if count == 1:
        return (sign * (start + 1),)
    if step == -1 and start - (count - 1) < 0:
        raise ValueError("run walks below generator id 0")
    return Run(start, count, step, sign)


def _seg_inv(seg):
    if isinstance(seg, Run):
        end = seg.start + seg.step * (seg.count - 1)
        return Run(end, seg.count, -seg.step, -seg.sign)
    return tuple(-l for l in reversed(seg))


def _seg_drop_front(seg, m: int):
    if m <= 0:
        return seg
    if isinstance(seg, Run):
        return _mk_run(seg.start + seg.step * m, seg.count - m, seg.step, seg.sign)
    return seg[m:]


def _seg_drop_back(seg, m: int):
    if m <= 0:
        return seg
    if isinstance(seg, Run):
        return _mk_run(seg.start, seg.count - m, seg.step, seg.sign)
    return seg[: len(seg) - m]


def _seg_take_front(seg, m: int):
    if isinstance(seg, Run):
        return _mk_run(seg.start, m, seg.step, seg.sign)
    return seg[:m]


def _glue(segs) -> tuple:
    """Merge adjacent compatible segments; drops empties.

    Assumes the flattened sequence is already freely reduced.
    """
    out: list = []
    for s in segs:
        if _seg_len(s) == 0:
            continue
        if out:
            t = out[-1]
            if isinstance(t, tuple) and isinstance(s, tuple):
                out[-1] = t + s
                continue
            if (
                isinstance(t, Run)
                and isinstance(s, Run)
                and t.sign == s.sign
                and t.step == s.step
                and s.start == t.start + t.step * t.count
            ):
                out[-1] = Run(t.start, t.count + s.count, t.step, t.sign)
                continue
        out.append(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# Word
# ---------------------------------------------------------------------------


class Word:
    __slots__ = ("_segs", "_length", "_hash", "_text")

    def __init__(self, segs: tuple):
        # Internal constructor: segs must denote a freely reduced sequence.
        self._segs = segs
        total = 0
        for s in segs:
            total += s.count if type(s) is Run else len(s)
        self._length = total
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
        return Word(tuple(_seg_inv(s) for s in reversed(self._segs)))

    def __pow__(self, k: int) -> "Word":
        return power(self, k)

    # -- structural queries ---------------------------------------------------

    def _edge_letters(self, k: int) -> tuple:
        front: list[int] = []
        for s in self._segs:
            n = min(_seg_len(s), k - len(front))
            for t in range(n):
                front.append(s.letter_at(t) if isinstance(s, Run) else s[t])
            if len(front) >= k:
                break
        back: list[int] = []
        for s in reversed(self._segs):
            n = min(_seg_len(s), k - len(back))
            ln = _seg_len(s)
            for t in range(n):
                idx = ln - 1 - t
                back.append(s.letter_at(idx) if isinstance(s, Run) else s[idx])
            if len(back) >= k:
                break
        return tuple(front), tuple(back)

    def __hash__(self) -> int:
        if self._hash is None:
            front, back = self._edge_letters(8)
            self._hash = hash((self._length, front, back))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Word):
            return NotImplemented
        if self._length != other._length:
            return False
        if self._segs == other._segs:
            return True
        if self._hash is not None and other._hash is not None and self._hash != other._hash:
            return False
        return _segs_equal(self._segs, other._segs)

    def __str__(self) -> str:
        if self._text is None:
            self._text = format_word(self)
        return self._text

    def __repr__(self) -> str:
        return f"W({self.__str__()})"


E = Word(())


def _segs_equal(a_segs: tuple, b_segs: tuple, copies: int = 1) -> bool:
    """Do ``a_segs`` spell the letters of ``b_segs`` repeated ``copies`` times?

    Walks both segment lists in lockstep, ``b_segs`` cyclically, and stops at
    the first mismatch; the repeat is never built.  For ``copies > 1`` the
    letters of ``b_segs`` must concatenate with themselves (a cyclically
    reduced word), so that the repeat is segment-wise concatenation.
    """
    na, nb = len(a_segs), len(b_segs)
    ia = ib = 0
    offa = offb = 0
    while ia < na and copies:
        sa, sb = a_segs[ia], b_segs[ib]
        la = sa.count if type(sa) is Run else len(sa)
        lb = sb.count if type(sb) is Run else len(sb)
        ra = la - offa
        rb = lb - offb
        m = min(ra, rb)
        if isinstance(sa, Run) and isinstance(sb, Run):
            if m >= 2:
                if (
                    sa.sign != sb.sign
                    or sa.step != sb.step
                    or sa.start + sa.step * offa != sb.start + sb.step * offb
                ):
                    return False
            else:
                if sa.letter_at(offa) != sb.letter_at(offb):
                    return False
        elif isinstance(sa, Run):
            for t in range(m):
                if sa.letter_at(offa + t) != sb[offb + t]:
                    return False
        elif isinstance(sb, Run):
            for t in range(m):
                if sa[offa + t] != sb.letter_at(offb + t):
                    return False
        else:
            if sa[offa : offa + m] != sb[offb : offb + m]:
                return False
        offa += m
        offb += m
        if offa == la:
            ia += 1
            offa = 0
        if offb == lb:
            ib += 1
            offb = 0
            if ib == nb:
                ib = 0
                copies -= 1
    return ia == na and not copies


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
    return Word((tuple(stack),))


def single(gen: GeneratorId, sign: int = 1) -> Word:
    """One-letter word."""
    return Word(((letter(gen, sign),),))


def fresh_run(start: GeneratorId, k: int) -> Word:
    """The word ``x_start · x_{start+1} · ... · x_{start+k-1}``.

    Stored as one segment regardless of k.
    """
    if k < 1:
        raise ValueError(f"fresh_run needs k >= 1, got {k}")
    return Word((_mk_run(start, k, 1, 1),))


def multiply(v: Word, w: Word) -> Word:
    if v.is_identity():
        return w
    if w.is_identity():
        return v
    left, right, _ = _junction(list(v._segs), list(w._segs))
    return Word(_glue(left + right))


def _junction(left: list, right: list) -> tuple[list, list, int]:
    """Cancel the junction between ``left`` and ``right`` segment lists.

    Returns the surviving segment lists and the number of cancelled letter
    pairs.  Cost is proportional to segment count plus explicit letters
    touched; run-against-run cancellation is O(1) per segment pair.
    """
    cancelled = 0
    ri = 0
    while left and ri < len(right):
        a = left[-1]
        b = right[ri]
        if _seg_last(a) != -_seg_first(b):
            break
        la, lb = _seg_len(a), _seg_len(b)
        if isinstance(a, Run) and isinstance(b, Run):
            # Signs already opposite (checked above).  Further letters keep
            # cancelling only if the gen sequences mirror: step_b == -step_a.
            m = min(la, lb) if b.step == -a.step else 1
        elif isinstance(a, tuple) and isinstance(b, tuple):
            m = 1
            while m < min(la, lb) and a[la - 1 - m] == -b[m]:
                m += 1
        else:
            m = 1
            while m < min(la, lb):
                x = a.letter_at(la - 1 - m) if isinstance(a, Run) else a[la - 1 - m]
                y = b.letter_at(m) if isinstance(b, Run) else b[m]
                if x != -y:
                    break
                m += 1
        cancelled += m
        a2 = _seg_drop_back(a, m)
        b2 = _seg_drop_front(b, m)
        left.pop()
        if _seg_len(a2):
            left.append(a2)
        if _seg_len(b2):
            right[ri] = b2
        else:
            ri += 1
        if _seg_len(a2) and _seg_len(b2):
            break  # boundary letters no longer inverse
    return left, right[ri:], cancelled


def junction_cancels(v: Word, w: Word) -> int:
    """Number of letter pairs that cancel in the product v·w."""
    _, _, m = _junction(list(v._segs), list(w._segs))
    return m


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
    if v.is_identity() or w.is_identity():
        return True
    return v.last != -w.first


def letters(w: Word) -> IdSet:
    """Support of w as a compact id set; letters(e) is empty."""
    pairs = []
    for s in w._segs:
        if isinstance(s, Run):
            end = s.start + s.step * (s.count - 1)
            pairs.append((min(s.start, end), max(s.start, end)))
        else:
            pairs.extend((gen_of(l), gen_of(l)) for l in s)
    return IdSet.from_intervals(pairs)


def supported_in(w: Word, alpha: IdSet) -> bool:
    for s in w._segs:
        if isinstance(s, Run):
            end = s.start + s.step * (s.count - 1)
            if not alpha.contains_range(min(s.start, end), max(s.start, end)):
                return False
        else:
            if any(gen_of(l) not in alpha for l in s):
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
                return Word(tuple(head)), Word(segs[idx + 1 :])
        else:
            head.append(_seg_take_front(s, rest))
            tail = (_seg_drop_front(s, rest),) + segs[idx + 1 :]
            return Word(_glue(head)), Word(_glue(tail))
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


def cyclic_member(w: Word, c: Word) -> Optional[int]:
    """The exponent k with w = c^k, or None.

    Exact for arbitrary words; runs in segment-proportional time.
    """
    if c.is_identity():
        raise EmptyGenerator("cyclic subgroup generator must be non-trivial")
    if w.is_identity():
        return 0
    p, core = cyclic_decompose(c)
    plen = p.length
    if w.length < 2 * plen + core.length:
        return None
    if plen:
        head, rest = split_at(w, plen)
        if head != p:
            return None
        mid, tail = split_at(rest, rest.length - plen)
        if tail != p.inverse():
            return None
    else:
        mid = w
    q, r = divmod(mid.length, core.length)
    if r != 0 or q == 0:
        return None
    if mid.first == core.first:
        base, k = core, q
    elif mid.first == -core.last:
        base, k = core.inverse(), -q
    else:
        return None
    return k if _segs_equal(mid._segs, base._segs, q) else None


def flatten_letters(w: Word, cap: int = MATERIALIZE_CAP) -> list[Letter]:
    """Explicit letter list; refuses words longer than ``cap``."""
    if w.length > cap:
        raise WordError(f"word of length {w.length} exceeds materialization cap {cap}")
    out: list[int] = []
    for s in w._segs:
        if isinstance(s, Run):
            out.extend(s.letter_at(t) for t in range(s.count))
        else:
            out.extend(s)
    return out


def word_key(w: Word):
    """Deterministic sort key: length, then text form."""
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
# ``x[i..j]``.

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
                piece = Word((_mk_run(lo, hi - lo + 1, 1, 1),))
            else:
                piece = Word((_mk_run(lo, lo - hi + 1, -1, 1),))
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
        if isinstance(s, Run):
            end = s.start + s.step * (s.count - 1)
            if s.sign > 0:
                toks.append(f"x[{s.start}..{end}]")
            else:
                # inverse of the reversed positive run
                toks.append(f"x[{end}..{s.start}]^-1")
        else:
            for l in s:
                name = _fmt_gen(gen_of(l))
                toks.append(name if l > 0 else name + "^-1")
    return " ".join(toks)
