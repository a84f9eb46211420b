"""Word-kernel microbenchmarks on a workload's own word corpus.

The build and query workloads pass the words of a final condition's
enumerated levels and its certificates, which are run-heavy; verify-suites
passes short seeded words with explicit letters.  Each measurement runs one
untimed pass first, then repeats the corpus until ``min_s`` of timed calls
have accumulated, and reports the mean time per call.

Words over generator 4 print as ``e`` (a known defect in ``words``), so
their text does not parse back to them: ``words.format_parse.failures``
counts the corpus words whose round trip fails, and the timing keeps them.
"""

from __future__ import annotations

from time import perf_counter

from assgp.words import Word, WordError, format_word, multiply, parse_word, split_at, supported_in


def _per_call(batches, call, min_s: float) -> float:
    """Seconds per call of ``call(item)``, where ``batches()`` gives a fresh
    list of items for each pass (fresh words where a result is cached)."""
    for item in batches():
        call(item)
    spent = 0.0
    calls = 0
    while spent < min_s:
        items = batches()
        t = perf_counter()
        for item in items:
            call(item)
        spent += perf_counter() - t
        calls += len(items)
    return spent / calls


def _format_parse(w: Word):
    try:
        return parse_word(format_word(w))
    except WordError as exc:
        return exc


def word_metrics(corpus: list, alphabets: list, min_s: float = 0.2) -> dict[str, float]:
    corpus = [w for w in corpus if not w.is_identity()][:2000]
    products = list(zip(corpus, corpus[1:] + corpus[:1])) + [(w, w.inverse()) for w in corpus]
    # Equal words built two ways (possibly segmented differently), and
    # unequal words of the same length.  Fresh copies carry no cached hash,
    # so __eq__ cannot take the hash shortcut on one side only.
    by_length: dict = {}
    for w in corpus:
        by_length.setdefault(w.length, []).append(w)

    def eq_pairs():
        out = [(Word(w.segments), multiply(*split_at(w, w.length // 2))) for w in corpus]
        for same in by_length.values():
            out += [(Word(a.segments), Word(b.segments)) for a, b in zip(same, same[1:])]
        return out

    eq_items = eq_pairs()
    membership = [(w, alpha) for alpha in alphabets for w in corpus]
    return {
        "words.multiply_ns": 1e9 * _per_call(lambda: products, lambda p: multiply(*p), min_s),
        "words.hash_ns": 1e9 * _per_call(
            lambda: [Word(w.segments) for w in corpus], hash, min_s
        ),
        "words.eq_ns": 1e9 * _per_call(lambda: eq_items, lambda p: p[0] == p[1], min_s),
        "words.supported_in_ns": 1e9 * _per_call(
            lambda: membership, lambda p: supported_in(*p), min_s
        ),
        "words.format_parse_us": 1e6 * _per_call(lambda: corpus, _format_parse, min_s),
        "words.format_parse.failures": sum(_format_parse(w) != w for w in corpus),
    }
