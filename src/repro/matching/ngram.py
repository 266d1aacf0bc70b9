"""N-gram machinery for the name matcher.

"Each schema element in the query is parsed into a set of all possible
n-grams, ranging in length from one character to the length of the
word."  Overlap is scored with a length-weighted Dice coefficient:
longer shared n-grams count more, which is what makes ``patientheight``
and ``patht`` score well (shared ``pat`` + ``ht``) while keeping random
single-character collisions cheap.
"""

from __future__ import annotations


def ngrams(text: str, min_n: int = 1, max_n: int | None = None) -> set[str]:
    """All character n-grams of ``text`` with lengths in [min_n, max_n].

    ``max_n=None`` means up to ``len(text)`` (the paper's definition).
    """
    if min_n < 1:
        raise ValueError(f"min_n must be >= 1, got {min_n}")
    length = len(text)
    if max_n is None or max_n > length:
        max_n = length
    grams: set[str] = set()
    for n in range(min_n, max_n + 1):
        for i in range(length - n + 1):
            grams.add(text[i:i + n])
    return grams


def dice_similarity(a: set[str], b: set[str]) -> float:
    """Plain Dice coefficient over two n-gram sets."""
    if not a and not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


#: Process-wide gram-profile cache, cleared whole when it fills.
_GRAM_CACHE: dict[tuple[str, int, int], tuple[frozenset[str], float]] = {}
_GRAM_CACHE_MAX = 1 << 17


def weighted_gram_profile(text: str, min_n: int = 1, max_n_cap: int = 24) \
        -> tuple[frozenset[str], float]:
    """(gram set, total weight) for ``text``; weight of a gram = its length.

    Cached because candidate schemas repeat element names constantly
    during a search session.
    """
    key = (text, min_n, max_n_cap)
    hit = _GRAM_CACHE.get(key)
    if hit is None:
        grams = ngrams(text, min_n=min_n,
                       max_n=min(len(text), max_n_cap) or 1)
        hit = (frozenset(grams), float(sum(len(g) for g in grams)))
        if len(_GRAM_CACHE) >= _GRAM_CACHE_MAX:
            _GRAM_CACHE.clear()
        _GRAM_CACHE[key] = hit
    return hit


def weighted_ngram_similarity(a: str, b: str, min_n: int = 1,
                              max_n_cap: int = 24) -> float:
    """Length-weighted Dice coefficient between two strings' n-gram sets.

    ``sim = 2 * weight(shared grams) / (weight(a grams) + weight(b grams))``

    Identical strings score 1.0; disjoint alphabets score 0.0.
    ``max_n_cap`` bounds work on pathologically long names.
    """
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    grams_a, weight_a = weighted_gram_profile(a, min_n, max_n_cap)
    grams_b, weight_b = weighted_gram_profile(b, min_n, max_n_cap)
    if weight_a + weight_b == 0.0:
        return 0.0
    shared = grams_a & grams_b
    shared_weight = sum(len(g) for g in shared)
    return 2.0 * shared_weight / (weight_a + weight_b)
