"""Analyzer chains: identifier text -> index terms.

An :class:`Analyzer` is a configurable pipeline:

    split -> lowercase -> [stopword filter] -> [length filter] -> [stem]

Two ready-made instances cover the library's needs:

* :data:`SCHEMA_ANALYZER` — the full chain used when indexing schema
  documents and analyzing queries (matches the paper's Lucene setup);
* :data:`SIMPLE_ANALYZER` — split + lowercase only, used where stemming
  would hurt (n-gram name matching works on surface forms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.text.splitter import split_identifier
from repro.text.stemmer import porter_stem
from repro.text.stopwords import is_stopword


@dataclass(frozen=True, slots=True)
class Analyzer:
    """Configurable identifier-to-terms pipeline.

    Parameters
    ----------
    remove_stopwords:
        Drop English/schema stopwords after lowercasing.
    stem:
        Apply Porter stemming as the final stage.
    min_length / max_length:
        Tokens outside the byte-length band are dropped (single letters
        are noise; absurdly long tokens are usually junk data).
    """

    remove_stopwords: bool = True
    stem: bool = True
    min_length: int = 1
    max_length: int = 64

    def analyze(self, text: str) -> list[str]:
        """Produce the term list for one piece of text.

        A fresh list per call: callers may extend it without touching
        the memo behind :func:`_analysed`.
        """
        return list(_analysed(self, text))

    def analyze_all(self, texts: list[str]) -> list[str]:
        """Analyze several texts and concatenate the term lists in order."""
        terms: list[str] = []
        for text in texts:
            terms.extend(_analysed(self, text))
        return terms

    def unique_terms(self, text: str) -> set[str]:
        """Set view of :meth:`analyze` (used by set-based matchers)."""
        return set(_analysed(self, text))


@lru_cache(maxsize=1 << 15)
def _analysed(analyzer: Analyzer, text: str) -> tuple[str, ...]:
    """The term tuple of ``text`` under ``analyzer``.

    A process-wide memo of a pure function (the analyzer is frozen, so
    equal analyzers share entries): schema corpora repeat element names
    constantly, so indexing pays the splitter regexes and the stemmer
    once per distinct string, not once per occurrence.  Returns a
    shared tuple; :meth:`Analyzer.analyze` hands out mutable copies.
    """
    terms: list[str] = []
    for word in split_identifier(text):
        token = word.lower()
        if analyzer.remove_stopwords and is_stopword(token):
            continue
        if not (analyzer.min_length <= len(token) <= analyzer.max_length):
            continue
        if analyzer.stem:
            token = porter_stem(token)
        if token:
            terms.append(token)
    return tuple(terms)


#: Full pipeline used by the inverted index.
SCHEMA_ANALYZER = Analyzer()

#: Splitting + lowercasing only, for surface-form matchers.
SIMPLE_ANALYZER = Analyzer(remove_stopwords=False, stem=False)
