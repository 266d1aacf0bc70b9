"""Unit tests for repro.text.analysis and stopwords."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.analysis import SCHEMA_ANALYZER, SIMPLE_ANALYZER, Analyzer
from repro.text.splitter import split_identifier
from repro.text.stemmer import porter_stem
from repro.text.stopwords import STOPWORDS, is_stopword


class TestStopwords:
    def test_classic_lucene_words_present(self):
        for word in ("the", "and", "of", "with"):
            assert is_stopword(word)

    def test_schema_words_not_stopwords(self):
        for word in ("patient", "height", "name", "date"):
            assert not is_stopword(word)

    def test_frozen(self):
        assert isinstance(STOPWORDS, frozenset)


class TestSchemaAnalyzer:
    def test_splits_lowercases_stems(self):
        assert SCHEMA_ANALYZER.analyze("PatientObservations") == \
            ["patient", "observ"]

    def test_removes_stopwords(self):
        assert SCHEMA_ANALYZER.analyze("date_of_birth") == ["date", "birth"]

    def test_empty_input(self):
        assert SCHEMA_ANALYZER.analyze("") == []

    def test_all_stopwords_input(self):
        assert SCHEMA_ANALYZER.analyze("of the and") == []

    def test_analyze_all_concatenates_in_order(self):
        terms = SCHEMA_ANALYZER.analyze_all(["patient_id", "height"])
        assert terms == ["patient", "id", "height"]

    def test_unique_terms(self):
        assert SCHEMA_ANALYZER.unique_terms("patient patient_id") == \
            {"patient", "id"}


class TestSimpleAnalyzer:
    def test_no_stemming(self):
        assert SIMPLE_ANALYZER.analyze("observations") == ["observations"]

    def test_no_stopword_removal(self):
        assert SIMPLE_ANALYZER.analyze("date_of_birth") == \
            ["date", "of", "birth"]


class TestCustomAnalyzer:
    def test_length_filter(self):
        analyzer = Analyzer(min_length=3, stem=False,
                            remove_stopwords=False)
        assert analyzer.analyze("go to the db_x") == ["the"]

    def test_max_length_filter(self):
        analyzer = Analyzer(max_length=5, stem=False,
                            remove_stopwords=False)
        assert analyzer.analyze("short verylongtoken") == ["short"]

    def test_stemming_applies_after_filtering(self):
        analyzer = Analyzer(remove_stopwords=True, stem=True)
        # 'that' is a stopword; it never reaches the stemmer.
        assert analyzer.analyze("that observations") == ["observ"]


_CUSTOM_ANALYZER = Analyzer(min_length=3, stem=False)

#: Fragments that exercise every stage: camelCase humps, acronyms,
#: letter/digit boundaries, delimiters, stopwords, short tokens and
#: non-ASCII letters.
_FRAGMENTS = st.sampled_from([
    "patient", "Height", "XMLHttpRequest", "addr2", "2nd", "42", "ID",
    "dateOfBirth", "of", "the", "and", "x", "ab", "_", "-", ".", " ",
    "/", "café", "Ärzte", "naïve", "Σίγμα", "ﬁle", "observations",
])
_TEXTS = st.one_of(st.lists(_FRAGMENTS, max_size=8).map("".join),
                   st.text(max_size=24))


def _uncached_chain(analyzer, text):
    """The analyzer chain spelled out, with the uncached stemmer."""
    terms = []
    for word in split_identifier(text):
        token = word.lower()
        if analyzer.remove_stopwords and is_stopword(token):
            continue
        if not (analyzer.min_length <= len(token) <= analyzer.max_length):
            continue
        if analyzer.stem:
            token = porter_stem.__wrapped__(token)
        if token:
            terms.append(token)
    return terms


class TestMemoisedAnalysis:
    @settings(max_examples=200, deadline=None)
    @given(text=_TEXTS,
           analyzer=st.sampled_from([SCHEMA_ANALYZER, SIMPLE_ANALYZER,
                                     _CUSTOM_ANALYZER]))
    def test_memo_equals_uncached_chain(self, text, analyzer):
        expected = _uncached_chain(analyzer, text)
        first = analyzer.analyze(text)
        assert first == expected
        first.append("mutated")  # callers extend what they get back
        first[:1] = []
        assert analyzer.analyze(text) == expected
        assert analyzer.analyze_all([text, text]) == expected + expected
        assert analyzer.unique_terms(text) == set(expected)

    def test_each_call_returns_a_fresh_list(self):
        first = SCHEMA_ANALYZER.analyze("patient_height")
        assert SCHEMA_ANALYZER.analyze("patient_height") is not first
