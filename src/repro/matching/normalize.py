"""Term normalization for name matching.

"A name matcher normalizes terms and computes n-gram overlap..."
Normalization here means: identifier splitting, lowercasing, and
expansion of the abbreviations that plague real schema names (``qty``,
``amt``, ``dob``, ``addr``...).  The abbreviation table is intentionally
conservative — only unambiguous, widely used short forms — because a
wrong expansion costs more than a missed one (the n-gram overlap still
catches prefix abbreviations like ``pat`` vs ``patient`` on its own).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.text.splitter import split_words_lower

#: Unambiguous schema-name abbreviations -> expansions.
ABBREVIATIONS: dict[str, str] = {
    "abbr": "abbreviation",
    "acct": "account",
    "addr": "address",
    "amt": "amount",
    "avg": "average",
    "bal": "balance",
    "cat": "category",
    "cnt": "count",
    "ctry": "country",
    "curr": "currency",
    "desc": "description",
    "dept": "department",
    "dob": "date of birth",
    "emp": "employee",
    "fname": "first name",
    "gend": "gender",
    "govt": "government",
    "hosp": "hospital",
    "hr": "hour",
    "ht": "height",
    "lang": "language",
    "lname": "last name",
    "loc": "location",
    "max": "maximum",
    "med": "medication",
    "min": "minimum",
    "mgr": "manager",
    "msg": "message",
    "nbr": "number",
    "num": "number",
    "org": "organization",
    "pct": "percent",
    "phn": "phone",
    "pos": "position",
    "prod": "product",
    "pwd": "password",
    "qty": "quantity",
    "ref": "reference",
    "sal": "salary",
    "ssn": "social security number",
    "st": "street",
    "stat": "status",
    "tel": "telephone",
    "temp": "temperature",
    "tot": "total",
    "usr": "user",
    "wt": "weight",
    "yr": "year",
}


def expand_abbreviations(words: Iterable[str]) -> list[str]:
    """Replace each known abbreviation with its expansion words."""
    out: list[str] = []
    for word in words:
        expansion = ABBREVIATIONS.get(word)
        if expansion is None:
            out.append(word)
        else:
            out.extend(expansion.split())
    return out


@lru_cache(maxsize=1 << 15)
def analysed_words(name: str, expand: bool = True) -> tuple[str, ...]:
    """Split, lowercased and optionally expanded words of ``name``.

    A process-wide memo of a pure function: schema corpora repeat
    element names constantly, so a profile rebuild or a cold match
    pays the four splitter regexes once per distinct name, not once
    per occurrence.  The expanded view is derived from the (memoized)
    plain split, so a name is split at most once either way.  Returns
    a shared tuple; :func:`normalize_words` hands out mutable copies.
    """
    if expand:
        return tuple(expand_abbreviations(analysed_words(name, False)))
    return tuple(split_words_lower(name))


def normalize_name(name: str, expand: bool = True) -> str:
    """Canonical single-string form of an element name.

    Splits the identifier, lowercases, optionally expands abbreviations,
    and rejoins without separators.  Removing separators is what lets
    pure n-gram overlap see through "delimiter characters not in the
    original query" (the paper's example failure mode).

    >>> normalize_name("Patient_Height")
    'patientheight'
    >>> normalize_name("pat_ht")  # 'pat' is not in the table; 'ht' is
    'patheight'
    """
    return "".join(analysed_words(name, expand))


def normalize_words(name: str, expand: bool = True) -> list[str]:
    """Word-list form of :func:`normalize_name` (for set matchers).

    A fresh list per call: callers may mutate it without touching the
    memo behind :func:`analysed_words`.
    """
    return list(analysed_words(name, expand))
