"""Schemr: search and visualization for schema repositories.

A faithful reproduction of *Exploring Schema Repositories with Schemr*
(Chen, Kannan, Madhavan, Halevy; SIGMOD 2009 demo / SIGMOD Record 2011).

Quick start::

    from repro import SchemaRepository

    repo = SchemaRepository.in_memory()
    repo.import_ddl(open("clinic.sql").read(), name="clinic")
    repo.reindex()
    engine = repo.engine()
    for result in engine.search("patient, height, gender, diagnosis"):
        print(result.name, result.score)

The package layout follows the system architecture (Figure 5):

* :mod:`repro.model` — schemas and query graphs;
* :mod:`repro.parsers` — DDL / XSD / WebTable / query parsing;
* :mod:`repro.text` + :mod:`repro.index` — the Lucene-style text index;
* :mod:`repro.matching` — the fine-grained matcher ensemble;
* :mod:`repro.scoring` — tightness-of-fit;
* :mod:`repro.core` — the three-phase engine;
* :mod:`repro.repository` — the Yggdrasil-style schema repository;
* :mod:`repro.service` — XML/GraphML HTTP service;
* :mod:`repro.viz` — tree/radial layouts, SVG/ASCII rendering;
* :mod:`repro.corpus` — WebTables-style corpus generation;
* :mod:`repro.eval` — IR quality metrics.
"""

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.core.results import SearchResult, format_result_table
from repro.errors import (
    IndexError_,
    MatchError,
    ParseError,
    QueryError,
    RepositoryError,
    SchemaError,
    SchemrError,
    ServiceError,
)
from repro.codebook.annotate import annotate_schema
from repro.codebook.matcher import CodebookMatcher
from repro.mapping.derive import derive_mapping
from repro.matching.ensemble import MatcherEnsemble
from repro.model.elements import Attribute, ElementRef, Entity, ForeignKey
from repro.model.query import QueryGraph
from repro.model.schema import Schema
from repro.parsers.ddl import parse_ddl
from repro.parsers.query_parser import parse_query
from repro.parsers.xsd import parse_xsd
from repro.repository.exporter import export_ddl, export_xsd
from repro.repository.store import SchemaRepository
from repro.scoring.tightness import PenaltyPolicy, TightnessScorer
from repro.viz.summarize import summarize_schema

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "CodebookMatcher",
    "annotate_schema",
    "derive_mapping",
    "export_ddl",
    "export_xsd",
    "summarize_schema",
    "ElementRef",
    "Entity",
    "ForeignKey",
    "IndexError_",
    "MatchError",
    "MatcherEnsemble",
    "ParseError",
    "PenaltyPolicy",
    "QueryError",
    "QueryGraph",
    "RepositoryError",
    "Schema",
    "SchemaError",
    "SchemaRepository",
    "SchemrConfig",
    "SchemrEngine",
    "SchemrError",
    "SearchResult",
    "ServiceError",
    "TightnessScorer",
    "format_result_table",
    "parse_ddl",
    "parse_query",
    "parse_xsd",
]
