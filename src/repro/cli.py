"""The ``schemr`` command-line interface.

Subcommands cover the full lifecycle::

    schemr init repo.db
    schemr import repo.db clinic.sql --name clinic
    schemr generate repo.db --count 1000 --seed 7
    schemr index repo.db
    schemr search repo.db --keywords "patient height gender" --top 10
    schemr show repo.db 3 --layout tree --depth 3
    schemr export repo.db 3 --format graphml
    schemr serve repo.db --port 8080
    schemr verify-index ./segments
    schemr replicate http://primary:8080 ./replica-segments
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.core.results import format_result_table
from repro.corpus.filters import paper_filter
from repro.corpus.generator import CorpusGenerator
from repro.errors import SchemrError
from repro.repository.store import SchemaRepository
from repro.service.graphml import graphml_for_schema
from repro.service.server import SchemrServer
from repro.viz.ascii_art import render_ascii_tree
from repro.viz.drill import display_subgraph
from repro.viz.radial import radial_layout
from repro.viz.svg import render_svg
from repro.viz.tree import tree_layout

from repro.model.graph import schema_to_networkx


#: Serve-flag -> SchemrConfig-field mapping, the single source of truth
#: the `config-cli-drift` lint rule reconciles against config.py.  Keys
#: must be declared with add_argument below; values must be real
#: SchemrConfig fields; argparse dests are derived mechanically
#: (strip dashes, dashes -> underscores).
SERVE_FLAG_FIELDS = {
    "--search-budget": "search_budget_seconds",
    "--max-concurrent": "max_concurrent_searches",
    "--request-timeout": "request_timeout_seconds",
    "--candidate-pool": "candidate_pool",
    "--query-cache-size": "query_cache_size",
    "--slow-query": "slow_query_seconds",
    "--history-path": "history_path",
    "--history-max-bytes": "history_max_bytes",
    "--admission-queue": "admission_queue_size",
    "--admission-timeout": "admission_timeout_seconds",
    "--segment-dir": "segment_dir",
    "--merge-policy": "merge_policy",
    "--shards": "shards",
    "--shard-timeout": "shard_timeout_seconds",
    "--replicate-from": "replicate_from",
    "--max-replica-lag": "max_replica_lag_seconds",
    "--replica-poll": "replica_poll_seconds",
}


def _open_repository(path: str, must_exist: bool = True) -> SchemaRepository:
    if must_exist and not Path(path).exists():
        raise SchemrError(
            f"repository {path} does not exist; run `schemr init {path}`")
    return SchemaRepository(path)


# -- subcommand implementations ---------------------------------------------

def _cmd_init(args: argparse.Namespace) -> int:
    if Path(args.db).exists():
        raise SchemrError(f"{args.db} already exists")
    repo = SchemaRepository(args.db)
    repo.close()
    print(f"initialized empty schema repository at {args.db}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    with _open_repository(args.db) as repo:
        name = args.name or Path(args.file).stem
        if args.format == "xsd" or (args.format == "auto"
                                    and text.lstrip().startswith("<")):
            schema_id = repo.import_xsd(text, name=name,
                                        description=args.description)
        else:
            schema_id = repo.import_ddl(text, name=name,
                                        description=args.description)
        schema = repo.get_schema(schema_id)
        print(f"imported {schema.name!r} as schema {schema_id} "
              f"({schema.entity_count} entities, "
              f"{schema.attribute_count} attributes)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = CorpusGenerator(seed=args.seed)
    raw = generator.generate_raw_stream(args.count)
    stats = paper_filter(raw)
    with _open_repository(args.db) as repo:
        for generated in stats.kept:
            repo.add_schema(generated.schema)
    print(stats.summary())
    print(f"stored {stats.kept_count} schemas in {args.db}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    if args.shards and not args.segment_dir:
        raise SchemrError("--shards requires --segment-dir")
    with _open_repository(args.db) as repo:
        indexer = repo.indexer(segment_dir=args.segment_dir,
                               merge_policy=args.merge_policy,
                               shards=args.shards)
        applied = indexer.refresh()
        if args.segment_dir:
            index = indexer.index
            shard_note = ""
            if args.shards:
                per_shard = ", ".join(
                    str(index.shard(i).document_count)
                    for i in range(index.shard_count))
                shard_note = (f" across {args.shards} shard(s) "
                              f"[{per_shard} docs]")
            print(f"segment directory {args.segment_dir}: "
                  f"{index.segment_count} segment(s), "
                  f"{index.mmap_bytes} mmapped bytes{shard_note}")
        print(f"applied {applied} index operations; index now holds "
              f"{indexer.index.document_count} documents, "
              f"{indexer.index.term_count} terms")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    fragment = None
    if args.fragment:
        fragment = Path(args.fragment).read_text(encoding="utf-8")
    with _open_repository(args.db) as repo:
        engine = repo.engine()
        results = engine.search(keywords=args.keywords, fragment=fragment,
                                top_n=args.top)
        if args.dedup:
            from repro.core.dedup import collapse_duplicates, format_deduped
            print(format_deduped(collapse_duplicates(results, repo)))
        else:
            print(format_result_table(results))
        if args.trace and engine.last_profile is not None:
            print()
            print(engine.last_profile.summary())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
    graph = schema_to_networkx(schema)
    display = display_subgraph(graph, focus=args.focus, max_depth=args.depth)
    if args.layout == "ascii":
        print(render_ascii_tree(display))
        return 0
    layout = (radial_layout(display) if args.layout == "radial"
              else tree_layout(display))
    svg = render_svg(layout, title=schema.name)
    if args.out:
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(svg)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import json

    from repro.repository.exporter import export_ddl, export_xsd
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
    if args.format == "json":
        output = json.dumps(schema.to_dict(), indent=2)
    elif args.format == "ddl":
        output = export_ddl(schema)
    elif args.format == "xsd":
        output = export_xsd(schema)
    else:
        output = graphml_for_schema(schema)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.viz.summarize import summarize_schema
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
    summary = summarize_schema(schema, k=args.k)
    print(f"summary of {schema.name!r}: kept {len(summary.entities)} of "
          f"{schema.entity_count} entities "
          f"({summary.dropped} collapsed)")
    for name in summary.entities:
        print(f"  {name:<30} importance={summary.importance[name]:.3f}")
    for edge in summary.edges:
        kind = "fk" if edge.direct else f"via {edge.via_count} dropped"
        print(f"  {edge.source} -- {edge.target}  ({kind})")
    if args.out:
        graph = summary.to_networkx(schema)
        layout = tree_layout(display_subgraph(graph))
        Path(args.out).write_text(render_svg(layout, title=f"{schema.name}"
                                             " (summary)"),
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    from repro.codebook.annotate import annotate_schema
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
    annotated = annotate_schema(schema)
    print(f"codebook annotations for {schema.name!r} "
          f"(coverage {annotated.coverage:.0%}):")
    for category, paths in annotated.by_category().items():
        print(f"  [{category}]")
        for path in paths:
            annotation = annotated.annotations[path]
            unit = annotation.concept.canonical_unit
            unit_note = f" ({unit})" if unit else ""
            print(f"    {path:<36} -> {annotation.concept.name}"
                  f"{unit_note}")
    return 0


def _cmd_backup(args: argparse.Namespace) -> int:
    from repro.repository.backup import backup_repository
    with _open_repository(args.db) as repo:
        count = backup_repository(repo, args.destination)
    print(f"backed up {count} schema(s) to {args.destination}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.mapping.diff import diff_schemas
    with _open_repository(args.db) as repo:
        old = repo.get_schema(args.old_id)
        new = repo.get_schema(args.new_id)
    print(diff_schemas(old, new).summary())
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.instances.sampler import generate_instances
    from repro.instances.store import save_instances
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
        tables = generate_instances(schema, rows=args.rows, seed=args.seed)
        save_instances(repo, args.schema_id, tables)
        total = sum(t.row_count * len(t.columns) for t in tables.values())
        print(f"sampled {args.rows} example rows per entity for "
              f"{schema.name!r} ({total} values stored)")
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    from repro.instances.store import load_instances
    with _open_repository(args.db) as repo:
        schema = repo.get_schema(args.schema_id)
        tables = load_instances(repo, args.schema_id)
    if not tables:
        print(f"no data examples stored for schema {args.schema_id}; "
              f"run `schemr sample` first")
        return 1
    for entity, table in tables.items():
        columns = list(table.columns)
        print(f"{schema.name}.{entity} ({table.row_count} rows)")
        print("  " + " | ".join(columns))
        for row in table.rows()[:args.rows]:
            print("  " + " | ".join(row))
        print()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Telemetry snapshot: scrape a running server or probe a repository.

    ``target`` is either a base URL of a running ``schemr serve``
    (fetches ``/stats`` or, with ``--format prometheus``, ``/metrics``)
    or a repository path (opens it with telemetry enabled, optionally
    replays ``--warmup`` queries, and prints the local summary).
    """
    import urllib.request
    if args.target.startswith(("http://", "https://")):
        path = "/metrics" if args.format == "prometheus" else "/stats"
        with urllib.request.urlopen(args.target.rstrip("/") + path,
                                    timeout=10) as response:
            print(response.read().decode("utf-8"))
        return 0
    from repro.core.config import SchemrConfig
    with _open_repository(args.target) as repo:
        engine = repo.engine(config=SchemrConfig(telemetry_enabled=True))
        with engine:
            if args.warmup:
                for keywords in args.warmup.split(","):
                    keywords = keywords.strip()
                    if not keywords:
                        continue
                    try:
                        engine.search(keywords=keywords)
                    except SchemrError:
                        pass  # all-stopword warmups are not fatal
            print(f"repository: {args.target} "
                  f"({repo.schema_count} schemas)")
            if args.format == "prometheus":
                print(engine.telemetry.metrics.to_prometheus_text())
            else:
                print(engine.telemetry.summary_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.core.config import SchemrConfig
    # A replica serves the segments it pulls and never reads a
    # repository database, so it opens none.
    repo = None if args.replicate_from else _open_repository(args.db)
    if args.access_log:
        logging.basicConfig(level=logging.INFO,
                            format="%(asctime)s %(name)s %(message)s")
    overrides: dict[str, object] = {"telemetry_enabled": True}
    for flag, field_name in SERVE_FLAG_FIELDS.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            overrides[field_name] = value
    config = SchemrConfig(**overrides)
    server = SchemrServer(repo, host=args.host, port=args.port,
                          config=config, access_log=args.access_log)
    print(f"schemr service listening on {server.base_url}")

    # SIGTERM must tear down the shard worker pool (server.stop() ->
    # engine.close()) before the process exits, or the workers are
    # orphaned.  An Event keeps the handler async-signal-trivial; the
    # foreground loop notices and runs the ordinary shutdown path.
    stop_requested = threading.Event()
    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: stop_requested.set())
    except ValueError:  # pragma: no cover - not the main thread
        pass
    server.start()
    try:
        server_thread = getattr(server, "_thread")
        while (server_thread is not None and server_thread.is_alive()
               and not stop_requested.is_set()):
            stop_requested.wait(timeout=1.0)
        if stop_requested.is_set():
            print("shutting down (SIGTERM)")
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.stop()
        if repo is not None:
            repo.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay synthetic traffic against the repository (or a server).

    The click model needs ground-truth relevance, which the repository
    does not persist — it is regenerated from the corpus seed/count the
    repository was populated with (`schemr generate` defaults match the
    replay defaults).
    """
    from repro.core.config import SchemrConfig
    from repro.resilience.shedding import AdmissionController
    from repro.telemetry.history import SearchHistorySink
    from repro.workload import (EngineTarget, HttpTarget, ReplayDriver,
                                WorkloadSpec, attach_schema_ids,
                                build_catalog, regenerate_corpus)

    spec = WorkloadSpec(seed=args.seed, sessions=args.sessions,
                        duration_seconds=args.duration,
                        fragment_fraction=args.fragment_fraction,
                        top_n=args.top)
    with _open_repository(args.db) as repo:
        corpus = attach_schema_ids(
            repo, regenerate_corpus(args.corpus_seed, args.corpus_count))
        catalog = build_catalog(corpus, args.catalog_size,
                                seed=args.catalog_seed)
        if args.url:
            target = HttpTarget(args.url)
        else:
            admission = None
            if args.max_concurrent is not None:
                admission = AdmissionController(
                    max_concurrent=args.max_concurrent,
                    queue_size=args.admission_queue,
                    queue_timeout_seconds=args.admission_timeout)
            engine = repo.engine(config=SchemrConfig(telemetry_enabled=True))
            target = EngineTarget(engine, admission=admission,
                                  owns_engine=True)
        sink = None
        if args.history:
            sink = SearchHistorySink(args.history,
                                     max_bytes=args.history_max_bytes)
        try:
            driver = ReplayDriver(target, catalog, spec, sink=sink)
            if args.mode == "open":
                report = driver.run_open_loop(target_qps=args.target_qps,
                                              max_workers=args.max_workers)
            else:
                report = driver.run_closed_loop(users=args.users)
        finally:
            if sink is not None:
                sink.close()
            target.close()
    print(report.summary())
    if args.history:
        print(f"history written to {args.history}")
    return 0


def _cmd_train_weights(args: argparse.Namespace) -> int:
    """Fit ensemble weights from harvested history; optionally A/B them."""
    from repro.telemetry.history import SearchHistorySink
    from repro.workload import (ab_compare, attach_schema_ids, build_catalog,
                                heldout_queries, regenerate_corpus,
                                train_weights)

    records = SearchHistorySink.load(args.history)
    if not records:
        raise SchemrError(f"no history records in {args.history}")
    with _open_repository(args.db) as repo:
        _, report = train_weights(records, repo)
        print(f"read {len(records)} history records from {args.history}")
        print(report.summary())
        if args.ab:
            corpus = attach_schema_ids(
                repo,
                regenerate_corpus(args.corpus_seed, args.corpus_count))
            catalog = build_catalog(corpus, args.catalog_size,
                                    seed=args.catalog_seed)
            held = heldout_queries(
                corpus, args.heldout, seed=args.heldout_seed,
                exclude=[entry.query for entry in catalog.entries])
            result = ab_compare(repo, report.weights, held, top_n=args.top)
            print(result.summary())
            if args.out:
                import json
                Path(args.out).write_text(
                    json.dumps({"training": report.to_dict(),
                                "ab": result.to_dict()}, indent=2),
                    encoding="utf-8")
                print(f"wrote {args.out}")
    return 0


def _cmd_verify_index(args: argparse.Namespace) -> int:
    """Offline integrity check of a flat or sharded segment directory.

    Re-reads every committed segment, re-computes CRCs against the
    manifest, and cross-checks SHARDS.json/MANIFEST.json consistency.
    Exit status 0 means every committed byte checked out; 1 means the
    per-file report above it names what did not.
    """
    from repro.index.segments import verify_directory
    report = verify_directory(args.directory)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_replicate(args: argparse.Namespace) -> int:
    """One-shot replica sync: pull the primary's committed state.

    ``source`` is a running primary's base URL (``http://...``) or a
    local segment-directory path; ``destination`` is the local segment
    directory to catch up (created if missing).  Safe to re-run — pulls
    only what is missing and commits atomically.
    """
    from repro.replication import DirectorySource, HttpSource, ReplicaSyncer
    if "://" in args.source:
        source = HttpSource(args.source, timeout=args.timeout)
    else:
        source = DirectorySource(args.source)
    try:
        syncer = ReplicaSyncer(source, args.destination)
        report = syncer.sync_once()
    finally:
        source.close()
    dirs = ", ".join(report.dirs_updated) or "none"
    print(f"replicated {args.source} -> {args.destination}: "
          f"{'changed' if report.changed else 'already current'} "
          f"(generation {report.local_generation}); pulled "
          f"{report.pulled_segments} segment(s), "
          f"{report.pulled_bytes} bytes; dirs updated: {dirs}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import main as lint_main
    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.update_baseline:
        argv.append("--update-baseline")
    for rule in args.rules or ():
        argv += ["--rule", rule]
    if args.changed_only:
        argv.append("--changed-only")
    if args.list_rules:
        argv.append("--list-rules")
    if args.self_check:
        argv.append("--self-check")
    if args.design:
        argv += ["--design", args.design]
    return lint_main(argv)


# -- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemr",
        description="Search and visualize schema repositories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty repository")
    p.add_argument("db")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("import", help="import a DDL or XSD file")
    p.add_argument("db")
    p.add_argument("file")
    p.add_argument("--name", default=None)
    p.add_argument("--description", default="")
    p.add_argument("--format", choices=("auto", "ddl", "xsd"),
                   default="auto")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("generate",
                       help="populate with a synthetic WebTables corpus")
    p.add_argument("db")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("index", help="refresh the text index")
    p.add_argument("db")
    p.add_argument("--segment-dir", default=None, metavar="DIR",
                   help="build/refresh a durable mmap segment directory "
                        "instead of the in-memory index")
    p.add_argument("--merge-policy", choices=("tiered", "none"),
                   default="tiered",
                   help="how flushed segments fold together "
                        "(with --segment-dir)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="build a doc-id-sharded segment layout with N "
                        "shards (with --segment-dir; required for "
                        "`schemr serve --shards`)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="search the repository")
    p.add_argument("db")
    p.add_argument("--keywords", default=None)
    p.add_argument("--fragment", default=None,
                   help="path to a DDL/XSD fragment file")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--trace", action="store_true",
                   help="print the per-phase pipeline trace")
    p.add_argument("--dedup", action="store_true",
                   help="collapse near-duplicate schemas in the results")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("show", help="visualize one schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.add_argument("--layout", choices=("ascii", "tree", "radial"),
                   default="ascii")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--focus", default=None,
                   help="drill in on this element path")
    p.add_argument("--out", default=None, help="write SVG here")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("export", help="export one schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.add_argument("--format", choices=("json", "graphml", "ddl", "xsd"),
                   default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("summarize",
                       help="size-k structural summary of one schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--out", default=None, help="write summary SVG here")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("annotate",
                       help="codebook concept annotations for one schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("backup", help="online backup of the repository")
    p.add_argument("db")
    p.add_argument("destination")
    p.set_defaults(func=_cmd_backup)

    p = sub.add_parser("diff",
                       help="structural diff between two stored schemas")
    p.add_argument("db")
    p.add_argument("old_id", type=int)
    p.add_argument("new_id", type=int)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("sample",
                       help="generate and store data examples for a schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("examples",
                       help="show stored data examples for a schema")
    p.add_argument("db")
    p.add_argument("schema_id", type=int)
    p.add_argument("--rows", type=int, default=5)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("stats",
                       help="telemetry snapshot of a repository or a "
                            "running server")
    p.add_argument("target",
                   help="repository path, or base URL of a running "
                        "`schemr serve` (e.g. http://127.0.0.1:8080)")
    p.add_argument("--warmup", default=None,
                   help="comma-separated keyword queries to run first "
                        "(repository mode)")
    p.add_argument("--format", choices=("text", "prometheus"),
                   default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("db", help="the repository database (a replica, "
                   "--replicate-from, opens none)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--access-log", action="store_true",
                   help="log every request (method, route, status, "
                        "duration) to stderr")
    p.add_argument("--search-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="per-search wall-clock budget; past it the "
                        "pipeline degrades gracefully instead of "
                        "running long (default: unlimited)")
    p.add_argument("--max-concurrent", type=int, default=32,
                   metavar="N",
                   help="searches allowed in flight before admission "
                        "control queues and then sheds (429) new ones")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="socket read timeout per request; stalled "
                        "clients get a 408 instead of a wedged thread")
    p.add_argument("--candidate-pool", type=int, default=None,
                   metavar="N",
                   help="phase-1 candidate pool size handed to the "
                        "matcher (default: config default)")
    p.add_argument("--query-cache-size", type=int, default=None,
                   metavar="N",
                   help="entries kept in the phase-1 query cache")
    p.add_argument("--slow-query", type=float, default=None,
                   metavar="SECONDS",
                   help="searches slower than this are counted and "
                        "kept in the slow-query telemetry ring")
    p.add_argument("--history-path", default=None, metavar="PATH",
                   help="append-only JSONL search-history sink")
    p.add_argument("--history-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="rotate the history sink past this size "
                        "(default: unbounded)")
    p.add_argument("--admission-queue", type=int, default=None,
                   metavar="N",
                   help="searches allowed to wait for admission before "
                        "new arrivals are shed immediately")
    p.add_argument("--segment-dir", default=None, metavar="DIR",
                   help="serve the index from this mmap segment "
                        "directory (millisecond cold start; refreshes "
                        "flush durably)")
    p.add_argument("--merge-policy", choices=("tiered", "none"),
                   default=None,
                   help="segment merge policy used with --segment-dir")
    p.add_argument("--admission-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="longest a queued search waits for admission "
                        "before a 429")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="serve with N worker processes over a sharded "
                        "--segment-dir layout (escapes the GIL; "
                        "default: single-process)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-request budget for one shard worker before "
                        "the front repairs its slice locally")
    p.add_argument("--replicate-from", default=None, metavar="URL",
                   help="serve as a read replica of this primary "
                        "(base URL of its `schemr serve`, or a local "
                        "segment-directory path); pulls committed "
                        "segments into --segment-dir and hot-swaps them")
    p.add_argument("--max-replica-lag", type=float, default=None,
                   metavar="SECONDS",
                   help="replica staleness past which /readyz answers "
                        "503 (with --replicate-from)")
    p.add_argument("--replica-poll", type=float, default=None,
                   metavar="SECONDS",
                   help="how often the replica polls the primary for "
                        "new committed segments")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replay",
                       help="replay synthetic sessions against the "
                            "repository or a running server")
    p.add_argument("db")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed: N concurrent users as fast as the stack "
                        "answers (harvest mode); open: arrivals at "
                        "--target-qps regardless of completions "
                        "(overload mode)")
    p.add_argument("--seed", type=int, default=97,
                   help="workload seed; the whole replay is "
                        "deterministic under it")
    p.add_argument("--sessions", type=int, default=200)
    p.add_argument("--duration", type=float, default=86400.0,
                   metavar="SECONDS",
                   help="virtual horizon the diurnal curve spans")
    p.add_argument("--corpus-seed", type=int, default=7,
                   help="seed `schemr generate` was run with")
    p.add_argument("--corpus-count", type=int, default=1000,
                   help="count `schemr generate` was run with")
    p.add_argument("--catalog-size", type=int, default=50,
                   help="distinct query intents in the Zipf catalog")
    p.add_argument("--catalog-seed", type=int, default=23)
    p.add_argument("--fragment-fraction", type=float, default=0.2,
                   help="fraction of queries attaching a DDL fragment")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--users", type=int, default=4,
                   help="concurrent simulated users (closed mode)")
    p.add_argument("--target-qps", type=float, default=50.0,
                   help="mean arrival rate (open mode)")
    p.add_argument("--max-workers", type=int, default=16,
                   help="dispatch threads (open mode)")
    p.add_argument("--url", default=None,
                   help="replay against this running `schemr serve` "
                        "base URL instead of in-process")
    p.add_argument("--max-concurrent", type=int, default=None, metavar="N",
                   help="put admission control (shedding) in front of "
                        "the in-process engine")
    p.add_argument("--admission-queue", type=int, default=8, metavar="N")
    p.add_argument("--admission-timeout", type=float, default=0.1,
                   metavar="SECONDS")
    p.add_argument("--history", default=None, metavar="PATH",
                   help="harvest clicked results to this JSONL history "
                        "(byte-identical across runs of the same spec)")
    p.add_argument("--history-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="rotate the harvested history past this size")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("train-weights",
                       help="fit ensemble weights from harvested search "
                            "history and A/B them against uniform")
    p.add_argument("db")
    p.add_argument("history", help="JSONL history harvested by "
                                   "`schemr replay --history` or "
                                   "`schemr serve --history-path`")
    p.add_argument("--corpus-seed", type=int, default=7)
    p.add_argument("--corpus-count", type=int, default=1000)
    p.add_argument("--catalog-size", type=int, default=50,
                   help="replay catalog size, excluded from the "
                        "held-out set")
    p.add_argument("--catalog-seed", type=int, default=23)
    p.add_argument("--heldout", type=int, default=30,
                   help="held-out ground-truth queries for the A/B")
    p.add_argument("--heldout-seed", type=int, default=51)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--no-ab", dest="ab", action="store_false",
                   help="skip the uniform-vs-trained A/B evaluation")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the training + A/B report as JSON")
    p.set_defaults(func=_cmd_train_weights)

    p = sub.add_parser("verify-index",
                       help="integrity-check a segment directory "
                            "(CRCs, manifests, shard routing)")
    p.add_argument("directory",
                   help="flat or sharded segment directory to verify")
    p.set_defaults(func=_cmd_verify_index)

    p = sub.add_parser("replicate",
                       help="one-shot pull of a primary's committed "
                            "segments into a local directory")
    p.add_argument("source",
                   help="primary base URL (http://host:port) or local "
                        "segment-directory path")
    p.add_argument("destination",
                   help="local segment directory to sync (created if "
                        "missing)")
    p.add_argument("--timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="per-request timeout against an HTTP source")
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("lint",
                       help="run the project static-analysis rules "
                            "(see DESIGN.md, Static analysis)")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src tests)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline JSON of grandfathered findings")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline with current findings")
    p.add_argument("--rule", action="append", dest="rules",
                   metavar="RULE",
                   help="run only this rule (repeatable); unknown "
                        "rule ids exit 2")
    p.add_argument("--changed-only", action="store_true",
                   help="report only findings in files changed vs git "
                        "HEAD (the full corpus is still analyzed)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--self-check", action="store_true",
                   help="verify the rule registry matches the DESIGN.md "
                        "rule catalog")
    p.add_argument("--design", default=None, metavar="PATH",
                   help="DESIGN.md location for --self-check")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # well-behaved unix tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
