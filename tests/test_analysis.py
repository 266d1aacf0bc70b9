"""The static-analysis framework: each rule catches its seeded
violation, stays quiet on the clean twin, honors pragmas and baselines,
and the reporters/CLI behave."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint, self_check
from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.analysis.registry import all_rules, get_rule
from repro.analysis.report import LintResult, render_json, render_text
from repro.analysis.runner import main as lint_main
from repro.analysis.source import SourceFile, module_name_for


def _lint_snippet(tmp_path: Path, code: str, rule_id: str,
                  name: str = "mod.py") -> list:
    """Findings of one rule over one synthetic module."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    source = SourceFile.parse(path)
    rule = get_rule(rule_id)
    findings = list(rule.check_file(source))
    return [f for f in findings
            if not rule.suppressed(source, f.line)]


# -- registry ----------------------------------------------------------


def test_registry_has_all_nine_rules():
    ids = {rule.id for rule in all_rules()}
    assert {"lock-discipline", "clock-hygiene", "exception-safety",
            "metric-catalog", "config-cli-drift", "lock-order",
            "api-blocking", "resource-lifecycle", "site-catalog"} <= ids


def test_rules_declare_pragma_and_description():
    for rule in all_rules():
        assert rule.pragma, rule.id
        assert rule.description, rule.id


# -- lock discipline ---------------------------------------------------

LOCKED_COUNTER = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._hits = 0

        def bump(self):
            with self._lock:
                self._hits += 1

        @property
        def hits(self):
            return self._hits
"""


def test_lock_discipline_flags_unlocked_read(tmp_path):
    findings = _lint_snippet(tmp_path, LOCKED_COUNTER, "lock-discipline")
    assert len(findings) == 1
    assert "Store.hits reads self._hits" in findings[0].message


def test_lock_discipline_quiet_when_read_is_locked(tmp_path):
    clean = LOCKED_COUNTER.replace(
        "            return self._hits",
        "            with self._lock:\n"
        "                return self._hits")
    assert _lint_snippet(tmp_path, clean, "lock-discipline") == []


def test_lock_discipline_exempts_constructors(tmp_path):
    code = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0

            def bump(self):
                with self._lock:
                    self._hits += 1
    """
    assert _lint_snippet(tmp_path, code, "lock-discipline") == []


def test_lock_discipline_counts_subscript_writes(tmp_path):
    code = """
        import threading

        class Buckets:
            def __init__(self):
                self._lock = threading.Lock()
                self._counts = [0, 0]

            def observe(self, i):
                with self._lock:
                    self._counts[i] += 1

            def peek(self, i):
                return self._counts[i]
    """
    findings = _lint_snippet(tmp_path, code, "lock-discipline")
    assert len(findings) == 1
    assert "Buckets.peek reads self._counts" in findings[0].message


def test_lock_discipline_line_pragma_suppresses(tmp_path):
    code = LOCKED_COUNTER.replace(
        "            return self._hits",
        "            return self._hits"
        "  # lint: unlocked (atomic int read)")
    assert _lint_snippet(tmp_path, code, "lock-discipline") == []


def test_lock_discipline_def_pragma_covers_whole_method(tmp_path):
    code = LOCKED_COUNTER.replace(
        "        def hits(self):",
        "        def hits(self):  # lint: unlocked (caller holds lock)")
    assert _lint_snippet(tmp_path, code, "lock-discipline") == []


def test_pragma_in_string_literal_does_not_suppress(tmp_path):
    code = LOCKED_COUNTER.replace(
        "            return self._hits",
        '            x = "# lint: unlocked"\n'
        "            return self._hits")
    findings = _lint_snippet(tmp_path, code, "lock-discipline")
    assert len(findings) == 1


# -- clock hygiene -----------------------------------------------------


def test_clock_hygiene_flags_calls_in_telemetry_modules(tmp_path):
    pkg = tmp_path / "repro" / "telemetry"
    pkg.mkdir(parents=True)
    path = pkg / "thing.py"
    path.write_text("import time\n\n"
                    "def stamp():\n"
                    "    return time.time()\n", encoding="utf-8")
    source = SourceFile.parse(path)
    assert source.module == "repro.telemetry.thing"
    findings = list(get_rule("clock-hygiene").check_file(source))
    assert len(findings) == 1
    assert "time.time()" in findings[0].message


def test_clock_hygiene_flags_clock_param_functions(tmp_path):
    code = """
        import time

        def wait(clock=time.monotonic):
            deadline = time.monotonic() + 1.0
            return deadline
    """
    findings = _lint_snippet(tmp_path, code, "clock-hygiene")
    assert len(findings) == 1
    assert findings[0].line == 5


def test_clock_hygiene_allows_references_and_perf_counter(tmp_path):
    code = """
        import time

        def wait(clock=time.monotonic):
            return clock() + time.perf_counter()

        def elsewhere():
            return time.time()
    """
    assert _lint_snippet(tmp_path, code, "clock-hygiene") == []


def test_clock_hygiene_covers_clock_injected_classes(tmp_path):
    code = """
        import time

        class Breaker:
            def __init__(self, clock=time.monotonic):
                self._clock = clock

            def trip(self):
                return time.monotonic()
    """
    findings = _lint_snippet(tmp_path, code, "clock-hygiene")
    assert len(findings) == 1


# -- exception safety --------------------------------------------------


def test_exception_safety_flags_bare_except(tmp_path):
    code = """
        def f():
            try:
                pass
            except:
                pass
    """
    findings = _lint_snippet(tmp_path, code, "exception-safety")
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_exception_safety_flags_silent_swallow(tmp_path):
    code = """
        def f():
            try:
                pass
            except Exception:
                pass
    """
    findings = _lint_snippet(tmp_path, code, "exception-safety")
    assert len(findings) == 1
    assert "swallows" in findings[0].message


def test_exception_safety_allows_logged_reraise_and_narrow(tmp_path):
    code = """
        import logging
        logger = logging.getLogger(__name__)

        def f():
            try:
                pass
            except Exception as exc:
                logger.exception("boom: %s", exc)

        def g():
            try:
                pass
            except Exception:
                raise

        def h():
            try:
                pass
            except ValueError:
                pass
    """
    assert _lint_snippet(tmp_path, code, "exception-safety") == []


def test_exception_safety_pragma_suppresses(tmp_path):
    code = """
        def f(errors):
            try:
                pass
            except Exception as exc:  # lint: fault-boundary (collector)
                errors.append(exc)
    """
    assert _lint_snippet(tmp_path, code, "exception-safety") == []


# -- metric catalog ----------------------------------------------------


def _metric_corpus(tmp_path: Path, catalog_body: str,
                   user_body: str) -> LintResult:
    pkg = tmp_path / "repro" / "telemetry"
    pkg.mkdir(parents=True)
    (pkg / "catalog.py").write_text(textwrap.dedent(catalog_body),
                                    encoding="utf-8")
    user = tmp_path / "repro" / "user.py"
    user.write_text(textwrap.dedent(user_body), encoding="utf-8")
    return run_lint([tmp_path])


def test_metric_catalog_flags_uncatalogued_and_unused(tmp_path):
    result = _metric_corpus(
        tmp_path,
        """
        METRICS = {
            "schemr_used_total": ("counter", "used"),
            "schemr_orphan_total": ("counter", "never used"),
        }
        """,
        """
        def report(m):
            m.counter("schemr_used_total", "used").inc()
            m.counter("schemr_rogue_total", "not catalogued").inc()
        """)
    messages = [f.message for f in result.findings
                if f.rule == "metric-catalog"]
    assert any("schemr_rogue_total" in m for m in messages)
    assert any("schemr_orphan_total" in m and "never used" in m
               for m in messages)
    assert not any("schemr_used_total" in m for m in messages)


def test_metric_catalog_checks_kind_and_dynamic_names(tmp_path):
    result = _metric_corpus(
        tmp_path,
        """
        METRICS = {
            "schemr_depth": ("gauge", "depth"),
        }
        """,
        """
        def report(m, which):
            m.counter("schemr_depth", "wrong kind").inc()
            m.counter(f"schemr_{which}_total", "dynamic").inc()
        """)
    messages = [f.message for f in result.findings
                if f.rule == "metric-catalog"]
    assert any("registered as counter but catalogued as gauge" in m
               for m in messages)
    assert any("dynamically built" in m for m in messages)


def test_metric_catalog_allows_prefix_references(tmp_path):
    result = _metric_corpus(
        tmp_path,
        """
        METRICS = {
            "schemr_index_documents": ("gauge", "docs"),
        }
        """,
        """
        def group(samples, m):
            m.gauge("schemr_index_documents", "docs").set(1)
            return [s for s in samples
                    if s.startswith("schemr_index_")]
        """)
    assert [f for f in result.findings if f.rule == "metric-catalog"] == []


def test_metric_catalog_inert_without_catalog_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('NAME = "schemr_rogue_total"\n', encoding="utf-8")
    result = run_lint([path])
    assert [f for f in result.findings if f.rule == "metric-catalog"] == []


# -- config/CLI drift --------------------------------------------------


def _drift_corpus(tmp_path: Path, config_body: str,
                  cli_body: str) -> LintResult:
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "config.py").write_text(textwrap.dedent(config_body),
                                   encoding="utf-8")
    cli = tmp_path / "repro" / "cli.py"
    cli.write_text(textwrap.dedent(cli_body), encoding="utf-8")
    return run_lint([tmp_path])


GOOD_CLI = """
    SERVE_FLAG_FIELDS = {
        "--pool": "pool",
    }

    def build(parser):
        parser.add_argument("--pool", type=int)

    def run(config):
        return config.pool, config.hidden
"""


def test_config_drift_flags_unreachable_field(tmp_path):
    result = _drift_corpus(
        tmp_path,
        """
        class SchemrConfig:
            pool: int = 5
            hidden: float = 1.0
        """,
        GOOD_CLI)
    messages = [f.message for f in result.findings
                if f.rule == "config-cli-drift"]
    assert any("SchemrConfig.hidden is unreachable" in m
               for m in messages)


def test_config_drift_internal_pragma_documents_field(tmp_path):
    result = _drift_corpus(
        tmp_path,
        """
        class SchemrConfig:
            pool: int = 5
            hidden: float = 1.0  # lint: internal (ablation knob)
        """,
        GOOD_CLI)
    assert [f for f in result.findings
            if f.rule == "config-cli-drift"] == []


def test_config_drift_flags_field_nothing_reads(tmp_path):
    # Validating a knob in config.py is not a use, and the `internal`
    # pragma documents a knob without excusing a dead one.
    result = _drift_corpus(
        tmp_path,
        """
        class SchemrConfig:
            pool: int = 5
            hidden: float = 1.0  # lint: internal (ablation knob)
            dead: int = 4  # lint: internal (backoff knob)

            def __post_init__(self):
                if self.dead < 1:
                    raise ValueError(self.dead)
        """,
        GOOD_CLI)
    findings = [f for f in result.findings if f.rule == "config-cli-drift"]
    assert [f.message for f in findings] == [
        "SchemrConfig.dead is never read outside repro.core.config; "
        "delete the dead knob or wire it up"]
    assert findings[0].line == 5


def test_config_drift_counts_reads_in_any_program_module(tmp_path):
    result = _drift_corpus(
        tmp_path,
        """
        class SchemrConfig:
            pool: int = 5
            hidden: float = 1.0  # lint: internal (ablation knob)
        """,
        GOOD_CLI.replace(", config.hidden", ""))
    messages = [f.message for f in result.findings
                if f.rule == "config-cli-drift"]
    assert messages == ["SchemrConfig.hidden is never read outside "
                        "repro.core.config; delete the dead knob or wire "
                        "it up"]
    engine = tmp_path / "repro" / "core" / "engine.py"
    engine.write_text("def run(config):\n    return config.hidden\n",
                      encoding="utf-8")
    assert [f for f in run_lint([tmp_path]).findings
            if f.rule == "config-cli-drift"] == []


def test_config_drift_flags_phantom_field_and_flag(tmp_path):
    result = _drift_corpus(
        tmp_path,
        """
        class SchemrConfig:
            pool: int = 5
        """,
        """
        SERVE_FLAG_FIELDS = {
            "--pool": "pool",
            "--ghost": "no_such_field",
        }

        def build(parser):
            parser.add_argument("--pool", type=int)
        """)
    messages = [f.message for f in result.findings
                if f.rule == "config-cli-drift"]
    assert any("no_such_field" in m and "does not exist" in m
               for m in messages)
    assert any("--ghost" in m and "no add_argument" in m
               for m in messages)


# -- the real tree is clean --------------------------------------------


def test_repo_src_and_tests_lint_clean():
    repo_root = Path(__file__).resolve().parents[1]
    result = run_lint([repo_root / "src", repo_root / "tests"])
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)


def test_self_check_registry_matches_design_md():
    repo_root = Path(__file__).resolve().parents[1]
    assert self_check(str(repo_root / "DESIGN.md")) == []


# -- baseline ----------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(LOCKED_COUNTER), encoding="utf-8")
    result = run_lint([path])
    assert len(result.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, result.findings)
    baseline = load_baseline(baseline_path)
    fresh, old = split_baselined(result.findings, baseline)
    assert fresh == []
    assert len(old) == 1

    # A new, different finding is not masked by the old baseline.
    path.write_text(textwrap.dedent(LOCKED_COUNTER).replace(
        "self._hits", "self._misses"), encoding="utf-8")
    rerun = run_lint([path])
    fresh, old = split_baselined(rerun.findings, baseline)
    assert len(fresh) == 1 and old == []


def test_baseline_rejects_malformed(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(bad)
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(bad)


# -- reporters ---------------------------------------------------------


def test_json_reporter_schema(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(LOCKED_COUNTER), encoding="utf-8")
    result = run_lint([path])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["files"] == 1
    assert payload["summary"]["rules"] == {"lock-discipline": 1}
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "path", "line", "message",
                            "severity"}
    assert finding["rule"] == "lock-discipline"
    assert finding["severity"] == "error"


def test_text_reporter_lists_findings_and_summary(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(LOCKED_COUNTER), encoding="utf-8")
    result = run_lint([path])
    text = render_text(result)
    assert "[lock-discipline]" in text
    assert "1 finding(s) in 1 file(s)" in text


def test_syntax_error_becomes_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n", encoding="utf-8")
    result = run_lint([path])
    assert [f.rule for f in result.findings] == ["syntax-error"]


# -- CLI entry points --------------------------------------------------


def test_runner_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent(LOCKED_COUNTER), encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")

    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "[lock-discipline]" in out

    baseline = tmp_path / "baseline.json"
    assert lint_main([str(dirty), "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    assert lint_main([str(dirty), "--baseline", str(baseline)]) == 0
    assert lint_main([str(tmp_path / "missing.py")]) == 2


def test_schemr_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as cli_main
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent(LOCKED_COUNTER), encoding="utf-8")
    assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1

    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "lock-discipline" in out and "config-cli-drift" in out


def test_module_name_resolution():
    assert module_name_for(
        Path("src/repro/telemetry/catalog.py")) == "repro.telemetry.catalog"
    assert module_name_for(
        Path("src/repro/analysis/__init__.py")) == "repro.analysis"
    assert module_name_for(Path("/tmp/xyz/mod.py")) == "mod"
