"""Rule ``config-cli-drift``: SchemrConfig and the serve CLI agree.

``repro.cli`` declares ``SERVE_FLAG_FIELDS``, the flag → config-field
mapping the serve command builds its :class:`SchemrConfig` from.  This
rule reconciles three sources of truth:

* every mapping value must be a real ``SchemrConfig`` field — a rename
  in ``config.py`` breaks the CLI loudly at lint time, not at runtime;
* every mapping key must be a flag actually declared with
  ``add_argument`` — no phantom flags;
* every ``SchemrConfig`` field must either appear as a mapping value
  (reachable from the CLI) or carry a ``# lint: internal (reason)``
  pragma on its declaration line (documented internal knob);
* every ``SchemrConfig`` field must be read as an attribute by some
  ``repro`` module other than ``repro.core.config`` (matched by name,
  not type): a knob nothing reads is dead.  Only the rule id, not the
  ``internal`` pragma, silences this finding.

Like the metric rule it is a project rule, inert unless both anchor
modules (``repro.core.config`` and ``repro.cli``) are in the scan.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import SourceFile

CONFIG_MODULE = "repro.core.config"
CLI_MODULE = "repro.cli"
CONFIG_CLASS = "SchemrConfig"
MAPPING_NAME = "SERVE_FLAG_FIELDS"


def _config_fields(source: SourceFile) -> dict[str, int]:
    """SchemrConfig field name -> declaration line."""
    fields: dict[str, int] = {}
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.ClassDef)
                and node.name == CONFIG_CLASS):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                fields[stmt.target.id] = stmt.lineno
    return fields


def _flag_mapping(source: SourceFile
                  ) -> dict[str, tuple[str, int]] | None:
    """SERVE_FLAG_FIELDS literal: flag -> (field, lineno)."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            targets = [node.target.id]
        else:
            continue
        if MAPPING_NAME not in targets or not isinstance(node.value,
                                                         ast.Dict):
            continue
        mapping: dict[str, tuple[str, int]] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                mapping[key.value] = (value.value, key.lineno)
        return mapping
    return None


def _attribute_reads(sources: Sequence[SourceFile],
                     config: SourceFile) -> set[str]:
    """Attribute names the program's other modules load."""
    package = config.module.split(".")[0] + "."
    return {node.attr
            for source in sources
            if source is not config and source.module.startswith(package)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _declared_flags(source: SourceFile) -> set[str]:
    """Every string flag passed to an ``add_argument`` call."""
    flags: set[str] = set()
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        for arg in node.args:
            if (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")):
                flags.add(arg.value)
    return flags


@register
class ConfigCliDriftRule(Rule):
    id = "config-cli-drift"
    pragma = "internal"
    description = ("every SchemrConfig field is read outside config.py "
                   "and is CLI-reachable via SERVE_FLAG_FIELDS or "
                   "marked `# lint: internal`; the mapping names only "
                   "real fields and flags")

    def suppressed(self, source: SourceFile, line: int) -> bool:
        # The ``internal`` token is honoured only by the reachability
        # check below; a dead knob yields to the rule id alone.
        return source.has_pragma(line, self.id)

    def check_project(self,
                      sources: Sequence[SourceFile]) -> Iterable[Finding]:
        config = next((s for s in sources
                       if s.module == CONFIG_MODULE), None)
        cli = next((s for s in sources if s.module == CLI_MODULE), None)
        if config is None or cli is None:
            return ()
        fields = _config_fields(config)
        mapping = _flag_mapping(cli)
        if not fields:
            return ()
        findings: list[Finding] = []
        if mapping is None:
            findings.append(self.finding(
                cli, 1,
                f"{CLI_MODULE} has no {MAPPING_NAME} dict literal; the "
                f"serve command's flag/field mapping must be statically "
                f"declared"))
            return findings

        flags = _declared_flags(cli)
        for flag, (field_name, line) in sorted(mapping.items()):
            if field_name not in fields:
                findings.append(self.finding(
                    cli, line,
                    f"{MAPPING_NAME} maps {flag} to "
                    f"{CONFIG_CLASS}.{field_name}, which does not "
                    f"exist"))
            if flag not in flags:
                findings.append(self.finding(
                    cli, line,
                    f"{MAPPING_NAME} lists {flag} but no add_argument "
                    f"declares it"))

        mapped_fields = {field for field, _line in mapping.values()}
        reads = _attribute_reads(sources, config)
        for field_name, line in sorted(fields.items(),
                                       key=lambda kv: kv[1]):
            if field_name not in reads:
                findings.append(self.finding(
                    config, line,
                    f"{CONFIG_CLASS}.{field_name} is never read outside "
                    f"{CONFIG_MODULE}; delete the dead knob or wire it "
                    f"up"))
            if field_name in mapped_fields:
                continue
            if config.has_pragma(line, self.pragma):
                continue
            findings.append(self.finding(
                config, line,
                f"{CONFIG_CLASS}.{field_name} is unreachable from the "
                f"CLI; add it to {MAPPING_NAME} or mark the field "
                f"`# lint: internal (reason)`"))
        return findings
