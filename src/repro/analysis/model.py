"""The shared whole-program model the graph-level lint rules run on.

The per-file rules of PR 5 see one AST at a time; the concurrency
rules added here (``lock-order``, ``api-blocking``,
``resource-lifecycle``) need a *project* view: which classes exist,
which of their attributes are locks, what type an attribute holds
(``self._pool = WorkerPool(...)``), and which property is a thin alias
for a private attribute (``SegmentedIndex.commit_lock`` returning
``self._commit_lock``).  :class:`ProjectModel` builds that view in one pass
over the scanned sources; :mod:`repro.analysis.callgraph` layers the
conservative call graph and lock-acquisition contexts on top.

Type inference is deliberately shallow and conservative: an attribute
gets a type only when it is assigned a direct constructor call (or a
list comprehension of one), and anything unresolvable stays unknown —
the rules never guess.  That is enough to resolve the cross-object
edges that matter here, like ``WorkerHandle._cond`` held while a
``CircuitBreaker._lock`` method runs, without a real type system.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.source import SourceFile

#: Attribute names treated as lock-ish even without a resolvable
#: constructor — mirrors the ``lock-discipline`` rule's heuristic.
LOCKISH = re.compile(r"lock|cond|mutex", re.IGNORECASE)

#: ``threading`` constructors -> lock kind.  Kind "lock" is
#: non-reentrant; "rlock" and "condition" (whose default inner lock is
#: an RLock) may be re-acquired by the holding thread.
_LOCK_KINDS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
}

KIND_UNKNOWN = "unknown"

#: Methods whose presence marks a class as releasing its resources.
RELEASE_METHODS = frozenset((
    "close", "shutdown", "stop", "terminate", "kill", "release",
    "disconnect", "__exit__", "__del__", "clear",
))


@dataclass(frozen=True, slots=True)
class TypeRef:
    """A shallow inferred type.

    ``kind`` is ``"instance"`` (name = class name, unresolved string),
    ``"list"`` (name = element class name), or ``"lock"`` (name = the
    lock kind from :data:`_LOCK_KINDS`).
    """

    kind: str
    name: str


@dataclass(slots=True)
class ClassModel:
    """One class of the scanned corpus."""

    module: str
    name: str
    lineno: int
    source: SourceFile
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    #: method name -> def node (later defs win, like runtime).
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attr -> shallow type of ``self.attr = ...`` assignments.
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    #: attr -> lock kind for lock-typed / lock-ish attributes.
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: property name -> attribute it trivially returns (``self._x``).
    property_aliases: dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def has_release_method(self) -> bool:
        return any(name in RELEASE_METHODS for name in self.methods)


@dataclass(slots=True)
class ModuleModel:
    """One module: its classes, top-level functions, and imports."""

    name: str
    source: SourceFile
    classes: dict[str, ClassModel] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: local name -> dotted origin ("repro.sharding.pool" or
    #: "repro.sharding.pool.WorkerPool") for import resolution.
    imports: dict[str, str] = field(default_factory=dict)


def _callee_class_name(call: ast.Call) -> str | None:
    """The class a constructor-ish call would instantiate, by name.

    ``WorkerPool(...)`` -> ``WorkerPool``; ``Telemetry.from_config(...)``
    -> ``Telemetry`` (classmethod-factory heuristic: a capitalized
    receiver name).  Method calls on instances resolve to ``None``.
    """
    func = call.func
    if isinstance(func, ast.Name):
        if func.id and func.id[0].isupper():
            return func.id
        return None
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id and func.value.id[0].isupper()):
        return func.value.id
    return None


def _lock_kind_of(call: ast.Call) -> str | None:
    """The lock kind when ``call`` constructs a threading primitive."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return _LOCK_KINDS.get(name or "")


def infer_value_type(value: ast.expr) -> TypeRef | None:
    """Shallow type of an assignment's right-hand side."""
    if isinstance(value, ast.BoolOp):
        # ``telemetry or Telemetry.from_config(...)``: any resolvable
        # operand names the type (they should agree; last wins).
        resolved = None
        for operand in value.values:
            inferred = infer_value_type(operand)
            if inferred is not None:
                resolved = inferred
        return resolved
    if isinstance(value, ast.Call):
        kind = _lock_kind_of(value)
        if kind is not None:
            return TypeRef("lock", kind)
        cls = _callee_class_name(value)
        if cls is not None:
            return TypeRef("instance", cls)
        return None
    if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        elt = infer_value_type(value.elt)
        if elt is not None and elt.kind == "instance":
            return TypeRef("list", elt.name)
        return None
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        for elt in value.elts:
            inferred = infer_value_type(elt)
            if inferred is not None and inferred.kind == "instance":
                return TypeRef("list", inferred.name)
        return None
    return None


def infer_annotation_type(annotation: ast.expr | None) -> TypeRef | None:
    """Shallow type from an annotation: ``Cls`` or ``list[Cls]``."""
    if isinstance(annotation, ast.Name):
        if annotation.id and annotation.id[0].isupper():
            return TypeRef("instance", annotation.id)
        return None
    if (isinstance(annotation, ast.Subscript)
            and isinstance(annotation.value, ast.Name)
            and annotation.value.id in ("list", "List", "tuple", "Tuple")
            and isinstance(annotation.slice, ast.Name)
            and annotation.slice.id and annotation.slice.id[0].isupper()):
        return TypeRef("list", annotation.slice.id)
    return None


def _self_attr_target(target: ast.expr) -> str | None:
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _harvest_attr_types(model: ClassModel) -> None:
    for method in model.methods.values():
        for node in ast.walk(method):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if value is None:
                continue
            if (isinstance(node, ast.Assign) and len(targets) == 1
                    and isinstance(targets[0], ast.Tuple)
                    and isinstance(value, ast.Tuple)
                    and len(targets[0].elts) == len(value.elts)):
                pairs = list(zip(targets[0].elts, value.elts))
            else:
                pairs = [(t, value) for t in targets]
            annotated = (infer_annotation_type(node.annotation)
                         if isinstance(node, ast.AnnAssign) else None)
            for target, rhs in pairs:
                attr = _self_attr_target(target)
                if attr is None:
                    continue
                inferred = infer_value_type(rhs) or annotated
                if inferred is None:
                    continue
                if attr not in model.attr_types:
                    model.attr_types[attr] = inferred
                if inferred.kind == "lock":
                    model.lock_attrs.setdefault(attr, inferred.name)


def _harvest_property_aliases(model: ClassModel) -> None:
    for name, method in model.methods.items():
        if not any(isinstance(d, ast.Name) and d.id == "property"
                   for d in method.decorator_list):
            continue
        body = [stmt for stmt in method.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        attr = _self_attr_target(body[0].value) \
            if body[0].value is not None else None
        if attr is not None:
            model.property_aliases[name] = attr


def _harvest_lockish_withs(model: ClassModel) -> None:
    """``with self.X`` over a lockish name registers X even when its
    constructor was not resolvable (assigned conditionally, injected)."""
    for method in model.methods.values():
        for node in ast.walk(method):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                attr = _self_attr_target(item.context_expr)
                if attr is not None and LOCKISH.search(attr):
                    model.lock_attrs.setdefault(attr, KIND_UNKNOWN)


def _build_class(source: SourceFile, node: ast.ClassDef) -> ClassModel:
    model = ClassModel(module=source.module, name=node.name,
                       lineno=node.lineno, source=source, node=node)
    model.bases = tuple(
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute)))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(stmt, ast.FunctionDef):
                model.methods[stmt.name] = stmt
    _harvest_attr_types(model)
    _harvest_property_aliases(model)
    _harvest_lockish_withs(model)
    return model


def _harvest_imports(module: ModuleModel) -> None:
    for node in ast.walk(module.source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                module.imports[local] = f"{node.module}.{alias.name}"


class ProjectModel:
    """Classes, modules, and shallow attribute types of one lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleModel] = {}
        self.classes_by_name: dict[str, list[ClassModel]] = {}

    @classmethod
    def build(cls, sources: Sequence[SourceFile]) -> "ProjectModel":
        project = cls()
        for source in sources:
            module = ModuleModel(name=source.module, source=source)
            _harvest_imports(module)
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    class_model = _build_class(source, node)
                    module.classes[node.name] = class_model
                    project.classes_by_name.setdefault(
                        node.name, []).append(class_model)
                elif isinstance(node, ast.FunctionDef):
                    module.functions[node.name] = node
            project.modules[source.module] = module
        return project

    def resolve_class(self, name: str,
                      from_module: str | None = None) -> ClassModel | None:
        """The class ``name`` refers to from ``from_module``.

        Same module first, then the module's ``from X import name``,
        then a project-unique class of that simple name; ambiguity
        resolves to None (the rules never guess).
        """
        if from_module is not None:
            module = self.modules.get(from_module)
            if module is not None:
                local = module.classes.get(name)
                if local is not None:
                    return local
                origin = module.imports.get(name)
                if origin is not None and "." in origin:
                    target_module, _, target_name = origin.rpartition(".")
                    imported = self.modules.get(target_module)
                    if imported is not None:
                        found = imported.classes.get(target_name)
                        if found is not None:
                            return found
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_method(self, cls: ClassModel, name: str
                       ) -> tuple[ClassModel, ast.FunctionDef] | None:
        """Find ``name`` on ``cls`` or (one level of) its bases."""
        method = cls.methods.get(name)
        if method is not None:
            return cls, method
        for base_name in cls.bases:
            base = self.resolve_class(base_name, cls.module)
            if base is not None:
                method = base.methods.get(name)
                if method is not None:
                    return base, method
        return None

    def iter_classes(self):
        for module_name in sorted(self.modules):
            module = self.modules[module_name]
            for class_name in sorted(module.classes):
                yield module.classes[class_name]
