"""Project-specific AST lint pass (stdlib ``ast`` only, no dependencies).

The paper's measurements are only as honest as the code discipline
underneath them: a single traversal that reads pages via the
:class:`~repro.storage.disk.DiskManager` instead of the buffer pool
silently deflates the reported disk accesses, and a counter bumped from
the wrong layer mis-attributes work between structures. These rules are
not general style checks -- each one guards a measurement or concurrency
invariant of this repository:

* **RP01** -- no ``disk.read(...)``/``disk.write(...)`` calls and no
  ``disk._pages`` access outside ``repro.storage``. Page traffic on
  measured paths must flow through the :class:`BufferPool`; the
  sanctioned uncounted bypass is ``disk.peek`` (instrumentation only).
* **RP03** -- :class:`MetricsCounters` fields may only be mutated by
  their owning layer: the I/O fields (``disk_reads``, ``disk_writes``,
  ``buffer_hits``) in ``repro.storage``, the comparison fields
  (``segment_comps``, ``bbox_comps``) in ``repro.storage`` or
  ``repro.core`` (the measurement instrument itself). Anywhere else,
  use :meth:`MetricsCounters.merge`. The counter *names* are governed
  too: a counter-name string literal anywhere but
  ``repro/metric_names.py`` (docstrings excepted) is flagged -- every
  reporting layer must import the names, so one renamed counter cannot
  silently orphan a stats key.
* **RP04** -- no bare ``except:`` and no ``except Exception: pass``
  under ``src/``: swallowing arbitrary exceptions hides index
  corruption from the invariant checks.
* **RP05** -- no float literals in grid-coordinate positions in
  ``repro.core``: arguments of the locational-code functions and
  ``PMRBlock``, and operands of bitwise shifts/masks, must be integer
  expressions (a float silently truncates a Morton code).

Suppression: append ``# repro-lint: disable=RPxx -- <justification>`` to
the offending line. The justification is mandatory -- a disable without
one is itself reported (RP00).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import LINT_RULES, Finding, error
from repro.metric_names import COMP_FIELDS, COUNTER_FIELDS, DISK_ACCESSES, IO_FIELDS

RP00 = LINT_RULES.register("RP00", "lint disable pragma without a justification")
RP01 = LINT_RULES.register("RP01", "DiskManager access bypasses the buffer pool")
RP03 = LINT_RULES.register("RP03", "MetricsCounters field mutated outside its layer")
RP04 = LINT_RULES.register("RP04", "bare except / except Exception: pass")
RP05 = LINT_RULES.register("RP05", "float literal in a grid-coordinate position")

_IO_FIELDS = frozenset(IO_FIELDS)
_COMP_FIELDS = frozenset(COMP_FIELDS)
#: Names whose string spelling is reserved to ``repro/metric_names.py``.
_COUNTER_NAME_LITERALS = frozenset(COUNTER_FIELDS) | {DISK_ACCESSES}
_GRID_CALLS = frozenset(
    {
        "PMRBlock",
        "locational_code",
        "hilbert_index",
        "interleave",
        "deinterleave",
    }
)
_BITWISE_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{2}\d{2}(?:\s*,\s*[A-Z]{2}\d{2})*)"
    r"(?:\s*--\s*(\S.*))?"
)


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _dotted(node: ast.AST) -> str:
    """Render an attribute chain like ``self.ctx.disk`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "?")
    return ".".join(reversed(parts))


def _chain_tail(node: ast.AST) -> str:
    """Last identifier of an expression chain, lowercased ('' if opaque)."""
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    if isinstance(node, ast.Name):
        return node.id.lower()
    return ""


class _Scope:
    """Which rule domains apply to the file being linted."""

    def __init__(self, path: str) -> None:
        p = _norm(path)
        self.in_storage = "/repro/storage/" in p or p.endswith("repro/storage")
        self.in_core = "/repro/core/" in p
        self.is_metric_names = p.endswith("repro/metric_names.py")


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, scope: _Scope) -> None:
        self.path = path
        self.scope = scope
        self.docstrings: Set[int] = set()  # id() of docstring Constants
        self.raw: List[Tuple[str, int, str]] = []  # (rule, line, detail)

    def _flag(self, rule: str, node: ast.AST, detail: str) -> None:
        self.raw.append((rule, getattr(node, "lineno", 0), detail))

    # -- RP01: page traffic outside the buffer pool --------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                not self.scope.in_storage
                and func.attr in ("read", "write")
                and _chain_tail(func.value) == "disk"
            ):
                self._flag(
                    RP01,
                    node,
                    f"`{_dotted(func)}(...)` bypasses the buffer pool; route "
                    f"page traffic through pool.get/put or use disk.peek for "
                    f"uncounted instrumentation",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.scope.in_storage
            and node.attr == "_pages"
            and _chain_tail(node.value) == "disk"
        ):
            self._flag(
                RP01,
                node,
                f"`{_dotted(node)}` reads raw disk state; use disk.peek "
                f"(uncounted) or the buffer pool (counted)",
            )
        self.generic_visit(node)

    # -- RP03: counter-field mutation ----------------------------------
    def _check_counter_target(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        field = target.attr
        if field not in _IO_FIELDS and field not in _COMP_FIELDS:
            return
        owner = target.value
        owner_tail = _chain_tail(owner)
        if "counter" not in owner_tail and not (
            self.scope.in_storage and owner_tail == "self"
        ):
            return
        if self.scope.in_storage:
            return
        if field in _COMP_FIELDS and self.scope.in_core:
            return
        layer = (
            "repro.storage"
            if field in _IO_FIELDS
            else "repro.storage or repro.core"
        )
        self._flag(
            RP03,
            target,
            f"`{_dotted(target)}` is owned by {layer}; merge a scratch "
            f"MetricsCounters instead of mutating fields directly",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_counter_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_counter_target(node.target)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            not self.scope.is_metric_names
            and isinstance(node.value, str)
            and node.value in _COUNTER_NAME_LITERALS
            and id(node) not in self.docstrings
        ):
            self._flag(
                RP03,
                node,
                f"counter name {node.value!r} spelled as a string literal; "
                f"import the constant from repro.metric_names so a rename "
                f"cannot orphan this key",
            )
        self.generic_visit(node)

    # -- RP04: exception swallowing ------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(RP04, node, "bare `except:` swallows SystemExit and bugs alike")
        elif self._is_broad(node.type) and self._is_trivial_body(node.body):
            self._flag(
                RP04,
                node,
                "`except Exception: pass` hides corruption from the checks; "
                "handle, log, or narrow it",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names: List[str] = []
        if isinstance(type_node, ast.Name):
            names = [type_node.id]
        elif isinstance(type_node, ast.Tuple):
            names = [e.id for e in type_node.elts if isinstance(e, ast.Name)]
        return any(n in ("Exception", "BaseException") for n in names)

    @staticmethod
    def _is_trivial_body(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    # -- RP05: grid-coordinate float literals (core/ only) -------------
    def _float_literal(self, node: ast.AST) -> Optional[ast.Constant]:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.operand, ast.Constant
        ) and isinstance(node.operand.value, float):
            return node.operand
        return None

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.scope.in_core and isinstance(node.op, _BITWISE_OPS):
            for side in (node.left, node.right):
                lit = self._float_literal(side)
                if lit is not None:
                    self._flag(
                        RP05,
                        node,
                        f"float literal {lit.value!r} as a bitwise operand; "
                        f"grid arithmetic must stay integral",
                    )
        self.generic_visit(node)

    def _check_grid_call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name not in _GRID_CALLS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            lit = self._float_literal(arg)
            if lit is not None:
                self._flag(
                    RP05,
                    node,
                    f"float literal {lit.value!r} passed to {name}(); "
                    f"grid coordinates and depths are integers",
                )


def _collect_disables(
    source: str, findings: List[Tuple[str, int, str]], path: str
) -> Tuple[Dict[int, Set[str]], List[Finding]]:
    """Parse per-line disable pragmas; unjustified ones become RP00."""
    disabled: Dict[int, Set[str]] = {}
    extra: List[Finding] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _DISABLE_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        if not m.group(2):
            extra.append(
                error(
                    RP00,
                    lineno,
                    path,
                    "disable pragma must carry a justification: "
                    "`# repro-lint: disable=RPxx -- <why this is safe>`",
                )
            )
            continue
        disabled.setdefault(lineno, set()).update(rules)
    return disabled, extra


def _docstring_constants(tree: ast.AST) -> Set[int]:
    """``id()`` of every docstring Constant (exempt from the name rule)."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one file's source text; returns findings (empty when clean)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [error(RP00, exc.lineno, path, f"file does not parse: {exc.msg}")]
    scope = _Scope(path)
    visitor = _Visitor(path, scope)
    visitor.docstrings = _docstring_constants(tree)
    visitor.visit(tree)
    if scope.in_core:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                visitor._check_grid_call(node)
    disabled, findings = _collect_disables(source, visitor.raw, path)
    for rule, lineno, detail in visitor.raw:
        if rule in disabled.get(lineno, ()):
            continue
        findings.append(error(rule, lineno, path, detail))
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                out.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".py")
                )
        elif path.endswith(".py"):
            out.append(path)
    return out


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        findings.extend(lint_file(filename))
    return findings
