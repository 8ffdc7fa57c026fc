"""Static lock-discipline pass: rules CC01..CC05 (stdlib ``ast`` only).

PR 2's linter guards the *measurement* discipline; this pass guards the
*concurrency* discipline that every answer has depended on since the
service layer landed: a latched buffer pool, a group-committed WAL, a
shared cache and metrics registry, and a multi-threaded scatter-gather
router. The pass catalogs every lock-like object under the analyzed
paths (``threading.Lock``/``RLock``/``Condition``, :class:`Latch`,
:class:`TrackedLock`/:class:`TrackedCondition`), reconstructs where each
is held from ``with``-statement nesting, propagates held-sets through
the project call graph, and reports:

* **CC01** -- lock-order inversion: the global acquisition graph (an
  edge A->B whenever B is acquired while A is held, including through
  calls) contains a cycle. Two threads walking the cycle from different
  entry points can deadlock even if no single run ever has.
* **CC02** -- a blocking operation (``os.fsync``, socket
  send/recv/connect/accept, ``subprocess``, ``sleep``, ``join``) while
  holding a lock or latch: every other thread needing that lock stalls
  for the I/O's duration. Intentional cases (the WAL's rotation fsync)
  carry a justified pragma.
* **CC03** -- lockset violation: a field of a lock-owning class is
  mutated in two or more methods, but at least one mutation site holds
  none of the class's own locks. Two threads in those methods race.
  ``__init__`` is exempt (construction precedes sharing).
* **CC04** -- a lock used outside a ``with`` block: bare ``.acquire()``
  calls, and bare ``.release()`` calls outside a ``finally``, leak the
  lock on any exception between them. Every lock-like receiver counts,
  the storage :class:`~repro.storage.latch.Latch` included.
* **CC05** -- an unowned thread: ``threading.Thread(...)`` started with
  neither ``daemon=True`` nor any ``.join()`` in the creating function
  or class. Such a thread can outlive shutdown and keep the process (or
  a test run) alive.

Suppression uses the same pragma syntax and justification requirement
as the RP rules (see :mod:`repro.analysis.lint`): append
``# repro-lint: disable=CCxx -- <why this is safe>`` to the offending
line; a pragma without the justification is itself reported (RP00).

Scope and honesty about limits: the call graph is resolved by name --
``self.m()`` to the same class, bare ``f()`` to the same module, and
``obj.m()`` to project classes defining ``m`` only when at most
:data:`_MAX_METHOD_CANDIDATES` classes do (wider names like ``close``
or ``stats`` are skipped rather than smeared across the codebase).
Held-sets for underscore-prefixed methods are inferred as the
intersection over their intra-class call sites, so a helper only ever
called under the class lock (``WriteAheadLog._append``) analyzes as
lock-held. Propagation is a fixpoint, so arbitrarily deep same-class
chains are covered; what is *not* covered is dynamic dispatch through
stored callables. The runtime sanitizer (:mod:`repro.sanitize`) is the
complement that sees exactly what executes.

The lock primitives themselves (``repro/storage/latch.py``,
``repro/sanitize.py``) are exempt: they *implement* acquire/release and
mutate their own bookkeeping under manually-managed locks by
construction.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import LINT_RULES, Finding, error
from repro.analysis.lint import _collect_disables, iter_python_files

CC01 = LINT_RULES.register("CC01", "lock-order inversion (acquisition-graph cycle)")
CC02 = LINT_RULES.register("CC02", "blocking call while holding a lock/latch")
CC03 = LINT_RULES.register("CC03", "field of a lock-owning class mutated outside its lock")
CC04 = LINT_RULES.register("CC04", "lock acquire/release outside a with block / finally")
CC05 = LINT_RULES.register("CC05", "thread started without daemon flag or join path")

#: Callables whose result is a lock-like object (RHS of ``self.x = ...``).
_LOCK_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Latch",
        "TrackedLock",
        "TrackedCondition",
        "make_lock",
        "make_condition",
    }
)

#: Attribute names treated as lock-like even without a cataloged factory.
_LOCKISH_FRAGMENTS = ("lock", "latch", "mutex", "gate", "sem")

#: Method/function names that block the calling thread (CC02). Chosen to
#: be specific to I/O and scheduling -- ``read``/``write``/``flush`` on
#: buffered files are deliberately absent (they hit the page cache, and
#: including them would drown the true syscall stalls in noise).
_BLOCKING_CALLS = frozenset(
    {
        "fsync",
        "fdatasync",
        "sleep",
        "join",
        "send",
        "sendall",
        "recv",
        "recv_into",
        "connect",
        "accept",
        "create_connection",
        "select",
        "readline",
    }
)

#: ``obj.m()`` propagates held-sets into ``m``'s acquisitions only when
#: at most this many project classes define ``m``.
_MAX_METHOD_CANDIDATES = 2

#: Files that implement the lock primitives (exempt): they necessarily
#: acquire/release manually.
_EXEMPT_SUFFIXES = ("repro/storage/latch.py", "repro/sanitize.py")


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_exempt(path: str) -> bool:
    p = _norm(path)
    return any(p.endswith(suffix) for suffix in _EXEMPT_SUFFIXES)


def _chain_tail(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "?")
    return ".".join(reversed(parts))


def _lockish_name(name: str) -> bool:
    low = name.lower()
    return any(fragment in low for fragment in _LOCKISH_FRAGMENTS)


# ----------------------------------------------------------------------
# Collected facts
# ----------------------------------------------------------------------
class _Site:
    """One interesting source location inside a method."""

    __slots__ = ("lineno", "held", "data")

    def __init__(self, lineno: int, held: Tuple[str, ...], data: object) -> None:
        self.lineno = lineno
        self.held = held  # mix of lock nodes and ("call", key) placeholders
        self.data = data


class _MethodInfo:
    def __init__(self, key: str, path: str, class_name: Optional[str]) -> None:
        self.key = key  # "Class.method" or "module.function"
        self.path = path
        self.class_name = class_name
        self.acquired: List[_Site] = []  # data = lock node acquired
        self.calls: List[_Site] = []  # data = callee descriptor
        self.blocking: List[_Site] = []  # data = rendered call text
        self.mutations: List[_Site] = []  # data = field name
        self.cc04: List[Tuple[int, str]] = []  # (lineno, detail)
        self.threads: List[Tuple[int, bool]] = []  # (lineno, daemon_flag)
        self.has_join = False


class _ClassInfo:
    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        self.locks: Dict[str, int] = {}  # attr -> lineno of assignment
        self.methods: Dict[str, _MethodInfo] = {}
        self.has_join = False


class _ModuleInfo:
    def __init__(self, path: str) -> None:
        self.path = path
        self.classes: Dict[str, _ClassInfo] = {}
        self.functions: Dict[str, _MethodInfo] = {}
        self.module_locks: Dict[str, int] = {}  # NAME -> lineno


# ----------------------------------------------------------------------
# Per-file collection
# ----------------------------------------------------------------------
def _lock_factory_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return name in _LOCK_FACTORIES


def _collect_class_locks(cls: ast.ClassDef, info: _ClassInfo) -> None:
    """Find ``self.X = <lock factory>()`` anywhere in the class body."""
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not _lock_factory_call(node.value):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                info.locks.setdefault(target.attr, node.lineno)


class _Collector:
    """Walk one parsed module, producing a :class:`_ModuleInfo`."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.path = path
        self.module = _ModuleInfo(path)
        self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                cinfo = _ClassInfo(stmt.name, self.path)
                _collect_class_locks(stmt, cinfo)
                self.module.classes[stmt.name] = cinfo
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        minfo = _MethodInfo(
                            f"{stmt.name}.{sub.name}", self.path, stmt.name
                        )
                        self._walk_function(sub, minfo, cinfo)
                        cinfo.methods[sub.name] = minfo
                        cinfo.has_join = cinfo.has_join or minfo.has_join
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                minfo = _MethodInfo(stmt.name, self.path, None)
                self._walk_function(stmt, minfo, None)
                self.module.functions[stmt.name] = minfo
            elif isinstance(stmt, ast.Assign) and _lock_factory_call(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module.module_locks[target.id] = stmt.lineno

    # -- lock-expression resolution ------------------------------------
    def _resolve_lock_expr(
        self, expr: ast.AST, cinfo: Optional[_ClassInfo]
    ) -> Optional[str]:
        """A ``with``-item (or acquire receiver) -> lock node, or None."""
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                if cinfo is not None and attr in cinfo.locks:
                    return f"{cinfo.name}.{attr}"
                if _lockish_name(attr):
                    owner = cinfo.name if cinfo is not None else "?"
                    return f"{owner}.{attr}"
                return None
            if _lockish_name(attr):
                return f"@{attr}"  # foreign receiver: resolve globally later
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.module.module_locks:
                base = os.path.basename(self.path).rsplit(".", 1)[0]
                return f"{base}:{expr.id}"
            if _lockish_name(expr.id):
                return f"@{expr.id}"
            return None
        return None

    def _callee_descriptor(self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """(kind, name): kind 'self'|'name'|'attr' for later resolution."""
        func = call.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return ("self", func.attr)
            return ("attr", func.attr)
        if isinstance(func, ast.Name):
            return ("name", func.id)
        return None

    # -- function walking ----------------------------------------------
    def _walk_function(
        self,
        func: ast.AST,
        minfo: _MethodInfo,
        cinfo: Optional[_ClassInfo],
    ) -> None:
        self._walk_body(func.body, (), False, minfo, cinfo)

    def _walk_body(
        self,
        stmts: Sequence[ast.stmt],
        held: Tuple[str, ...],
        in_finally: bool,
        minfo: _MethodInfo,
        cinfo: Optional[_ClassInfo],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    self._scan_expr(item.context_expr, inner, in_finally, minfo, cinfo)
                    node = self._with_item_lock(item.context_expr, cinfo)
                    if node is not None:
                        minfo.acquired.append(_Site(stmt.lineno, inner, node))
                        inner = inner + (node,)
                self._walk_body(stmt.body, inner, in_finally, minfo, cinfo)
            elif isinstance(stmt, ast.Try):
                self._walk_body(stmt.body, held, in_finally, minfo, cinfo)
                for handler in stmt.handlers:
                    self._walk_body(handler.body, held, in_finally, minfo, cinfo)
                self._walk_body(stmt.orelse, held, in_finally, minfo, cinfo)
                self._walk_body(stmt.finalbody, held, True, minfo, cinfo)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function runs later on an unknown thread with
                # an unknown held-set: analyze its body from a clean
                # slate (its calls/mutations still count for the class).
                self._walk_body(stmt.body, (), False, minfo, cinfo)
            elif isinstance(stmt, ast.ClassDef):
                continue
            else:
                if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            minfo.mutations.append(
                                _Site(stmt.lineno, held, target.attr)
                            )
                for name, value in ast.iter_fields(stmt):
                    if isinstance(value, ast.expr):
                        self._scan_expr(value, held, in_finally, minfo, cinfo)
                    elif isinstance(value, list):
                        for element in value:
                            if isinstance(element, ast.stmt):
                                self._walk_body(
                                    [element], held, in_finally, minfo, cinfo
                                )
                            elif isinstance(element, ast.expr):
                                self._scan_expr(
                                    element, held, in_finally, minfo, cinfo
                                )

    def _with_item_lock(
        self, expr: ast.AST, cinfo: Optional[_ClassInfo]
    ) -> Optional[str]:
        """Lock node for a with-item; calls become placeholders so a
        context manager that internally takes a lock (the engine's
        ``_attributed``) still contributes its lock to the held-set."""
        direct = self._resolve_lock_expr(expr, cinfo)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Call):
            desc = self._callee_descriptor(expr)
            if desc is not None and desc[0] == "self" and cinfo is not None:
                return f"call:{cinfo.name}.{desc[1]}"
        return None

    def _scan_expr(
        self,
        expr: ast.AST,
        held: Tuple[str, ...],
        in_finally: bool,
        minfo: _MethodInfo,
        cinfo: Optional[_ClassInfo],
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name == "join":
                minfo.has_join = True
            # CC05: thread construction
            if name == "Thread":
                daemon = any(
                    kw.arg == "daemon"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
                minfo.threads.append((node.lineno, daemon))
            # CC04: manual acquire/release on a lock-like receiver
            if (
                isinstance(func, ast.Attribute)
                and name in ("acquire", "release")
                and _lockish_name(_chain_tail(func.value))
            ):
                if name == "acquire":
                    minfo.cc04.append(
                        (
                            node.lineno,
                            f"`{_dotted(func)}()` -- hold the lock with "
                            f"`with` so it cannot leak on an exception",
                        )
                    )
                elif not in_finally:
                    minfo.cc04.append(
                        (
                            node.lineno,
                            f"`{_dotted(func)}()` outside a `finally` -- an "
                            f"exception before this line leaks the lock",
                        )
                    )
            # CC02: blocking call
            is_blocking = name in _BLOCKING_CALLS
            if isinstance(func, ast.Attribute):
                receiver = _dotted(func.value)
                if "subprocess" in receiver.split("."):
                    is_blocking = True
            if is_blocking and name == "join" and not isinstance(
                func, ast.Attribute
            ):
                is_blocking = False  # bare join() is str.join-like usage
            if is_blocking and name == "join" and isinstance(func, ast.Attribute):
                # ``", ".join(...)`` is string building, not scheduling:
                # only flag join on something that looks like a thread,
                # worker, pool, or process.
                tail = _chain_tail(func.value).lower()
                if not any(
                    fragment in tail
                    for fragment in ("thread", "worker", "proc", "pool", "w")
                ):
                    is_blocking = False
            if is_blocking:
                minfo.blocking.append(
                    _Site(node.lineno, held, f"{_dotted(func)}(...)")
                )
            # Call-graph site (for held-set and edge propagation)
            desc = self._callee_descriptor(node)
            if desc is not None:
                minfo.calls.append(_Site(node.lineno, held, desc))


# ----------------------------------------------------------------------
# Whole-program analysis
# ----------------------------------------------------------------------
class _Program:
    def __init__(self, modules: List[_ModuleInfo]) -> None:
        self.modules = modules
        self.methods: Dict[str, _MethodInfo] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        #: method name -> keys of "Class.method" across the project
        self.by_method_name: Dict[str, List[str]] = {}
        #: lock attr name -> owning class names (for ``@attr`` nodes)
        self.lock_attr_owners: Dict[str, List[str]] = {}
        for module in modules:
            for fn in module.functions.values():
                self.methods[fn.key] = fn
            for cls in module.classes.values():
                self.classes[cls.name] = cls
                for mname, minfo in cls.methods.items():
                    self.methods[minfo.key] = minfo
                    self.by_method_name.setdefault(mname, []).append(minfo.key)
                for attr in cls.locks:
                    self.lock_attr_owners.setdefault(attr, []).append(cls.name)
        self.entry: Dict[str, frozenset] = {}
        self.acq: Dict[str, Set[str]] = {}
        self._compute_acq_sets()
        self._compute_entry_locksets()

    # -- resolution ----------------------------------------------------
    def resolve_node(self, node: str) -> Optional[str]:
        """Normalize a lock node; ``@attr`` resolves to ``Class.attr``
        when exactly one cataloged class owns ``attr``."""
        if node.startswith("@"):
            attr = node[1:]
            owners = self.lock_attr_owners.get(attr, [])
            if len(owners) == 1:
                return f"{owners[0]}.{attr}"
            return f"?.{attr}"
        return node

    def resolve_call(self, caller: _MethodInfo, desc: Tuple[str, str]) -> List[str]:
        kind, name = desc
        if kind == "self" and caller.class_name is not None:
            key = f"{caller.class_name}.{name}"
            return [key] if key in self.methods else []
        if kind == "name":
            for module in self.modules:
                if module.path == caller.path and name in module.functions:
                    return [name]
            return []
        # attribute call on a foreign object: by method name, bounded
        candidates = self.by_method_name.get(name, [])
        if 0 < len(candidates) <= _MAX_METHOD_CANDIDATES:
            return list(candidates)
        return []

    # -- transitive acquisition sets -----------------------------------
    def _compute_acq_sets(self) -> None:
        for key, minfo in self.methods.items():
            direct = set()
            for site in minfo.acquired:
                if not str(site.data).startswith("call:"):
                    resolved = self.resolve_node(str(site.data))
                    if resolved is not None:
                        direct.add(resolved)
            self.acq[key] = direct
        changed = True
        iterations = 0
        while changed and iterations < 20:
            changed = False
            iterations += 1
            for key, minfo in self.methods.items():
                current = self.acq[key]
                before = len(current)
                for site in minfo.calls:
                    for callee in self.resolve_call(minfo, site.data):
                        current |= self.acq.get(callee, set())
                for site in minfo.acquired:
                    data = str(site.data)
                    if data.startswith("call:"):
                        current |= self.acq.get(data[5:], set())
                if len(current) != before:
                    changed = True

    # -- inherited entry locksets --------------------------------------
    def _compute_entry_locksets(self) -> None:
        """For underscore methods: ∩ of held-sets at intra-class call
        sites, iterated to fixpoint (monotone: entries only grow)."""
        for key in self.methods:
            self.entry[key] = frozenset()
        for _ in range(10):
            changed = False
            for key, minfo in self.methods.items():
                cls = minfo.class_name
                if cls is None:
                    continue
                mname = key.rsplit(".", 1)[1]
                if not mname.startswith("_") or mname.startswith("__"):
                    continue
                callers: List[frozenset] = []
                for other in self.classes.get(cls, _ClassInfo(cls, "")).methods.values():
                    for site in other.calls:
                        kind, name = site.data
                        if kind == "self" and name == mname:
                            callers.append(
                                frozenset(self.expand_held(other, site.held))
                                | self.entry[other.key]
                            )
                if not callers:
                    continue
                combined = frozenset.intersection(*callers)
                if combined != self.entry[key]:
                    self.entry[key] = combined
                    changed = True
            if not changed:
                break

    # -- held-set expansion --------------------------------------------
    def expand_held(
        self, minfo: _MethodInfo, held: Tuple[str, ...]
    ) -> Set[str]:
        """Concrete lock nodes for a recorded held tuple: resolve
        ``@attr`` tokens and expand ``call:`` context-manager tokens to
        the callee's transitive acquisitions."""
        out: Set[str] = set()
        for token in held:
            if token.startswith("call:"):
                out |= self.acq.get(token[5:], set())
            else:
                resolved = self.resolve_node(token)
                if resolved is not None:
                    out.add(resolved)
        return out

    def full_held(self, minfo: _MethodInfo, held: Tuple[str, ...]) -> Set[str]:
        return self.expand_held(minfo, held) | set(self.entry.get(minfo.key, ()))


# ----------------------------------------------------------------------
# Rule evaluation
# ----------------------------------------------------------------------
def _class_lock_nodes(cls: _ClassInfo) -> Set[str]:
    return {f"{cls.name}.{attr}" for attr in cls.locks}


def _evaluate(program: _Program) -> List[Tuple[str, str, int, str]]:
    """All raw findings as ``(rule, path, lineno, detail)``."""
    raw: List[Tuple[str, str, int, str]] = []
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}  # edge -> provenance

    def add_edge(a: str, b: str, path: str, lineno: int) -> None:
        if a == b or a.startswith("?.") or b.startswith("?."):
            return  # reentrancy / unresolvable foreign locks
        edges.setdefault((a, b), (path, lineno))

    for minfo in program.methods.values():
        if _is_exempt(minfo.path):
            continue
        # CC01 edges: direct with-nesting plus call propagation
        for site in minfo.acquired:
            data = str(site.data)
            held = program.full_held(minfo, site.held)
            targets = (
                program.acq.get(data[5:], set())
                if data.startswith("call:")
                else {program.resolve_node(data)}
            )
            for target in targets:
                if target is None:
                    continue
                for holder in held:
                    add_edge(holder, target, minfo.path, site.lineno)
        for site in minfo.calls:
            held = program.full_held(minfo, site.held)
            if not held:
                continue
            for callee in program.resolve_call(minfo, site.data):
                for target in program.acq.get(callee, set()):
                    for holder in held:
                        add_edge(holder, target, minfo.path, site.lineno)
        # CC02: blocking call with any lock held
        for site in minfo.blocking:
            held = sorted(program.full_held(minfo, site.held))
            if held:
                raw.append(
                    (
                        CC02,
                        minfo.path,
                        site.lineno,
                        f"{site.data} blocks while holding "
                        f"{', '.join(held)}; every waiter on "
                        f"{'that lock' if len(held) == 1 else 'those locks'} "
                        f"stalls for the I/O",
                    )
                )
        # CC04
        for lineno, detail in minfo.cc04:
            raw.append((CC04, minfo.path, lineno, detail))
        # CC05
        for lineno, daemon in minfo.threads:
            if daemon or minfo.has_join:
                continue
            cls = (
                program.classes.get(minfo.class_name)
                if minfo.class_name is not None
                else None
            )
            if cls is not None and cls.has_join:
                continue
            raw.append(
                (
                    CC05,
                    minfo.path,
                    lineno,
                    "thread started with neither daemon=True nor a join "
                    "path in its owner; it can outlive shutdown",
                )
            )

    # CC03: per lock-owning class
    for cls in program.classes.values():
        if _is_exempt(cls.path) or not cls.locks:
            continue
        own = _class_lock_nodes(cls)
        by_field: Dict[str, List[Tuple[str, _Site]]] = {}
        for mname, minfo in cls.methods.items():
            if mname == "__init__":
                continue
            for site in minfo.mutations:
                field = str(site.data)
                if field in cls.locks:
                    continue
                by_field.setdefault(field, []).append((mname, site))
        for field, sites in by_field.items():
            methods_mutating = {mname for mname, _ in sites}
            if len(methods_mutating) < 2:
                continue
            for mname, site in sites:
                minfo = cls.methods[mname]
                held = program.full_held(minfo, site.held)
                if held & own:
                    continue
                raw.append(
                    (
                        CC03,
                        cls.path,
                        site.lineno,
                        f"`self.{field}` is written by "
                        f"{len(methods_mutating)} methods of lock-owning "
                        f"class {cls.name} but this write holds none of "
                        f"{', '.join(sorted(own))}; concurrent callers race",
                    )
                )

    # CC01: cycles over the completed edge graph
    raw.extend(_find_cycles(edges))
    return raw


def _find_cycles(
    edges: Dict[Tuple[str, str], Tuple[str, int]]
) -> List[Tuple[str, str, int, str]]:
    """One CC01 finding per distinct cycle (reported at the edge that
    lexicographically starts the cycle)."""
    succ: Dict[str, List[str]] = {}
    for (a, b) in edges:
        succ.setdefault(a, []).append(b)

    def path_between(start: str, goal: str) -> Optional[List[str]]:
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in sorted(succ.get(node, ()), reverse=True):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    findings: List[Tuple[str, str, int, str]] = []
    reported: Set[frozenset] = set()
    for (a, b) in sorted(edges):
        back = path_between(b, a)
        if back is None:
            continue
        cycle = [a] + back  # a -> b -> ... -> a
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        legs = []
        for x, y in zip(cycle, cycle[1:] + [cycle[0]]):
            prov = edges.get((x, y))
            where = f" ({_norm(prov[0])}:{prov[1]})" if prov else ""
            legs.append(f"{x} -> {y}{where}")
        path, lineno = edges[(a, b)]
        findings.append(
            (
                CC01,
                path,
                lineno,
                "lock-order inversion: " + "; ".join(legs) + "; two threads "
                "entering this cycle from different edges can deadlock",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def lint_concurrency_sources(sources: Dict[str, str]) -> List[Finding]:
    """Run the whole-program pass over ``{path: source}``."""
    modules: List[_ModuleInfo] = []
    findings: List[Finding] = []
    parsed: Dict[str, str] = {}
    for path, source in sources.items():
        if _is_exempt(path):
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                error("RP00", exc.lineno, path, f"file does not parse: {exc.msg}")
            )
            continue
        modules.append(_Collector(tree, path).module)
        parsed[path] = source
    program = _Program(modules)
    raw_by_path: Dict[str, List[Tuple[str, int, str]]] = {}
    for rule, path, lineno, detail in _evaluate(program):
        raw_by_path.setdefault(path, []).append((rule, lineno, detail))
    for path, source in parsed.items():
        raw = raw_by_path.get(path, [])
        disabled, extra = _collect_disables(source, raw, path)
        findings.extend(extra)
        for rule, lineno, detail in raw:
            if rule in disabled.get(lineno, ()):
                continue
            findings.append(error(rule, lineno, path, detail))
    return findings


def lint_concurrency_source(source: str, path: str = "<string>") -> List[Finding]:
    """Single-source convenience wrapper (fixtures and tests)."""
    return lint_concurrency_sources({path: source})


def lint_concurrency_paths(paths: Iterable[str]) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one program."""
    sources: Dict[str, str] = {}
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as fh:
            sources[filename] = fh.read()
    return lint_concurrency_sources(sources)
