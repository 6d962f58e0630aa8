"""Project-wide symbol table and call graph.

The per-file rules (DIT001–DIT006) see one AST at a time, which leaves an
interprocedural hole: a task body that reaches ``time.perf_counter()``
through two helper calls passes DIT001 clean.  This module closes it with
a whole-program view built from *every* parsed file in one lint run:

* a **symbol table** of module-qualified functions, methods and classes
  (``repro.core.engine.DITAEngine.search``), including nested functions
  and lambdas (as synthetic ``<lambda:L:C>`` symbols);
* a **class hierarchy** with linearised base resolution, so ``self.meth()``
  resolves through inheritance;
* lightweight **type inference** — parameter annotations, local
  ``x = Cls(...)`` assignments, ``self.attr = <typed expr>`` instance
  attributes, ``List[Cls]`` / ``Dict[K, Cls]`` element types — enough to
  resolve ``self.cluster.run_local(...)`` to the simulator's method;
* **call edges** (resolved callee, callable-argument escape edges, nested
  definitions) plus the list of *external* dotted calls each function
  makes (``time.time``, ``numpy.random.rand`` — the sinks DIT007 hunts);
* **submission sites**: every ``run_local`` / ``run_on_worker`` /
  ``register_rebuild`` / ``register_task_kind`` call together with the
  project callables passed to it — the simulated task bodies and the
  process backend's worker entry points.

Everything is plain ``ast``; resolution is best-effort and *sound for the
rules built on it* in the sense that an unresolvable call contributes no
edge (rules that need over-approximation, like DIT007, get it from the
callable-escape edges instead).  All tables iterate in sorted order so the
downstream findings are byte-stable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .context import FileContext

#: call names whose callable arguments are task bodies: the simulator's
#: submission methods, plus ``register_task_kind`` — the process backend's
#: worker entry points obey the same purity rules as inline task closures
SUBMIT_ATTRS = ("register_rebuild", "register_task_kind", "run_local", "run_on_worker")


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a POSIX-relative path.

    ``src/repro/core/engine.py`` -> ``repro.core.engine`` (the ``src``
    layout root is stripped); other paths map one-to-one
    (``benchmarks/common.py`` -> ``benchmarks.common``).  ``__init__.py``
    names the package itself.
    """
    parts = list(path.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class ExternalCall:
    """One call to a name that is not a project symbol."""

    name: str  #: fully-qualified dotted name (import-resolved)
    line: int
    col: int
    #: True when the call passes no positional args and no ``seed=`` kwarg
    #: (the DIT002/DIT007 OS-entropy test for ``default_rng()``)
    unseeded: bool = False


@dataclass
class FunctionInfo:
    """One function, method, nested function or lambda in the project."""

    qualname: str  #: e.g. ``repro.core.engine.DITAEngine.search``
    module: str
    path: str
    line: int
    node: ast.AST  #: FunctionDef / AsyncFunctionDef / Lambda
    class_qualname: Optional[str] = None  #: owning class, if a method
    #: resolved project callees (qualnames), including callable-argument
    #: escapes and nested definitions — the graph reachability walks
    calls: List[str] = field(default_factory=list)
    #: bare attribute names this function calls (``x.foo()`` -> ``foo``) —
    #: name-level sinks for rules that match methods without full types
    attr_calls: Set[str] = field(default_factory=set)
    #: calls to names outside the project (the DIT007 sink candidates)
    external_calls: List[ExternalCall] = field(default_factory=list)
    #: (site line, site col, submit attr, body qualname) for every project
    #: callable passed to a SUBMIT_ATTRS call *inside this function*
    submissions: List[Tuple[int, int, str, str]] = field(default_factory=list)
    #: param name -> class qualname (annotation-inferred)
    param_types: Dict[str, str] = field(default_factory=dict)

    @property
    def display(self) -> str:
        return self.qualname


@dataclass
class ClassInfo:
    """One class definition with its resolved bases and member types."""

    qualname: str
    module: str
    path: str
    line: int
    node: ast.ClassDef
    #: base classes as project qualnames (unresolvable bases are dropped)
    bases: List[str] = field(default_factory=list)
    #: method name -> FunctionInfo qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: instance attribute name -> inferred type (see ``TypeRef``)
    attr_types: Dict[str, "TypeRef"] = field(default_factory=dict)
    #: string-valued class attributes (``lineage_exempt = "..."`` opt-outs)
    str_attrs: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TypeRef:
    """An inferred type: a project class, optionally behind a container.

    ``container`` is ``""`` for a plain instance, ``"elem"`` when the
    value is a list/dict/tuple whose *elements* are instances (so a
    ``Subscript`` peels it off).
    """

    qualname: str
    container: str = ""

    def element(self) -> Optional["TypeRef"]:
        if self.container == "elem":
            return TypeRef(self.qualname)
        return None


class Project:
    """The whole-program view: symbols, hierarchy, and the call graph."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: List[FileContext] = sorted(contexts, key=lambda c: c.path)
        self.modules: Dict[str, FileContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: submissions made at module scope (``register_task_kind(...)`` at
        #: import time, the process backend's registration idiom) — keyed by
        #: a synthetic ``<module>`` FunctionInfo so findings can still point
        #: at a file/line
        self.module_submissions: List[Tuple[FunctionInfo, int, int, str, str]] = []
        #: per-module import table with relative imports resolved
        self._imports: Dict[str, Dict[str, str]] = {}
        self._mro_cache: Dict[str, List[str]] = {}
        for ctx in self.contexts:
            self.modules[module_name_for(ctx.path)] = ctx
        for ctx in self.contexts:
            self._collect_symbols(ctx)
        for ctx in self.contexts:
            self._resolve_bases(ctx)
        for info in list(self.classes.values()):
            self._infer_attr_types(info)
        for ctx in self.contexts:
            self._collect_calls(ctx)

    # ------------------------------------------------------------------ #
    # imports
    # ------------------------------------------------------------------ #

    def _import_table(self, module: str, ctx: FileContext) -> Dict[str, str]:
        """Like :func:`~.context.build_import_table` but resolving relative
        imports against ``module``'s package (``from .engine import X``
        inside ``repro.core.join`` -> ``repro.core.engine.X``)."""
        cached = self._imports.get(module)
        if cached is not None:
            return cached
        table: Dict[str, str] = {}
        pkg_parts = module.split(".")[:-1] if module else []
        is_package = module in self.modules and self.modules[module].path.endswith(
            "__init__.py"
        )
        if is_package:
            pkg_parts = module.split(".")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    table[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    up = node.level - 1
                    base_parts = pkg_parts[: len(pkg_parts) - up] if up else pkg_parts
                    base = ".".join(base_parts)
                    mod = f"{base}.{node.module}" if node.module else base
                elif node.module is not None:
                    mod = node.module
                else:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{mod}.{alias.name}" if mod else alias.name
        self._imports[module] = table
        return table

    # ------------------------------------------------------------------ #
    # symbol collection
    # ------------------------------------------------------------------ #

    def _collect_symbols(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)

        def visit(body, prefix: str, class_qual: Optional[str]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=module,
                        path=ctx.path,
                        line=stmt.lineno,
                        node=stmt,
                        class_qualname=class_qual,
                    )
                    self.functions[qual] = info
                    if class_qual is not None:
                        self.classes[class_qual].methods.setdefault(stmt.name, qual)
                    # nested defs live under the function's own namespace
                    visit(stmt.body, qual, None)
                elif isinstance(stmt, ast.ClassDef):
                    qual = f"{prefix}.{stmt.name}"
                    self.classes[qual] = ClassInfo(
                        qualname=qual,
                        module=module,
                        path=ctx.path,
                        line=stmt.lineno,
                        node=stmt,
                    )
                    visit(stmt.body, qual, qual)
                elif isinstance(stmt, ast.Assign) and class_qual is not None:
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)
                        ):
                            self.classes[class_qual].str_attrs[target.id] = (
                                stmt.value.value
                            )

        visit(ctx.tree.body, module, None)  # type: ignore[attr-defined]

    def _resolve_bases(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)
        table = self._import_table(module, ctx)
        for info in self.classes.values():
            if info.module != module:
                continue
            for base in info.node.bases:
                qual = self._resolve_symbol_expr(base, module, table)
                if qual is not None and qual in self.classes:
                    info.bases.append(qual)

    def _resolve_symbol_expr(
        self, node: ast.AST, module: str, table: Dict[str, str]
    ) -> Optional[str]:
        """Resolve a Name/Attribute expression to a project symbol qualname."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        # local module symbol (same file)
        local = f"{module}.{dotted}"
        if local in self.classes or local in self.functions:
            return local
        # import-table alias
        target = table.get(head)
        if target is not None:
            full = f"{target}.{rest}" if rest else target
        else:
            full = dotted
        if full in self.classes or full in self.functions:
            return full
        # ``from pkg import mod`` then ``mod.Cls``: full == pkg.mod.Cls
        # already covered; ``import pkg.mod`` then ``pkg.mod.Cls`` too.
        # A re-export (``from .engine import DITAEngine`` in __init__)
        # resolves through the defining module's table one level deep.
        if target is not None and rest == "" and "." in target:
            owner_mod, _, sym = target.rpartition(".")
            owner_ctx = self.modules.get(owner_mod)
            if owner_ctx is not None:
                owner_table = self._import_table(owner_mod, owner_ctx)
                fwd = owner_table.get(sym)
                if fwd is not None and (fwd in self.classes or fwd in self.functions):
                    return fwd
        return None

    # ------------------------------------------------------------------ #
    # class hierarchy
    # ------------------------------------------------------------------ #

    def linearize(self, class_qualname: str) -> List[str]:
        """Depth-first base-class linearisation (an MRO approximation that
        is exact for single inheritance, the only kind the tree uses)."""
        cached = self._mro_cache.get(class_qualname)
        if cached is not None:
            return cached
        out: List[str] = []
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen or qual not in self.classes:
                continue
            seen.add(qual)
            out.append(qual)
            stack = self.classes[qual].bases + stack
        self._mro_cache[class_qualname] = out
        return out

    def resolve_method(self, class_qualname: str, name: str) -> Optional[str]:
        """The qualname of ``name`` resolved through the class hierarchy."""
        for qual in self.linearize(class_qualname):
            meth = self.classes[qual].methods.get(name)
            if meth is not None:
                return meth
        return None

    def class_str_attr(self, class_qualname: str, name: str) -> Optional[str]:
        """A string class attribute looked up through the hierarchy."""
        for qual in self.linearize(class_qualname):
            val = self.classes[qual].str_attrs.get(name)
            if val is not None:
                return val
        return None

    # ------------------------------------------------------------------ #
    # type inference
    # ------------------------------------------------------------------ #

    def _annotation_type(
        self, node: Optional[ast.AST], module: str, table: Dict[str, str]
    ) -> Optional[TypeRef]:
        """``Cluster`` / ``Optional[Cluster]`` / ``List[Worker]`` /
        ``Dict[int, TrieIndex]`` -> a TypeRef, else None."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            outer = _dotted(node.value)
            inner = node.slice
            if outer is None:
                return None
            tail = outer.rsplit(".", 1)[-1]
            if tail == "Optional":
                return self._annotation_type(inner, module, table)
            if tail in ("List", "list", "Sequence", "Tuple", "tuple", "Set", "set"):
                elem = self._annotation_type(inner, module, table)
                if elem is not None and not elem.container:
                    return TypeRef(elem.qualname, "elem")
                return None
            if tail in ("Dict", "dict", "Mapping"):
                if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                    elem = self._annotation_type(inner.elts[1], module, table)
                    if elem is not None and not elem.container:
                        return TypeRef(elem.qualname, "elem")
                return None
            return None
        qual = self._resolve_symbol_expr(node, module, table)
        if qual is not None and qual in self.classes:
            return TypeRef(qual)
        return None

    def _expr_type(
        self,
        node: ast.AST,
        module: str,
        table: Dict[str, str],
        env: Dict[str, TypeRef],
        self_class: Optional[str],
    ) -> Optional[TypeRef]:
        """Infer the type of an expression from the local environment."""
        if isinstance(node, ast.Call):
            qual = self._resolve_symbol_expr(node.func, module, table)
            if qual is not None and qual in self.classes:
                return TypeRef(qual)
            return None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            elem = self._expr_type(node.elt, module, table, env, self_class)
            if elem is not None and not elem.container:
                return TypeRef(elem.qualname, "elem")
            return None
        if isinstance(node, ast.List):
            for elt in node.elts:
                t = self._expr_type(elt, module, table, env, self_class)
                if t is not None and not t.container:
                    return TypeRef(t.qualname, "elem")
            return None
        if isinstance(node, ast.Subscript):
            base = self._expr_type(node.value, module, table, env, self_class)
            if base is not None:
                return base.element()
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self_class is not None
            ):
                for qual in self.linearize(self_class):
                    t = self.classes[qual].attr_types.get(node.attr)
                    if t is not None:
                        return t
            else:
                base = self._expr_type(node.value, module, table, env, self_class)
                if base is not None and not base.container:
                    owner = self.classes.get(base.qualname)
                    if owner is not None:
                        for qual in self.linearize(base.qualname):
                            t = self.classes[qual].attr_types.get(node.attr)
                            if t is not None:
                                return t
            return None
        if isinstance(node, ast.BoolOp):  # ``cluster or Cluster(...)``
            for v in node.values:
                t = self._expr_type(v, module, table, env, self_class)
                if t is not None:
                    return t
        return None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """Instance-attribute types from every method's ``self.x = ...``
        assignments and annotations (parameter types seed the env)."""
        ctx = self.modules.get(info.module)
        if ctx is None:
            return
        table = self._import_table(info.module, ctx)
        for stmt in info.node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env = self._param_env(stmt, info.module, table)
            for node in ast.walk(stmt):
                target = None
                value = None
                annotation = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                t = self._annotation_type(annotation, info.module, table)
                if t is None and value is not None:
                    t = self._expr_type(value, info.module, table, env, info.qualname)
                if t is not None and target.attr not in info.attr_types:
                    info.attr_types[target.attr] = t

    def _param_env(
        self, fn: ast.AST, module: str, table: Dict[str, str]
    ) -> Dict[str, TypeRef]:
        env: Dict[str, TypeRef] = {}
        args = fn.args  # type: ignore[union-attr]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            t = self._annotation_type(arg.annotation, module, table)
            if t is not None:
                env[arg.arg] = t
        return env

    # ------------------------------------------------------------------ #
    # call extraction
    # ------------------------------------------------------------------ #

    def _collect_calls(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)
        table = self._import_table(module, ctx)
        for info in sorted(self.functions.values(), key=lambda f: f.qualname):
            if info.module != module or isinstance(info.node, ast.Lambda):
                continue
            self._analyze_function(info, module, table)
        self._collect_module_submissions(ctx, module, table)

    def _collect_module_submissions(
        self, ctx: FileContext, module: str, table: Dict[str, str]
    ) -> None:
        """Submission calls at module scope (``register_task_kind("k", fn)``
        at import time).  Function bodies are covered by the per-function
        pass; this walk skips them and only looks at top-level statements."""
        minfo: Optional[FunctionInfo] = None
        top_level = [
            stmt
            for stmt in ctx.tree.body  # type: ignore[attr-defined]
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        for node in self._walk_body(top_level):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr_name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr_name not in SUBMIT_ATTRS:
                continue
            if minfo is None:
                minfo = FunctionInfo(
                    qualname=f"{module}.<module>",
                    module=module,
                    path=ctx.path,
                    line=1,
                    node=ctx.tree,  # type: ignore[attr-defined]
                )
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if not isinstance(arg, (ast.Name, ast.Attribute)):
                    continue
                target = self._resolve_callable_ref(arg, minfo, module, table, {})
                if target is None:
                    continue
                self.module_submissions.append(
                    (minfo, node.lineno, node.col_offset + 1, attr_name, target)
                )

    def _analyze_function(
        self, info: FunctionInfo, module: str, table: Dict[str, str]
    ) -> None:
        env = self._param_env(info.node, module, table)
        info.param_types = {k: v.qualname for k, v in env.items() if not v.container}
        self_class = info.class_qualname
        body = list(info.node.body)  # type: ignore[union-attr]
        # first pass: local assignment types (order-independent best effort)
        for node in self._walk_body(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in env:
                    t = self._expr_type(node.value, module, table, env, self_class)
                    if t is not None:
                        env[target.id] = t
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                t = self._annotation_type(node.annotation, module, table)
                if t is not None:
                    env.setdefault(node.target.id, t)
        # nested definitions: an escape edge (the parent usually runs them)
        for stmt in body:
            for child in ast.walk(stmt):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested = f"{info.qualname}.{child.name}"
                    if nested in self.functions and nested != info.qualname:
                        info.calls.append(nested)
        # second pass: calls
        for node in self._walk_body(body):
            if isinstance(node, ast.Lambda):
                lam = self._register_lambda(info, node, module, table, env)
                info.calls.append(lam)
            if not isinstance(node, ast.Call):
                continue
            self._record_call(info, node, module, table, env)

    @staticmethod
    def _walk_body(body: List[ast.stmt]):
        """Walk statements without descending into nested function/class
        definitions (those are analyzed as functions of their own) but
        *including* lambda bodies, which belong to this scope."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                stack.append(child)

    def _register_lambda(
        self,
        owner: FunctionInfo,
        node: ast.Lambda,
        module: str,
        table: Dict[str, str],
        env: Dict[str, TypeRef],
    ) -> str:
        qual = f"{owner.qualname}.<lambda:{node.lineno}:{node.col_offset}>"
        if qual in self.functions:
            return qual
        lam = FunctionInfo(
            qualname=qual,
            module=module,
            path=owner.path,
            line=node.lineno,
            node=node,
            class_qualname=owner.class_qualname,
        )
        self.functions[qual] = lam
        # a lambda's defaults and body evaluate in the enclosing env
        lam_env = dict(env)
        for arg, default in zip(
            reversed(node.args.args), reversed(node.args.defaults)
        ):
            t = self._expr_type(default, module, table, lam_env, owner.class_qualname)
            if t is not None:
                lam_env[arg.arg] = t
        for child in ast.walk(node.body):
            if isinstance(child, ast.Call):
                self._record_call(lam, child, module, table, lam_env)
        return qual

    def _record_call(
        self,
        info: FunctionInfo,
        node: ast.Call,
        module: str,
        table: Dict[str, str],
        env: Dict[str, TypeRef],
    ) -> None:
        func = node.func
        callee: Optional[str] = None
        if isinstance(func, ast.Attribute):
            info.attr_calls.add(func.attr)
            callee = self._resolve_attr_call(func, info, module, table, env)
        elif isinstance(func, ast.Name):
            callee = self._resolve_symbol_expr(func, module, table)
            if callee is None and func.id in env:
                pass  # calling a variable; nothing to resolve
        if callee is not None and callee in self.classes:
            init = self.resolve_method(callee, "__init__")
            callee = init  # constructing a class runs its __init__
        if callee is not None and callee in self.functions:
            info.calls.append(callee)
        elif isinstance(func, (ast.Name, ast.Attribute)):
            dotted = _dotted(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target = table.get(head)
                full = f"{target}.{rest}" if target and rest else (target or dotted)
                if not self._is_project_name(full):
                    unseeded = not node.args and not any(
                        kw.arg == "seed" for kw in node.keywords
                    )
                    info.external_calls.append(
                        ExternalCall(full, node.lineno, node.col_offset + 1, unseeded)
                    )
        # callable arguments escape into the callee
        attr_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            target_qual: Optional[str] = None
            if isinstance(arg, ast.Lambda):
                target_qual = self._register_lambda(info, arg, module, table, env)
            elif isinstance(arg, (ast.Name, ast.Attribute)):
                target_qual = self._resolve_callable_ref(arg, info, module, table, env)
            if target_qual is None:
                continue
            info.calls.append(target_qual)
            if attr_name in SUBMIT_ATTRS:
                info.submissions.append(
                    (node.lineno, node.col_offset + 1, attr_name, target_qual)
                )

    def _resolve_attr_call(
        self,
        func: ast.Attribute,
        info: FunctionInfo,
        module: str,
        table: Dict[str, str],
        env: Dict[str, TypeRef],
    ) -> Optional[str]:
        # plain dotted project name (``mod.func`` / ``Cls.method``)
        qual = self._resolve_symbol_expr(func, module, table)
        if qual is not None:
            return qual
        # ``self.meth()`` / ``cls.meth()``
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
            if info.class_qualname is not None:
                return self.resolve_method(info.class_qualname, func.attr)
            return None
        # typed receiver (local var, param, attribute chain)
        t = self._expr_type(recv, module, table, env, info.class_qualname)
        if t is not None and not t.container:
            return self.resolve_method(t.qualname, func.attr)
        return None

    def _resolve_callable_ref(
        self,
        node: ast.AST,
        info: FunctionInfo,
        module: str,
        table: Dict[str, str],
        env: Dict[str, TypeRef],
    ) -> Optional[str]:
        """A Name/Attribute used as a value: does it denote a project
        function (a first-class callable being passed around)?"""
        if isinstance(node, ast.Name):
            nested = f"{info.qualname}.{node.id}"
            if nested in self.functions:
                return nested
        qual = self._resolve_symbol_expr(node, module, table)
        if qual is not None and qual in self.functions:
            return qual
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and info.class_qualname is not None
        ):
            return self.resolve_method(info.class_qualname, node.attr)
        if isinstance(node, ast.Attribute):
            t = self._expr_type(node.value, module, table, env, info.class_qualname)
            if t is not None and not t.container:
                return self.resolve_method(t.qualname, node.attr)
        return None

    def _is_project_name(self, dotted: str) -> bool:
        """Is ``dotted`` (or a prefix of it) a project module/symbol?"""
        if dotted in self.functions or dotted in self.classes:
            return True
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            if ".".join(parts[:i]) in self.modules:
                return True
        return False

    # ------------------------------------------------------------------ #
    # queries used by the rules
    # ------------------------------------------------------------------ #

    def sorted_functions(self) -> List[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]

    def callers_of(self, qualname: str) -> List[FunctionInfo]:
        return [
            f
            for f in self.sorted_functions()
            if qualname in f.calls and f.qualname != qualname
        ]

    def submission_sites(self) -> List[Tuple[FunctionInfo, int, int, str, str]]:
        """Every (enclosing function, line, col, submit attr, body qualname)
        in deterministic order."""
        out: List[Tuple[FunctionInfo, int, int, str, str]] = []
        for f in self.sorted_functions():
            for line, col, attr, body in f.submissions:
                out.append((f, line, col, attr, body))
        out.extend(
            sorted(self.module_submissions, key=lambda s: (s[0].qualname, s[1], s[2]))
        )
        return out


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute chains rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))
