"""The rule set: DIT003, DIT004, DIT006 and DIT011.

Each rule encodes an invariant no tier-1 test catches a violation of; the
rationale for every id, with the paper claim it protects, lives in
``docs/STATIC_ANALYSIS.md`` and in each rule's ``explanation`` (shown by
``--explain DIT0xx``).  The ids are the historical ones: the rules whose
violations the test suite already catches were deleted, not renumbered.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from .context import FileContext
from .findings import Finding
from .registry import Rule, register

# --------------------------------------------------------------------- #
# DIT003 — exact float equality in numeric kernels
# --------------------------------------------------------------------- #

_FLOAT_CONST_NAMES = {
    "math.inf", "math.nan", "math.pi", "math.e", "math.tau",
    "numpy.inf", "numpy.nan", "numpy.pi", "numpy.e",
}


def _is_floaty(ctx: FileContext, node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floaty(ctx, node.operand)
    if isinstance(node, ast.Call) and ctx.dotted_name(node.func) == "float":
        return True
    name = ctx.dotted_name(node)
    return name in _FLOAT_CONST_NAMES


@register
class FloatEqualityRule(Rule):
    """Accumulated rounding makes ``==`` on floats prune boundary answers;
    the filter-threshold slack story (repro.core.numerics) only holds if
    comparisons go through its tolerance helpers."""

    rule_id = "DIT003"
    summary = "exact float equality in distance/geometry code"
    explanation = (
        "DITA's pruning is exact only relative to a consistent comparison "
        "discipline: the trie filter keeps a candidate iff its lower bound "
        "is within tau plus slack (repro.core.numerics). An exact == or != "
        "on accumulated float sums prunes boundary answers on one platform "
        "and keeps them on another, breaking the result-equivalence checks "
        "between the trie path and the brute-force oracle."
    )
    scopes = ("distances", "geometry")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floaty(ctx, left) or _is_floaty(ctx, right):
                    yield self.finding(
                        ctx,
                        node,
                        "exact float equality; use repro.core.numerics.feq/"
                        "near_zero (or math.isinf/isnan for sentinels)",
                    )
                    break


# --------------------------------------------------------------------- #
# DIT004 — ordered decisions fed by set/dict iteration order
# --------------------------------------------------------------------- #

def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _is_dict_keys_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "dict":
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
    return False


class _SetNameCollector(ast.NodeVisitor):
    """Names assigned only set-typed expressions within one scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.other_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, set()):
                    self.set_names.add(target.id)
                else:
                    self.other_names.add(target.id)
        self.generic_visit(node)

    # nested scopes track their own names
    def visit_FunctionDef(self, node):  # pragma: no cover - structural
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def resolved(self) -> Set[str]:
        return self.set_names - self.other_names


@register
class UnorderedIterationRule(Rule):
    """Partition assignment, cost-model tie-breaking and result ordering
    must not inherit the interpreter's set iteration order."""

    rule_id = "DIT004"
    summary = "ordered decision fed by set/dict iteration order"
    explanation = (
        "Partition assignment, cost-model tie-breaking and k-NN result "
        "ordering must not inherit the interpreter's set/dict iteration "
        "order: string hashing is salted per process unless PYTHONHASHSEED "
        "is pinned, so a min()/max()/for over a set can pick a different "
        "winner on every run. Byte-identical makespans (PR 1) and the "
        "golden-trace CI gate (PR 5) both require sorted iteration with "
        "explicit keys wherever order reaches an observable decision."
    )

    _MESSAGE = (
        "iteration over a set feeds an ordered decision; iterate "
        "sorted(...) with an explicit key"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in self._scopes(ctx.tree):
            collector = _SetNameCollector()
            for stmt in scope:
                collector.visit(stmt)
            set_names = collector.resolved()
            yield from self._check_scope(ctx, scope, set_names)

    def _scopes(self, tree: ast.AST):
        """Yield statement lists of the module, class bodies and functions."""
        yield tree.body  # type: ignore[attr-defined]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.body

    @staticmethod
    def _walk_scope(stmts):
        """Walk statements without descending into nested scopes (those are
        visited as scopes of their own)."""
        stack = [s for s in stmts if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                stack.append(child)

    #: Callables whose result cannot depend on the order their argument is
    #: consumed in — a generator fed straight into one of these is safe.
    #: (``sum`` is absent on purpose: float addition is not associative.)
    _ORDER_FREE = frozenset({"any", "all", "set", "frozenset", "sorted", "len"})

    def _check_scope(self, ctx: FileContext, stmts, set_names: Set[str]) -> Iterator[Finding]:
        order_free_ids: Set[int] = set()
        for node in self._walk_scope(stmts):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in self._ORDER_FREE:
                    for arg in node.args:
                        if isinstance(arg, ast.GeneratorExp):
                            order_free_ids.add(id(arg))
            if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
                yield self.finding(ctx, node, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if id(node) in order_free_ids:
                    continue
                for gen in node.generators:
                    if _is_set_expr(gen.iter, set_names):
                        yield self.finding(ctx, node, self._MESSAGE)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                fname = node.func.id
                if fname in ("min", "max", "next") and node.args and _is_set_expr(node.args[0], set_names):
                    yield self.finding(
                        ctx,
                        node,
                        f"{fname}() over a set breaks ties by iteration order; "
                        "iterate a sorted sequence or add a total-order key",
                    )
                elif fname in ("min", "max") and node.args and node.keywords:
                    if _is_dict_keys_expr(node.args[0]) and any(kw.arg == "key" for kw in node.keywords):
                        yield self.finding(
                            ctx,
                            node,
                            f"{fname}(dict, key=...) breaks ties by insertion order; "
                            "sort the keys first for a stable tie-break",
                        )


# --------------------------------------------------------------------- #
# DIT006 — mutable defaults and shadowed builtins
# --------------------------------------------------------------------- #

_SHADOW_BUILTINS = {
    "list", "dict", "set", "tuple", "str", "int", "float", "bool", "bytes",
    "id", "type", "input", "filter", "map", "sum", "min", "max", "all",
    "any", "len", "sorted", "range", "object", "hash", "next", "iter",
    "vars", "dir", "abs", "round", "repr", "format", "open", "eval",
    "exec", "compile", "slice", "frozenset", "complex", "zip", "enumerate",
    "reversed", "property", "bin", "hex", "oct", "pow", "divmod",
    "callable", "print",
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


@register
class HygieneRule(Rule):
    """Mutable default arguments leak state across calls; shadowed
    builtins make numeric code unreadable and break later refactors."""

    rule_id = "DIT006"
    summary = "mutable default argument or shadowed builtin"
    explanation = (
        "A mutable default argument is shared across calls, so a cached "
        "candidate list or partition buffer leaks state between queries - "
        "exactly the kind of bug that makes run N differ from run 1 with "
        "the same seed. Shadowed builtins (sum, min, filter...) in numeric "
        "code additionally break later vectorisation refactors."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        class_members = self._class_member_ids(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from self._check_args(ctx, node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in _SHADOW_BUILTINS and id(node) not in class_members:
                    yield self.finding(ctx, node, f"definition shadows builtin {node.name!r}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in _SHADOW_BUILTINS and id(node) not in class_members:
                    yield self.finding(ctx, node, f"assignment shadows builtin {node.id!r}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if local in _SHADOW_BUILTINS:
                        yield self.finding(ctx, node, f"import shadows builtin {local!r}")

    @staticmethod
    def _class_member_ids(tree: ast.AST) -> Set[int]:
        """Node ids of class-body bindings: ``Token.type`` or a Spark-style
        ``frame.filter`` method never shadow the builtin at call sites, so
        attribute/method names may mirror builtins freely."""
        members: Set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(id(stmt))
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                members.add(id(name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.add(id(stmt.target))
        return members

    def _check_args(self, ctx: FileContext, node) -> Iterator[Finding]:
        args = node.args
        for default in [*args.defaults, *[d for d in args.kw_defaults if d is not None]]:
            if _is_mutable_default(default):
                yield self.finding(
                    ctx,
                    default,
                    "mutable default argument is shared across calls; default to "
                    "None and create the container inside the function",
                )
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg:
            all_args.append(args.vararg)
        if args.kwarg:
            all_args.append(args.kwarg)
        for arg in all_args:
            if arg.arg in _SHADOW_BUILTINS:
                yield self.finding(ctx, arg, f"argument shadows builtin {arg.arg!r}")


# --------------------------------------------------------------------- #
# DIT011 — kernel dtype/width contracts
# --------------------------------------------------------------------- #

_ARRAY_CTORS = {
    "numpy.asarray", "numpy.array", "numpy.frombuffer", "numpy.fromiter",
    "numpy.arange", "numpy.ascontiguousarray",
}

#: readers that reinterpret raw bytes — the default dtype (uint8 for
#: ``np.memmap``, float64 for ``np.fromfile``) is never the stored schema,
#: so the width must be pinned at the call site.  ``np.lib.format``'s
#: ``open_memmap`` is deliberately absent: the .npy header self-describes.
_RAW_BYTE_READERS = {"numpy.memmap", "numpy.fromfile"}

_NARROW_FLOATS = {"float16", "float32", "half", "single"}
_NARROW_INTS = {
    "int8", "int16", "int32", "intc", "short", "byte",
    "uint8", "uint16", "uint32", "uintc", "ushort", "ubyte",
}

_INDEX_NAME = re.compile(
    r"(^|_)(start|starts|indptr|indices|index|idx|offset|offsets|pos|ptr|"
    r"ptrs|row|rows|col|cols)(_|$)"
)


@register
class KernelDtypeRule(Rule):
    """The vectorised kernels are only exchangeable with the scalar
    reference path if dtypes are pinned: float64 data, int64 indices."""

    rule_id = "DIT011"
    summary = "kernel dtype contract: implicit dtype, float32 downcast, narrow index"
    explanation = (
        "PR 2's vectorised kernels are validated against the scalar "
        "reference implementations by exact comparison, which is only "
        "sound if both paths accumulate in float64; a silent float32 "
        "downcast shifts boundary candidates past the pruning threshold. "
        "The CSR-style frontier layout (PR 3) indexes node arrays with "
        "starts/indptr vectors - int32 indices overflow silently past "
        "2^31 elements and numpy wraps rather than raises. Kernels must "
        "therefore construct arrays with an explicit dtype, never "
        "down-cast to float16/32, and keep index-carrying arrays at int64. "
        "The storage tier (PR 7) additionally reads raw bytes back from "
        "disk: np.memmap defaults to uint8 and np.fromfile to float64, so "
        "either call without a pinned dtype silently reinterprets the "
        "block bytes; pin dtype= from the catalog schema, or go through "
        "np.lib.format.open_memmap whose .npy header self-describes."
    )
    scopes = ("kernels", "storage")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_index_assign(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        name = ctx.dotted_name(node.func)
        dtype_kw = next((kw for kw in node.keywords if kw.arg == "dtype"), None)
        if name in _RAW_BYTE_READERS and dtype_kw is None and len(node.args) < 2:
            yield self.finding(
                ctx,
                node,
                f"{name}() reads raw bytes with the default dtype "
                "(uint8 for memmap, float64 for fromfile), silently "
                "reinterpreting the block; pin dtype= from the stored "
                "schema or use np.lib.format.open_memmap (self-describing)",
            )
        if name in _ARRAY_CTORS and dtype_kw is None:
            # np.array(literal) positional-dtype form: np.array(x, np.int64)
            if not (name.endswith((".array", ".asarray")) and len(node.args) >= 2):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() without an explicit dtype lets the input decide "
                    "the width; kernels must pin dtype=np.float64 (data) or "
                    "np.int64 (indices)",
                )
        narrow = self._narrow_dtype(ctx, dtype_kw.value) if dtype_kw else None
        if narrow is None and isinstance(node.func, ast.Attribute):
            if node.func.attr == "astype" and node.args:
                narrow = self._narrow_dtype(ctx, node.args[0])
        if narrow in _NARROW_FLOATS:
            yield self.finding(
                ctx,
                node,
                f"silent downcast to {narrow}; kernels accumulate in float64 so "
                "the vectorised path stays exactly exchangeable with the "
                "scalar reference",
            )

    def _check_index_assign(self, ctx: FileContext, node) -> Iterator[Finding]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        names.extend(
            t.attr for t in targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        )
        if not any(_INDEX_NAME.search(n.lower()) for n in names):
            return
        value = node.value
        if value is None:
            return
        for call in ast.walk(value):
            if not isinstance(call, ast.Call):
                continue
            narrow = None
            for kw in call.keywords:
                if kw.arg == "dtype":
                    narrow = self._narrow_dtype(ctx, kw.value)
            if narrow is None and isinstance(call.func, ast.Attribute):
                if call.func.attr == "astype" and call.args:
                    narrow = self._narrow_dtype(ctx, call.args[0])
            if narrow in _NARROW_INTS:
                yield self.finding(
                    ctx,
                    call,
                    f"index array {names[0]!r} built as {narrow}; CSR index "
                    "vectors must be int64 (narrower widths wrap silently "
                    "past 2**31 elements)",
                )

    @staticmethod
    def _narrow_dtype(ctx: FileContext, node: ast.AST) -> Optional[str]:
        """The short dtype name if ``node`` denotes a narrow dtype."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            tail = node.value
        else:
            dotted = ctx.dotted_name(node)
            if dotted is None:
                return None
            tail = dotted.rsplit(".", 1)[-1]
        if tail in _NARROW_FLOATS or tail in _NARROW_INTS:
            return tail
        return None
