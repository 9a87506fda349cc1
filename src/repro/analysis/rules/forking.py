"""REPRO-FORK: never create worker processes while holding a lock.

Forking (or spawning) with a lock held is a classic deadlock factory:
``fork`` clones the *holding* state of every lock in the child but not
the thread that would release it, and even spawn-based pools inherit a
serialization point — a pool constructed or fed while the parent holds a
lock couples worker scheduling to that lock's critical section.  The
repo's one process pool (:class:`repro.workers.pool.ProcessWorkerPool`,
a wrapper over ``ProcessPoolExecutor``) forks its workers at the first
``submit``, so it must be built and fed *outside* every lock; this rule
pins that discipline down.

Flagged inside any ``with <lock>:`` block (a ``self`` attribute the
enclosing class assigned a ``threading.Lock``/``RLock``/``Condition``,
or a local/module name bound to one):

* ``os.fork`` / ``os.forkpty`` calls,
* process-pool and process construction — ``multiprocessing.Process``,
  ``ProcessPoolExecutor``, a context's ``.Pool``, the repo's
  ``ProcessWorkerPool``,
* ``.submit(...)`` on a local bound to a process pool in the same
  function (thread pools are fine — submitting to a
  ``ThreadPoolExecutor`` under a lock is an ordinary pattern here).

Nested function bodies are *not* treated as lock-held: a closure defined
under a lock runs whenever it is called, not where it is defined.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.core import Checker, Finding, SourceModule
from repro.analysis.rules.common import FunctionNode, dotted_name
from repro.analysis.rules.locking import _LOCK_FACTORIES, _lock_attributes

__all__ = ["ForkDisciplineRule"]

#: Final dotted-path segments that mean "this call starts a process".
_SPAWN_SEGMENTS = {
    "fork",
    "forkpty",
    "posix_spawn",
    "posix_spawnp",
    "Process",
    "ProcessPoolExecutor",
    "Pool",
    "ProcessWorkerPool",
}

#: Constructors whose result makes a local "a process pool" (its
#: ``.submit`` then dispatches to worker processes).
_POOL_CONSTRUCTORS = {"ProcessPoolExecutor", "ProcessWorkerPool", "Pool"}


def _is_spawn_call(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    if name.rsplit(".", 1)[-1] in _SPAWN_SEGMENTS:
        return name
    return None


def _lock_names(tree: ast.AST) -> Set[str]:
    """Plain names (locals/globals) bound to a lock factory anywhere."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not (
            isinstance(value, ast.Call)
            and dotted_name(value.func) in _LOCK_FACTORIES
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _pool_locals(fn: ast.AST) -> Set[str]:
    """Names bound to a process-pool constructor within ``fn``."""
    out: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = dotted_name(value.func)
        if name is None or name.rsplit(".", 1)[-1] not in _POOL_CONSTRUCTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _is_lock_guard(
    item: ast.withitem, lock_attrs: Set[str], lock_names: Set[str]
) -> bool:
    expr = item.context_expr
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in lock_attrs
    ):
        return True
    return isinstance(expr, ast.Name) and expr.id in lock_names


class ForkDisciplineRule(Checker):
    rule_id = "REPRO-FORK"
    description = (
        "worker processes must not be created (os.fork, process pools, "
        "process-pool .submit) while holding a lock"
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        lock_names = _lock_names(module.tree)
        yield from self._visit(
            module, module.tree, set(), lock_names, set(), False
        )

    def _visit(
        self,
        module: SourceModule,
        node: ast.AST,
        lock_attrs: Set[str],
        lock_names: Set[str],
        pool_locals: Set[str],
        guarded: bool,
    ) -> Iterable[Finding]:
        if isinstance(node, ast.ClassDef):
            attrs = _lock_attributes(node)
            for child in ast.iter_child_nodes(node):
                yield from self._visit(
                    module, child, attrs, lock_names, pool_locals, False
                )
            return
        if isinstance(node, FunctionNode):
            # A nested def's body is not lock-held at definition time.
            pools = _pool_locals(node)
            for child in ast.iter_child_nodes(node):
                yield from self._visit(
                    module, child, lock_attrs, lock_names, pools, False
                )
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = guarded or any(
                _is_lock_guard(item, lock_attrs, lock_names)
                for item in node.items
            )
            for item in node.items:
                yield from self._visit(
                    module, item, lock_attrs, lock_names, pool_locals, guarded
                )
            for stmt in node.body:
                yield from self._visit(
                    module, stmt, lock_attrs, lock_names, pool_locals, inner
                )
            return
        if guarded and isinstance(node, ast.Call):
            yield from self._check_call(module, node, pool_locals)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(
                module, child, lock_attrs, lock_names, pool_locals, guarded
            )

    def _check_call(
        self, module: SourceModule, call: ast.Call, pool_locals: Set[str]
    ) -> Iterable[Finding]:
        spawn = _is_spawn_call(call)
        if spawn is not None:
            yield self.finding(
                module,
                call,
                f"`{spawn}(...)` called while holding a lock — start worker "
                "processes outside every critical section",
            )
            return
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "submit"
            and isinstance(func.value, ast.Name)
            and func.value.id in pool_locals
        ):
            yield self.finding(
                module,
                call,
                f"`{func.value.id}.submit(...)` dispatches to a process pool "
                "while holding a lock — hand work to workers outside the "
                "critical section",
            )
