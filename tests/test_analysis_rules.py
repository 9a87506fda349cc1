"""Fixture-snippet tests for every repro.analysis rule.

Each rule gets the same trio: a positive hit, the same hit suppressed
with ``# repro: ignore[RULE-ID]``, and clean code the rule must not
flag.  Snippets are analyzed in-memory through :func:`analyze_source`,
so the tests pin the rules' semantics without touching the filesystem.
"""

import textwrap

import pytest

from repro.analysis import ALL_RULES, analyze_source, rule_table
from repro.analysis.core import Finding, SourceModule
from repro.analysis.rules import default_checkers
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dtype import DtypePreservationRule
from repro.analysis.rules.errors import ErrorTaxonomyRule
from repro.analysis.rules.forking import ForkDisciplineRule
from repro.analysis.rules.locking import LockDisciplineRule
from repro.analysis.rules.schema import WireSchemaRule


def run_rule(rule, source, path="src/repro/pkg/mod.py"):
    return analyze_source(path, textwrap.dedent(source), [rule])


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestLockDiscipline:
    RULE = LockDisciplineRule()

    def test_unguarded_write_flagged(self):
        findings = run_rule(self.RULE, """
            import threading

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def bump(self):
                    self._hits += 1
        """)
        assert rule_ids(findings) == ["REPRO-LOCK"]
        assert "self._hits" in findings[0].message
        assert findings[0].line == 10

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            import threading

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def bump(self):
                    self._hits += 1  # repro: ignore[REPRO-LOCK] single-writer stat
        """)
        assert findings == []

    def test_guarded_write_clean(self):
        findings = run_rule(self.RULE, """
            import threading

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0

                def bump(self):
                    with self._lock:
                        self._hits += 1
        """)
        assert findings == []

    def test_condition_variable_counts_as_lock(self):
        findings = run_rule(self.RULE, """
            import threading

            class Queue:
                def __init__(self):
                    self._cv = threading.Condition()
                    self._depth = 0

                def put(self):
                    self._depth += 1

                def put_safe(self):
                    with self._cv:
                        self._depth += 1
        """)
        assert rule_ids(findings) == ["REPRO-LOCK"]
        assert "put" in findings[0].message

    def test_locked_suffix_helpers_exempt(self):
        findings = run_rule(self.RULE, """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def _bump_locked(self):
                    self._n += 1

                def bump(self):
                    with self._lock:
                        self._bump_locked()
        """)
        assert findings == []

    def test_lockless_class_exempt(self):
        findings = run_rule(self.RULE, """
            class Plain:
                def set(self, v):
                    self._v = v
        """)
        assert findings == []

    def test_nested_function_write_still_flagged(self):
        findings = run_rule(self.RULE, """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = None

                def start(self):
                    def body():
                        self._state = "running"
                    return body
        """)
        assert rule_ids(findings) == ["REPRO-LOCK"]


class TestForkDiscipline:
    RULE = ForkDisciplineRule()

    def test_fork_under_self_lock_flagged(self):
        findings = run_rule(self.RULE, """
            import os
            import threading

            class Daemon:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    with self._lock:
                        pid = os.fork()
                    return pid
        """)
        assert rule_ids(findings) == ["REPRO-FORK"]
        assert "os.fork" in findings[0].message

    def test_process_pool_construction_under_module_lock_flagged(self):
        findings = run_rule(self.RULE, """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            _LOCK = threading.Lock()

            def build():
                with _LOCK:
                    return ProcessPoolExecutor(max_workers=2)
        """)
        assert rule_ids(findings) == ["REPRO-FORK"]
        assert "ProcessPoolExecutor" in findings[0].message

    def test_process_pool_submit_under_local_lock_flagged(self):
        findings = run_rule(self.RULE, """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                lock = threading.Lock()
                pool = ProcessPoolExecutor()
                with lock:
                    return [pool.submit(t) for t in tasks]
        """)
        assert rule_ids(findings) == ["REPRO-FORK"]
        assert "pool.submit" in findings[0].message

    def test_mp_process_and_repo_helpers_under_lock_flagged(self):
        findings = run_rule(self.RULE, """
            import multiprocessing as mp
            import threading

            from repro.workers import ProcessWorkerPool

            _LOCK = threading.RLock()

            def bad(items):
                ctx = mp.get_context("fork")
                with _LOCK:
                    mp.Process(target=print).start()
                    ctx.Pool(2)
                    ProcessWorkerPool(2)
        """)
        assert rule_ids(findings) == ["REPRO-FORK"] * 3

    def test_spawn_outside_lock_clean(self):
        findings = run_rule(self.RULE, """
            import os
            import threading

            class Daemon:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pids = []

                def spawn(self):
                    pid = os.fork()
                    with self._lock:
                        self._pids.append(pid)
        """)
        assert findings == []

    def test_thread_pool_submit_under_lock_clean(self):
        """ThreadPoolExecutor dispatch under a lock is an ordinary
        pattern (the service schedules jobs under its lock) — only
        *process* pools are flagged."""
        findings = run_rule(self.RULE, """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            def run(task):
                lock = threading.Lock()
                pool = ThreadPoolExecutor()
                with lock:
                    return pool.submit(task)
        """)
        assert findings == []

    def test_nested_def_under_lock_clean(self):
        findings = run_rule(self.RULE, """
            import os
            import threading

            _LOCK = threading.Lock()

            def schedule():
                with _LOCK:
                    def later():
                        return os.fork()
                return later
        """)
        assert findings == []

    def test_non_lock_with_block_clean(self):
        findings = run_rule(self.RULE, """
            import os

            def snapshot(path):
                with open(path) as fh:
                    fh.read()
                    return os.fork()
        """)
        assert findings == []

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            import os
            import threading

            _LOCK = threading.Lock()

            def checkpoint():
                with _LOCK:
                    return os.fork()  # repro: ignore[REPRO-FORK] single-threaded tool
        """)
        assert findings == []


class TestDeterminism:
    RULE = DeterminismRule()
    NUMERIC = "src/repro/minimize/kernel.py"

    def test_legacy_random_flagged_everywhere(self):
        findings = run_rule(self.RULE, """
            import random
            x = random.random()
        """, path="src/repro/util/anything.py")
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_legacy_np_random_flagged(self):
        findings = run_rule(self.RULE, """
            import numpy as np
            noise = np.random.normal(0.0, 1.0, 10)
        """, path="src/repro/util/anything.py")
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_seeded_rngs_clean(self):
        findings = run_rule(self.RULE, """
            import random
            import numpy as np
            rng = np.random.default_rng(1234)
            r = random.Random(7)
        """, path=self.NUMERIC)
        assert findings == []

    def test_wall_clock_in_numeric_dir_flagged(self):
        findings = run_rule(self.RULE, """
            import time
            t = time.time()
        """, path=self.NUMERIC)
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_wall_clock_outside_numeric_dirs_allowed(self):
        findings = run_rule(self.RULE, """
            import time
            t = time.time()
        """, path="src/repro/obs/trace.py")
        assert findings == []

    def test_perf_counter_clean(self):
        findings = run_rule(self.RULE, """
            import time
            t = time.perf_counter()
        """, path=self.NUMERIC)
        assert findings == []

    def test_sum_over_set_flagged(self):
        findings = run_rule(self.RULE, """
            total = sum({1.0, 2.0, 3.0})
        """, path=self.NUMERIC)
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_sum_generator_over_set_call_flagged(self):
        findings = run_rule(self.RULE, """
            def f(pairs):
                return sum(w for w in set(pairs))
        """, path=self.NUMERIC)
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_accumulating_loop_over_set_flagged(self):
        findings = run_rule(self.RULE, """
            def f(values):
                acc = 0.0
                for v in set(values):
                    acc += v
                return acc
        """, path=self.NUMERIC)
        assert rule_ids(findings) == ["REPRO-DET"]

    def test_sorted_set_reduction_clean(self):
        findings = run_rule(self.RULE, """
            def f(values):
                return sum(sorted(set(values)))
        """, path=self.NUMERIC)
        assert findings == []

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            import time
            t = time.time()  # repro: ignore[REPRO-DET] log stamp, not numerics
        """, path=self.NUMERIC)
        assert findings == []


class TestDtypePreservation:
    RULE = DtypePreservationRule()
    KERNEL = "src/repro/minimize/kern.py"

    def test_dtypeless_alloc_in_dtype_kernel_flagged(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                out = np.zeros(x.shape)
                return out
        """, path=self.KERNEL)
        assert rule_ids(findings) == ["REPRO-DTYPE"]

    def test_explicit_dtype_clean(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                out = np.zeros(x.shape, dtype=dtype)
                return out
        """, path=self.KERNEL)
        assert findings == []

    def test_hardcoded_float64_in_dtype_kernel_flagged(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                acc = np.zeros(3, dtype=np.float64)
                return acc
        """, path=self.KERNEL)
        assert rule_ids(findings) == ["REPRO-DTYPE"]

    def test_astype_float64_flagged(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x):
                dtype = x.dtype
                return x.astype(np.float64)
        """, path=self.KERNEL)
        assert rule_ids(findings) == ["REPRO-DTYPE"]

    def test_fp64_only_function_exempt(self):
        # No dtype binding => single-family reference code; fp64 is fine.
        findings = run_rule(self.RULE, """
            import numpy as np

            def reference(x):
                return np.zeros(3) + np.float64(1.0)
        """, path=self.KERNEL)
        assert findings == []

    def test_outside_kernel_dirs_exempt(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                return np.zeros(x.shape)
        """, path="src/repro/grids/gridding.py")
        assert findings == []

    def test_integer_arange_not_flagged(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                ids = np.arange(x.shape[0])
                return ids
        """, path=self.KERNEL)
        assert findings == []

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            import numpy as np

            def kernel(x, dtype):
                acc = np.zeros(3, dtype=np.float64)  # repro: ignore[REPRO-DTYPE] fp64 accumulator by design
                return acc
        """, path=self.KERNEL)
        assert findings == []


class TestWireSchema:
    RULE = WireSchemaRule()
    WIRE = "src/repro/api/thing.py"

    def test_unstamped_to_dict_flagged(self):
        findings = run_rule(self.RULE, """
            class Doc:
                def to_dict(self):
                    return {"x": self.x}
        """, path=self.WIRE)
        assert rule_ids(findings) == ["REPRO-SCHEMA"]

    def test_stamped_to_dict_clean(self):
        findings = run_rule(self.RULE, """
            SCHEMA_VERSION = 2

            class Doc:
                def to_dict(self):
                    return {"schema_version": SCHEMA_VERSION, "x": self.x}
        """, path=self.WIRE)
        assert findings == []

    def test_unvalidated_from_dict_flagged(self):
        findings = run_rule(self.RULE, """
            class Doc:
                @classmethod
                def from_dict(cls, data):
                    return cls(data["x"])
        """, path=self.WIRE)
        assert rule_ids(findings) == ["REPRO-SCHEMA"]

    def test_validated_from_dict_clean(self):
        findings = run_rule(self.RULE, """
            from repro.api.schema import check_schema_version

            class Doc:
                @classmethod
                def from_dict(cls, data):
                    check_schema_version(data, "Doc")
                    return cls(data["x"])
        """, path=self.WIRE)
        assert findings == []

    def test_outside_wire_dirs_exempt(self):
        findings = run_rule(self.RULE, """
            class Doc:
                def to_dict(self):
                    return {"x": 1}
        """, path="src/repro/mapping/report.py")
        assert findings == []

    def test_trivial_sentinel_to_dict_exempt(self):
        findings = run_rule(self.RULE, """
            class NullSpan:
                def to_dict(self):
                    return None
        """, path="src/repro/obs/trace.py")
        assert findings == []

    def test_private_class_exempt(self):
        findings = run_rule(self.RULE, """
            class _Internal:
                def to_dict(self):
                    return {"x": 1}
        """, path=self.WIRE)
        assert findings == []

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            class Fragment:
                def to_dict(self):  # repro: ignore[REPRO-SCHEMA] nested in stats doc
                    return {"x": 1}
        """, path=self.WIRE)
        assert findings == []


class TestErrorTaxonomy:
    RULE = ErrorTaxonomyRule()
    SERVING = "src/repro/gateway/thing.py"

    def test_bare_builtin_raise_flagged(self):
        findings = run_rule(self.RULE, """
            def check(x):
                if x < 0:
                    raise ValueError(f"bad {x}")
        """, path=self.SERVING)
        assert rule_ids(findings) == ["REPRO-ERR"]

    def test_typed_error_clean(self):
        findings = run_rule(self.RULE, """
            from repro.api.errors import InvalidRequestError

            def check(x):
                if x < 0:
                    raise InvalidRequestError(f"bad {x}")
        """, path=self.SERVING)
        assert findings == []

    def test_bare_class_raise_flagged(self):
        findings = run_rule(self.RULE, """
            def f():
                raise RuntimeError
        """, path=self.SERVING)
        assert rule_ids(findings) == ["REPRO-ERR"]

    def test_reraise_clean(self):
        findings = run_rule(self.RULE, """
            def f():
                try:
                    g()
                except Exception:
                    raise
        """, path=self.SERVING)
        assert findings == []

    def test_not_implemented_allowed(self):
        findings = run_rule(self.RULE, """
            class Base:
                def run(self):
                    raise NotImplementedError
        """, path=self.SERVING)
        assert findings == []

    def test_outside_serving_dirs_exempt(self):
        findings = run_rule(self.RULE, """
            def check(x):
                raise ValueError("fine here")
        """, path="src/repro/minimize/engine.py")
        assert findings == []

    def test_suppressed_hit(self):
        findings = run_rule(self.RULE, """
            def f():
                raise RuntimeError("boot")  # repro: ignore[REPRO-ERR] process-fatal
        """, path=self.SERVING)
        assert findings == []


class TestFramework:
    def test_rule_table_covers_all_rules(self):
        table = rule_table()
        assert set(table) == {cls.rule_id for cls in ALL_RULES}
        assert all(table.values()), "every rule has a description"

    def test_findings_sorted_and_stable(self):
        source = textwrap.dedent("""
            import time
            b = time.time()
            a = time.time()
        """)
        findings = analyze_source(
            "src/repro/docking/x.py", source, default_checkers()
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_syntax_error_becomes_parse_finding(self):
        findings = analyze_source(
            "src/repro/docking/broken.py", "def f(:\n", default_checkers()
        )
        assert rule_ids(findings) == ["REPRO-PARSE"]

    def test_multi_rule_suppression_list(self):
        module = SourceModule.parse(
            "m.py",
            "x = 1  # repro: ignore[REPRO-DET, REPRO-DTYPE] fixture\n",
        )
        assert module.suppressed(1, "REPRO-DET")
        assert module.suppressed(1, "REPRO-DTYPE")
        assert not module.suppressed(1, "REPRO-LOCK")

    def test_bare_ignore_suppresses_everything(self):
        module = SourceModule.parse("m.py", "x = 1  # repro: ignore\n")
        assert module.suppressed(1, "REPRO-LOCK")

    def test_finding_round_trips_through_dict(self):
        finding = Finding(
            file="src/a.py", line=3, rule_id="REPRO-DET",
            severity="error", message="msg",
        )
        assert Finding.from_dict(finding.to_dict()) == finding
        assert finding.key() == "src/a.py:3:REPRO-DET"

    @pytest.mark.parametrize("cls", ALL_RULES)
    def test_every_rule_instantiates(self, cls):
        rule = cls()
        assert rule.rule_id.startswith("REPRO-")
