"""Per-rule fixtures for reprolint: every rule id has at least one
positive (finding fired) and one negative (clean) snippet, plus pragma
behavior and the guard-declaration forms."""

from __future__ import annotations

import dataclasses
import textwrap
from pathlib import Path

from repro.analysis import DEFAULT_CONFIG, ALL_RULES, AnalysisConfig, analyze_paths
from repro.analysis.rules import rule_index


def lint(
    tmp_path: Path,
    source: str,
    *,
    filename: str = "snippet.py",
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> list:
    """Write one fixture file and run the full rule set over it."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    # scan the directory so `filename` can carry package-relative structure
    # (e.g. "service/metrics.py" to exercise path allowlists)
    return analyze_paths([tmp_path], config)


def rules_fired(findings: list) -> set[str]:
    return {f.rule for f in findings}


def test_rule_registry_is_complete():
    ids = {rule.rule_id for rule in ALL_RULES}
    assert ids == {
        "global-rng",
        "set-iteration",
        "json-sort-keys",
        "wall-clock",
        "guarded-by",
        "module-state",
        "mp-context",
        "pool-owner",
        "fork-reset",
        "float-eq",
        "kernel-mutation",
        "highs-owner",
        "silent-except",
        "unbounded-retry",
    }
    assert len(ids) >= 8  # the acceptance floor, with margin
    assert set(rule_index()) == ids
    for rule in ALL_RULES:
        assert rule.family in ("determinism", "concurrency", "parity", "robustness")
        assert rule.invariant


# ----------------------------------------------------------------------
# determinism family
# ----------------------------------------------------------------------
def test_global_rng_positive_module_function(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np
        x = np.random.rand(3)
        """,
    )
    assert "global-rng" in rules_fired(findings)


def test_global_rng_positive_stdlib_import_and_call(tmp_path):
    findings = lint(
        tmp_path,
        """
        import random
        from random import shuffle
        y = random.random()
        """,
    )
    assert sum(f.rule == "global-rng" for f in findings) == 2


def test_global_rng_negative_seeded_generators(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np
        from random import Random
        rng = np.random.default_rng(0)
        ss = np.random.SeedSequence(1)
        r = Random(2)
        z = rng.random()
        """,
    )
    assert "global-rng" not in rules_fired(findings)


def test_global_rng_allowlisted_module_is_exempt(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np
        x = np.random.rand(3)
        """,
        filename="util/rng.py",
    )
    assert "global-rng" not in rules_fired(findings)


def test_set_iteration_positive_forms(tmp_path):
    findings = lint(
        tmp_path,
        """
        def f(xs):
            for x in {1, 2, 3}:
                pass
            ys = list(set(xs))
            return [y for y in frozenset(xs)], ys
        """,
    )
    assert sum(f.rule == "set-iteration" for f in findings) == 3


def test_set_iteration_negative_sorted_and_sequences(tmp_path):
    findings = lint(
        tmp_path,
        """
        def f(xs):
            for x in sorted({1, 2, 3}):
                pass
            for y in [1, 2]:
                pass
            return sorted(set(xs))
        """,
    )
    assert "set-iteration" not in rules_fired(findings)


def test_json_sort_keys_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        import json
        def dump(d):
            return json.dumps(d, sort_keys=True)
        """,
    )
    assert "json-sort-keys" in rules_fired(findings)


def test_json_sort_keys_negative_and_exempt(tmp_path):
    clean = lint(
        tmp_path,
        """
        import json
        def dump(d):
            return json.dumps(d, sort_keys=False) + json.dumps(d)
        """,
    )
    assert "json-sort-keys" not in rules_fired(clean)
    exempt = lint(
        tmp_path,
        """
        import json
        def dump(d):
            return json.dumps(d, sort_keys=True)
        """,
        filename="io.py",
    )
    assert "json-sort-keys" not in rules_fired(exempt)


def test_wall_clock_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        import time
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now()
        """,
    )
    assert sum(f.rule == "wall-clock" for f in findings) == 2


def test_wall_clock_negative_perf_counter_and_allowlist(tmp_path):
    clean = lint(
        tmp_path,
        """
        import time
        def took():
            return time.perf_counter()
        """,
    )
    assert "wall-clock" not in rules_fired(clean)
    allowed = lint(
        tmp_path,
        """
        import time
        def stamp():
            return time.time()
        """,
        filename="service/metrics.py",
    )
    assert "wall-clock" not in rules_fired(allowed)


# ----------------------------------------------------------------------
# concurrency family
# ----------------------------------------------------------------------
GUARDED_CLASS = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0  #: guarded-by: _lock

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count

    def _drain_locked(self):
        return self._count
"""


def test_guarded_by_flags_unlocked_access_only(tmp_path):
    findings = [f for f in lint(tmp_path, GUARDED_CLASS) if f.rule == "guarded-by"]
    # peek() reads outside the lock; bump() (locked), __init__ (declaration
    # site, exempt) and _drain_locked (caller-holds-lock convention) are clean
    assert len(findings) == 1
    assert "peek" not in findings[0].context  # context is the offending line
    assert "self._count" in findings[0].context


def test_guarded_by_registry_form(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading

        class Box:
            _guarded_by = {"items": "_lock"}

            def __init__(self):
                self._lock = threading.Lock()
                self.items = []

            def safe(self):
                with self._lock:
                    return len(self.items)

            def racy(self):
                return len(self.items)
        """,
    )
    assert sum(f.rule == "guarded-by" for f in findings) == 1


def test_guarded_by_field_style_dataclass_fields(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class Handle:
            jobs_done: int = 0  #: guarded-by: _lock

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.h = Handle()

            def ok(self):
                with self._lock:
                    return self.h.jobs_done

            def racy(self):
                return self.h.jobs_done
        """,
    )
    assert sum(f.rule == "guarded-by" for f in findings) == 1


def test_guarded_by_nested_def_does_not_inherit_lock(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0  #: guarded-by: _lock

            def run(self):
                with self._lock:
                    def callback():
                        return self._n  # may run on another thread
                    return callback
        """,
    )
    assert sum(f.rule == "guarded-by" for f in findings) == 1


def test_module_state_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        import something
        cache = {}
        pool = something.WorkerPool()
        """,
    )
    assert sum(f.rule == "module-state" for f in findings) == 2


def test_module_state_flags_global_rebinding(tmp_path):
    findings = lint(
        tmp_path,
        """
        _count = 1

        def set_count(value):
            global _count
            _count = value

        def outer():
            best = 0

            def inner():
                nonlocal best
                best += 1
        """,
    )
    flagged = [f for f in findings if f.rule == "module-state"]
    assert len(flagged) == 1
    assert "'_count' through 'global'" in flagged[0].message


def test_module_state_negative_constants_and_factories(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading
        CACHE_SIZE = 32
        DEFAULTS = {"a": 1}
        _lock = threading.Lock()
        _local = threading.local()
        _sentinel = object()
        """,
    )
    assert "module-state" not in rules_fired(findings)


def test_mp_context_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        import multiprocessing as mp
        from multiprocessing import Pool

        def spawn():
            ctx = mp.get_context("spawn")
            return Pool(2), ctx
        """,
    )
    assert sum(f.rule == "mp-context" for f in findings) == 2


def test_mp_context_negative_via_util_mp_and_allowlist(tmp_path):
    clean = lint(
        tmp_path,
        """
        from repro.util.mp import mp_context

        def spawn():
            return mp_context("spawn")
        """,
    )
    assert "mp-context" not in rules_fired(clean)
    allowed = lint(
        tmp_path,
        """
        import multiprocessing as mp
        def spawn():
            return mp.get_context("spawn")
        """,
        filename="util/mp.py",
    )
    assert "mp-context" not in rules_fired(allowed)


_POOLS = """
    import concurrent.futures as cf
    from concurrent.futures import ProcessPoolExecutor as Procs, ThreadPoolExecutor
    from repro.util.mp import mp_context

    def fan_out(jobs):
        with ThreadPoolExecutor(4) as threads, Procs(2) as procs:
            return threads, procs, cf.ThreadPoolExecutor(), mp_context()
    """


def test_pool_owner_positive(tmp_path):
    findings = lint(tmp_path, _POOLS, filename="engine/batch.py")
    flagged = [f for f in findings if f.rule == "pool-owner"]
    # two executors in the with-statement, one attribute construction,
    # one mp_context() call outside the pool
    assert len(flagged) == 4
    assert {f.line for f in flagged} == {7, 8}


def test_pool_owner_flags_executors_even_in_the_owner(tmp_path):
    findings = lint(tmp_path, _POOLS, filename="service/pool.py")
    flagged = [f for f in findings if f.rule == "pool-owner"]
    assert len(flagged) == 3
    assert all("mp_context" not in f.message for f in flagged)


def test_pool_owner_admits_thread_executors_in_the_highs_owner_only(tmp_path):
    findings = lint(tmp_path, _POOLS, filename="engine/highs.py")
    flagged = [f for f in findings if f.rule == "pool-owner"]
    # both thread executors pass; the process executor and mp_context() do not
    assert len(flagged) == 2
    assert any("'Procs'" in f.message for f in flagged)
    assert any("mp_context" in f.message for f in flagged)
    assert not any("ThreadPoolExecutor" in f.message for f in flagged)


def test_pool_owner_negative_pool_and_futures(tmp_path):
    owner = lint(
        tmp_path / "owner",
        """
        from concurrent.futures import Future
        from repro.util.mp import mp_context

        def spawn():
            return mp_context().Process(target=print), Future()
        """,
        filename="service/pool.py",
    )
    assert "pool-owner" not in rules_fired(owner)
    consumer = lint(
        tmp_path / "consumer",
        """
        from repro.service.pool import ProcessShardPool

        def serve(registry):
            return ProcessShardPool(registry, 2)
        """,
        filename="service/service.py",
    )
    assert "pool-owner" not in rules_fired(consumer)


def test_fork_reset_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading
        _local = threading.local()
        """,
    )
    assert "fork-reset" in rules_fired(findings)


def test_fork_reset_negative_with_registration(tmp_path):
    findings = lint(
        tmp_path,
        """
        import threading
        from repro.util.mp import register_fork_reset

        _local = threading.local()

        def reset():
            _local.__dict__.clear()

        register_fork_reset("fixture", reset)
        """,
    )
    assert "fork-reset" not in rules_fired(findings)


# ----------------------------------------------------------------------
# parity family
# ----------------------------------------------------------------------
def test_float_eq_positive(tmp_path):
    findings = lint(
        tmp_path,
        """
        def check(x, y):
            return x == 1.0 or y != 0.5
        """,
    )
    assert sum(f.rule == "float-eq" for f in findings) == 2


def test_float_eq_negative_ints_and_ordering(tmp_path):
    findings = lint(
        tmp_path,
        """
        def check(x, n):
            return x >= 0.5 and n == 3
        """,
    )
    assert "float-eq" not in rules_fired(findings)


KERNEL_CONFIG = dataclasses.replace(DEFAULT_CONFIG, kernel_modules=("*.py",))


def test_kernel_mutation_positive_forms(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np

        def store(a):
            a[0] = 1.0

        def mutator(a):
            a.sort()

        def aug(a):
            a += 1

        def out_kwarg(a, buf):
            np.add(a, a, out=buf)
        """,
        config=KERNEL_CONFIG,
    )
    assert sum(f.rule == "kernel-mutation" for f in findings) == 4


def test_kernel_mutation_negative_copies_break_taint(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np

        def safe(a):
            b = a.copy()
            b[0] = 1.0
            b.sort()
            c = np.zeros(3)
            np.add(b, b, out=c)
            return b, c
        """,
        config=KERNEL_CONFIG,
    )
    assert "kernel-mutation" not in rules_fired(findings)


def test_kernel_mutation_view_keeps_taint(tmp_path):
    findings = lint(
        tmp_path,
        """
        def through_view(a):
            row = a[0]
            row[1] = 2.0
        """,
        config=KERNEL_CONFIG,
    )
    assert "kernel-mutation" in rules_fired(findings)


def test_kernel_mutation_outside_kernel_modules_not_checked(tmp_path):
    findings = lint(
        tmp_path,
        """
        def store(a):
            a[0] = 1.0
        """,
    )  # DEFAULT_CONFIG: "snippet.py" is not a kernel module
    assert "kernel-mutation" not in rules_fired(findings)


def test_kernel_mutation_mutates_pragma(tmp_path):
    findings = lint(
        tmp_path,
        """
        def fix(q):  # repro: mutates[q] -- in-place by contract
            q[0] = 1.0

        def fix2(q, r):  # repro: mutates[q]
            q[0] = 1.0
            r[0] = 2.0
        """,
        config=KERNEL_CONFIG,
    )
    flagged = [f for f in findings if f.rule == "kernel-mutation"]
    assert len(flagged) == 1
    assert "'r'" in flagged[0].message


_RAW_HIGHS = """
    import scipy.optimize._highspy._core as core
    from scipy.optimize import _highspy
    from repro.engine import highs
    from repro.engine.highs import ResidentLP, new_highs_instance

    def build():
        model = highs.pass_colwise_model
        return core, _highspy, ResidentLP, new_highs_instance(), model
    """


def test_highs_owner_positive(tmp_path):
    findings = lint(tmp_path, _RAW_HIGHS, filename="mechanism/vcg.py")
    flagged = [f for f in findings if f.rule == "highs-owner"]
    # two binding imports, one helper import, one helper attribute
    assert len(flagged) == 4
    assert {f.line for f in flagged} == {2, 3, 5, 8}


def test_highs_owner_negative_owner_and_resident_consumers(tmp_path):
    owner = lint(tmp_path / "owner", _RAW_HIGHS, filename="engine/highs.py")
    assert "highs-owner" not in rules_fired(owner)
    consumer = lint(
        tmp_path / "consumer",
        """
        from repro.engine import highs
        from repro.engine.highs import ResidentLP, choose_solver, solve_packing_lp_fast

        def solve(a, b, c):
            lp = ResidentLP(choose_solver(*a.shape))
            return lp, solve_packing_lp_fast(c, a, b), highs.MAX_INFEASIBILITY
        """,
        filename="mechanism/vcg.py",
    )
    assert "highs-owner" not in rules_fired(consumer)


# ----------------------------------------------------------------------
# robustness family
# ----------------------------------------------------------------------
def test_silent_except_positive_pass_and_unrelated_body(tmp_path):
    findings = lint(
        tmp_path,
        """
        def swallow(q):
            try:
                q.get()
            except Exception:
                pass

        def busywork(q):
            try:
                q.get()
            except (ValueError, KeyError):
                q = None
        """,
        filename="service/feed.py",
    )
    flagged = [f for f in findings if f.rule == "silent-except"]
    assert len(flagged) == 2
    assert "Exception" in flagged[0].message
    assert "(ValueError, KeyError)" in flagged[1].message


def test_silent_except_negative_visible_handling(tmp_path):
    findings = lint(
        tmp_path,
        """
        import logging

        def handled(q, future, metrics, log=logging.getLogger(__name__)):
            try:
                q.get()
            except ValueError:
                raise
            except KeyError as exc:
                future.set_exception(exc)
            except TypeError:
                log.warning("bad item")
            except OSError:
                metrics.record_shed()
        """,
        filename="service/feed.py",
    )
    assert "silent-except" not in rules_fired(findings)


def test_silent_except_handling_in_nested_scope_counts(tmp_path):
    findings = lint(
        tmp_path,
        """
        def retry(q):
            try:
                q.get()
            except EOFError:
                if q.closed:
                    raise RuntimeError("gone")
        """,
        filename="service/feed.py",
    )
    assert "silent-except" not in rules_fired(findings)


def test_silent_except_scoped_to_service_modules(tmp_path):
    findings = lint(
        tmp_path,
        """
        def swallow(q):
            try:
                q.get()
            except Exception:
                pass
        """,
    )  # DEFAULT_CONFIG: "snippet.py" is outside service/*
    assert "silent-except" not in rules_fired(findings)


def test_silent_except_pragma_suppresses_with_reason(tmp_path):
    findings = lint(
        tmp_path,
        """
        def poll(q):
            try:
                q.get()
            except TimeoutError:  # repro: allow[silent-except] -- idle poll
                pass
            try:
                q.get()
            except TimeoutError:
                pass
        """,
        filename="service/feed.py",
    )
    assert sum(f.rule == "silent-except" for f in findings) == 1


def test_unbounded_retry_positive_while_true_around_network_call(tmp_path):
    findings = lint(
        tmp_path,
        """
        import asyncio

        async def reconnect(host, port):
            while True:
                try:
                    return await asyncio.open_connection(host, port)
                except OSError:
                    raise

        def hammer(sock):
            while 1:
                sock.sendall(b"x")
        """,
        filename="service/feed.py",
    )
    flagged = [f for f in findings if f.rule == "unbounded-retry"]
    assert len(flagged) == 2
    assert "asyncio.open_connection" in flagged[0].message
    assert "sock.sendall" in flagged[1].message


def test_unbounded_retry_negative_bounded_conditioned_or_non_network(tmp_path):
    findings = lint(
        tmp_path,
        """
        def bounded(client):
            for _attempt in range(3):
                try:
                    return client._exchange("GET", "/v1/health")
                except OSError:
                    raise
            raise RuntimeError("out of attempts")

        def conditioned(self, sock):
            while not self._closed:
                sock.sendall(b"x")

        def non_network(step):
            while True:
                if step():
                    break
        """,
        filename="service/feed.py",
    )
    assert "unbounded-retry" not in rules_fired(findings)


def test_unbounded_retry_scoped_to_service_modules(tmp_path):
    findings = lint(
        tmp_path,
        """
        def hammer(sock):
            while True:
                sock.sendall(b"x")
        """,
    )  # DEFAULT_CONFIG: "snippet.py" is outside service/*
    assert "unbounded-retry" not in rules_fired(findings)


def test_unbounded_retry_pragma_suppresses_with_reason(tmp_path):
    findings = lint(
        tmp_path,
        """
        def pump(sock):
            while True:  # repro: allow[unbounded-retry] -- lifetime of the connection, not a retry
                sock.sendall(b"x")

        def pump2(sock):
            while True:
                sock.sendall(b"x")
        """,
        filename="service/feed.py",
    )
    assert sum(f.rule == "unbounded-retry" for f in findings) == 1


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
def test_allow_pragma_suppresses_named_rule_on_its_line(tmp_path):
    findings = lint(
        tmp_path,
        """
        import numpy as np
        x = np.random.rand(3)  # repro: allow[global-rng] -- fixture
        y = np.random.rand(3)
        """,
    )
    assert sum(f.rule == "global-rng" for f in findings) == 1


def test_allow_pragma_star_and_lists(tmp_path):
    findings = lint(
        tmp_path,
        """
        import time
        def f(x):
            a = time.time() if x == 1.0 else 0  # repro: allow[wall-clock, float-eq]
            b = time.time() if x == 2.0 else 0  # repro: allow[*]
            return a, b
        """,
    )
    assert rules_fired(findings) == set()


def test_allow_pragma_does_not_suppress_other_rules(tmp_path):
    findings = lint(
        tmp_path,
        """
        import time
        t = time.time()  # repro: allow[float-eq] -- wrong rule id
        """,
    )
    assert "wall-clock" in rules_fired(findings)


def test_pragma_inside_string_is_not_a_pragma(tmp_path):
    findings = lint(
        tmp_path,
        """
        import time
        doc = "# repro: allow[wall-clock]"
        t = time.time()
        """,
    )
    assert "wall-clock" in rules_fired(findings)


def test_findings_carry_location_and_context(tmp_path):
    findings = lint(
        tmp_path,
        """
        import time
        t = time.time()
        """,
    )
    (finding,) = [f for f in findings if f.rule == "wall-clock"]
    assert finding.path == "snippet.py"
    assert finding.line == 3 and finding.col >= 1
    assert finding.context == "t = time.time()"
    assert finding.key() == ("wall-clock", "snippet.py", "t = time.time()")
    payload = finding.to_dict()
    assert payload["rule"] == "wall-clock" and payload["line"] == 3
    assert "snippet.py:3:" in finding.render()
