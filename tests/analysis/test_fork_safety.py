"""REP-FORK fixture corpus: fork-under-lock must fire, safe forks not."""

from conftest import rule_ids

RULES = ("REP-FORK",)


class TestFires:
    def test_process_start_under_lock(self, make_project, lint):
        root = make_project({"svc/pool.py": '''
import threading
import multiprocessing


class Pool:
    def __init__(self):
        self._lock = threading.Lock()

    def spawn(self, target):
        with self._lock:
            proc = multiprocessing.Process(target=target)
            proc.start()
            return proc
'''})
        result = lint(root, rules=RULES)
        assert rule_ids(result) == ["REP-FORK"]
        finding = result.active[0]
        assert finding.symbol == "Pool.spawn"
        assert "_lock" in finding.message

    def test_fork_after_thread_creation(self, make_project, lint):
        root = make_project({"svc/mixed.py": '''
import os
import threading


def serve():
    pumper = threading.Thread(target=print)
    pumper.start()
    pid = os.fork()
    return pid
'''})
        result = lint(root, rules=RULES)
        assert rule_ids(result) == ["REP-FORK"]
        assert "threading.Thread" in result.active[0].message

    def test_transitive_fork_under_lock(self, make_project, lint):
        # spawn() forks; tick() calls spawn() while holding the state
        # lock -- only the cross-function pass can see this.
        root = make_project({"svc/indirect.py": '''
import threading
import multiprocessing


def spawn_worker(target):
    proc = multiprocessing.Process(target=target)
    proc.start()
    return proc


class Manager:
    def __init__(self):
        self._state_lock = threading.Lock()

    def tick(self):
        with self._state_lock:
            return spawn_worker(print)
'''})
        result = lint(root, rules=RULES)
        assert rule_ids(result) == ["REP-FORK"]
        finding = result.active[0]
        assert finding.symbol == "Manager.tick"
        assert "spawn_worker" in finding.message

    def test_constructor_fork_under_lock(self, make_project, lint):
        # A class whose __init__ forks makes its *instantiation* a fork.
        root = make_project({"svc/session.py": '''
import threading
import multiprocessing


class Worker:
    def __init__(self):
        self.proc = multiprocessing.Process(target=print)
        self.proc.start()


class Broker:
    def __init__(self):
        self._lock = threading.Lock()

    def attach(self):
        with self._lock:
            return Worker()
'''})
        result = lint(root, rules=RULES)
        assert any(f.symbol == "Broker.attach" for f in result.active)

    def test_constructor_forking_through_a_helper_under_lock(
            self, make_project, lint):
        # Worker.__init__ forks only through spawn(); the class name
        # is still a forking callable.
        root = make_project({"svc/session.py": '''
import threading
import multiprocessing


def spawn(target):
    proc = multiprocessing.Process(target=target)
    proc.start()
    return proc


class Worker:
    def __init__(self):
        self.proc = spawn(print)


class Broker:
    def __init__(self):
        self._lock = threading.Lock()

    def attach(self):
        with self._lock:
            return Worker()
'''})
        result = lint(root, rules=RULES)
        assert [f.symbol for f in result.active] == ["Broker.attach"]
        assert "Worker.__init__ forks" in result.active[0].message

    def test_process_pools_under_lock(self, make_project, lint):
        # A process pool forks its workers at construction: both pool
        # flavours are fork sites.
        root = make_project({"svc/fanout.py": '''
import threading
import multiprocessing
from concurrent.futures import ProcessPoolExecutor


class Fanout:
    def __init__(self):
        self._lock = threading.Lock()

    def map_pool(self, fn, items):
        with self._lock:
            with multiprocessing.get_context("fork").Pool(2) as pool:
                return pool.map(fn, items)

    def map_executor(self, fn, items):
        with self._lock:
            with ProcessPoolExecutor(max_workers=2) as executor:
                return list(executor.map(fn, items))
'''})
        result = lint(root, rules=RULES)
        assert sorted(f.symbol for f in result.active) == [
            "Fanout.map_executor", "Fanout.map_pool"]
        assert all("forks while holding" in f.message
                   for f in result.active)


class TestStaysSilent:
    def test_thread_pools_under_lock_and_process_pool_outside(
            self, make_project, lint):
        # Thread pools never fork; a process pool made outside the
        # lock is the safe pattern.
        root = make_project({"svc/fanout.py": '''
import threading
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.pool import ThreadPool


class Fanout:
    def __init__(self):
        self._lock = threading.Lock()

    def map_threads(self, fn, items):
        with self._lock:
            with ThreadPoolExecutor(max_workers=2) as executor:
                first = list(executor.map(fn, items))
            with ThreadPool(2) as pool:
                return first + pool.map(fn, items)

    def map_processes(self, fn, items):
        with self._lock:
            chunk = list(items)
        with multiprocessing.Pool(2) as pool:
            return pool.map(fn, chunk)
'''})
        assert lint(root, rules=RULES).active == []
    def test_fork_outside_lock(self, make_project, lint):
        root = make_project({"svc/pool.py": '''
import threading
import multiprocessing


class Pool:
    def __init__(self):
        self._lock = threading.Lock()

    def spawn(self, target):
        with self._lock:
            count = self._bump()
        proc = multiprocessing.Process(target=target)
        proc.start()
        return proc, count

    def _bump(self):
        return 1
'''})
        assert lint(root, rules=RULES).active == []

    def test_locks_without_forks(self, make_project, lint):
        root = make_project({"svc/counter.py": '''
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
            return self.n
'''})
        assert lint(root, rules=RULES).active == []

    def test_ambiguous_name_not_blamed(self, make_project, lint):
        # Two defs named run(), only one forks: a call under a lock is
        # attributed (unique among fork-reaching defs).  But when BOTH
        # fork-reach, attribution is ambiguous and must stay silent.
        root = make_project({"svc/dup.py": '''
import threading
import multiprocessing


class A:
    def run(self):
        multiprocessing.Process(target=print).start()


class B:
    def run(self):
        multiprocessing.Process(target=print).start()


class Caller:
    def __init__(self):
        self._lock = threading.Lock()

    def go(self, obj):
        with self._lock:
            obj.run()
'''})
        result = lint(root, rules=RULES)
        assert all(f.symbol != "Caller.go" for f in result.active)
