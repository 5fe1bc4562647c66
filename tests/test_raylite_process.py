"""raylite process-backend tests: actors in worker processes, the
shared-memory payload codec, cross-process ref resolution, event-based
wait, and teardown that fails pending refs instead of hanging."""

import gc
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro import raylite
from repro.raylite import RayliteError
from repro.raylite import shm as shm_codec
from repro.execution.parallel import ParallelSpec, resolve_parallel_spec
from repro.utils.errors import RLGraphError
from repro.utils import procutil
from repro.utils.procutil import _THREAD_ENV, native_thread_pools

# A wedged worker process must fail the test, not wedge CI.
pytestmark = pytest.mark.mp_timeout(120)


class Counter:
    """Spawn-safe actor fixture (module-level by design)."""

    def __init__(self, start=0):
        self.value = start

    def increment(self, by=1):
        self.value += by
        return self.value

    def get_pid(self):
        return os.getpid()

    def boom(self):
        raise ValueError("intentional")

    def slow_add(self, x):
        time.sleep(0.05)
        return x + 1

    def nap(self, seconds):
        time.sleep(seconds)
        return seconds

    def echo(self, x):
        return x

    def big(self, n):
        return {"weights": np.arange(n, dtype=np.float64),
                "meta": {"n": n}}

    def hard_crash(self):
        os._exit(3)

    def spin(self, n):
        acc = 0
        for i in range(n):
            acc += i
        return acc

    def native_threads(self):
        """(per-library native thread counts, OPENBLAS_NUM_THREADS)."""
        return ([get() for _, _, get in native_thread_pools()],
                os.environ.get("OPENBLAS_NUM_THREADS"))


class BadCtor:
    def __init__(self):
        raise RuntimeError("ctor fail")


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    raylite.shutdown()


def _process_actor(*args, **kwargs):
    return raylite.remote(Counter).options(backend="process").remote(
        *args, **kwargs)


class TestProcessActors:
    def test_create_and_call(self):
        counter = _process_actor(10)
        assert raylite.get(counter.increment.remote(5)) == 15

    def test_runs_in_another_process(self):
        counter = _process_actor()
        assert raylite.get(counter.get_pid.remote()) != os.getpid()

    def test_fifo_ordering(self):
        counter = _process_actor()
        refs = [counter.increment.remote() for _ in range(20)]
        assert raylite.get(refs) == list(range(1, 21))

    def test_exception_surfaces_at_get(self):
        counter = _process_actor()
        with pytest.raises(ValueError, match="intentional"):
            raylite.get(counter.boom.remote())

    def test_init_exception_propagates(self):
        with pytest.raises(RuntimeError, match="ctor fail"):
            raylite.remote(BadCtor).options(backend="process").remote()

    def test_unknown_method(self):
        counter = _process_actor()
        with pytest.raises(RayliteError):
            counter.nope.remote()

    def test_global_backend_default(self):
        raylite.init(backend="process")
        try:
            counter = raylite.remote(Counter).remote()
            assert isinstance(counter, raylite.ProcessActorHandle)
            assert raylite.get(counter.get_pid.remote()) != os.getpid()
        finally:
            raylite.init(backend="thread")

    def test_spawn_start_method(self):
        counter = raylite.remote(Counter).options(
            backend="process", start_method="spawn").remote(7)
        assert raylite.get(counter.increment.remote()) == 8

    def test_unknown_backend_rejected(self):
        with pytest.raises(RayliteError):
            raylite.remote(Counter).options(backend="fiber")
        with pytest.raises(RayliteError):
            raylite.init(backend="fiber")


class TestSharedMemoryTransport:
    def test_numpy_roundtrip_both_directions(self):
        counter = _process_actor()
        arr = np.random.default_rng(0).standard_normal((256, 32))
        out = raylite.get(counter.echo.remote(
            {"a": arr, "small": np.arange(3), "s": "tag", "n": 5}))
        np.testing.assert_array_equal(out["a"], arr)
        np.testing.assert_array_equal(out["small"], np.arange(3))
        assert out["s"] == "tag" and out["n"] == 5

    def test_large_result_decodes_zero_copy(self):
        counter = _process_actor()
        out = raylite.get(counter.big.remote(100_000))
        weights = out["weights"]
        assert weights[0] == 0.0 and weights[-1] == 99_999.0
        # Zero-copy: the array is a view over an attached shared block.
        assert weights.base is not None

    def test_object_ref_args_resolve_across_boundary(self):
        counter = _process_actor()
        ref = raylite.put(np.ones(5000))
        out = raylite.get(counter.echo.remote(ref))
        assert float(out.sum()) == 5000.0

    def test_codec_inline_below_threshold(self):
        payload = {"tiny": np.arange(4), "x": 1}
        tree, block = shm_codec.encode(payload)
        assert block is None
        assert shm_codec.decode(tree, block) is payload

    def test_codec_block_lifetime(self):
        from multiprocessing import shared_memory
        payload = {"big": np.arange(4096, dtype=np.float64),
                   "nested": [np.zeros((64, 64))]}
        tree, block = shm_codec.encode(payload)
        assert block is not None
        decoded = shm_codec.decode(tree, block)
        np.testing.assert_array_equal(decoded["big"], payload["big"])
        np.testing.assert_array_equal(decoded["nested"][0],
                                      payload["nested"][0])
        # Block lives while arrays live, is unlinked when they die.
        shared_memory.SharedMemory(name=block).close()
        del decoded
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=block)


class TestWaitAndShutdown:
    def test_wait_splits_ready_pending(self):
        counter = _process_actor()
        fast = counter.increment.remote()
        slow = counter.slow_add.remote(1)  # FIFO: runs after fast
        ready, pending = raylite.wait([fast, slow], num_returns=1)
        assert fast in ready

    def test_wait_does_not_busy_poll(self):
        """wait() blocks on an event; a background resolve wakes it."""
        ref = raylite.ObjectRef()
        timer = threading.Timer(0.1, ref._resolve, args=(42,))
        timer.start()
        ready, pending = raylite.wait([ref], num_returns=1, timeout=5.0)
        assert ready == [ref] and not pending

    def test_wait_duplicate_refs_counted_per_listing(self):
        """A ref listed twice satisfies num_returns=2 as soon as it
        resolves — promptly, not by burning the whole timeout."""
        counter = _process_actor()
        ref = counter.slow_add.remote(1)
        t0 = time.perf_counter()
        ready, pending = raylite.wait([ref, ref], num_returns=2, timeout=30.0)
        assert len(ready) == 2  # same ref listed twice, both "ready"
        assert time.perf_counter() - t0 < 5.0

    def test_wait_detaches_callbacks_from_pending_refs(self):
        """Polling wait() loops must not accumulate dead closures on
        still-pending refs (executors re-wait every few ms)."""
        ref = raylite.ObjectRef()
        for _ in range(50):
            raylite.wait([ref], num_returns=1, timeout=0.001)
        assert len(ref._callbacks) == 0
        ref._resolve(1)

    def test_shutdown_fails_pending_refs(self):
        counter = _process_actor()
        refs = [counter.slow_add.remote(i) for i in range(40)]
        raylite.shutdown()
        with pytest.raises((RayliteError, RLGraphError)):
            # Late tasks were cancelled: a clear error, never a hang.
            raylite.get(refs[-1], timeout=10.0)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="needs a visible /dev/shm to audit blocks")
    def test_shutdown_discards_undelivered_shm_blocks(self):
        """Tasks cancelled before the worker consumes them must not
        leak their shared-memory args blocks (encode() disowned them
        from the resource tracker, so nothing else would unlink)."""
        baseline = set(os.listdir("/dev/shm"))
        counter = _process_actor()
        counter.nap.remote(30.0)  # wedges the worker past the stop grace
        big = np.zeros(200_000)
        refs = [counter.echo.remote(big) for _ in range(4)]
        raylite.shutdown()  # terminates the worker, cancels the queue
        # Cancellation may finish on the handle's reader thread (EOF
        # path): block on the refs before auditing — each ref fails
        # only after its args block was discarded.
        for ref in refs:
            with pytest.raises((RayliteError, RLGraphError)):
                ref.result(timeout=10.0)
        leaked = {name for name in os.listdir("/dev/shm")
                  if name.startswith("psm_")} - baseline
        assert not leaked, f"undelivered task blocks leaked: {leaked}"

    def test_stopped_actor_rejects_submissions(self):
        counter = _process_actor()
        raylite.kill(counter)
        with pytest.raises(RayliteError):
            counter.increment.remote()

    def test_worker_hard_crash_fails_pending(self):
        counter = _process_actor()
        ref = counter.hard_crash.remote()
        with pytest.raises(RayliteError, match="died"):
            raylite.get(ref, timeout=30.0)

    def test_thread_backend_shutdown_fails_queued_tasks(self):
        counter = raylite.remote(Counter).remote()
        refs = [counter.slow_add.remote(i) for i in range(40)]
        raylite.shutdown()
        failed = sum(1 for r in refs
                     if r.ready() and _ref_failed(r))
        assert failed > 0  # queued tasks cancelled with RayliteError


class TestNativeThreadCap:
    """Process actors run one native compute thread; the driver's own
    BLAS/OpenMP pool is never touched (docs/benchmarks.md, "Open
    measurements": capping the driver costs the thread-mode learners)."""

    def test_actor_is_capped_and_driver_is_not(self, monkeypatch):
        for var in _THREAD_ENV:
            monkeypatch.delenv(var, raising=False)
        np.ones((8, 8)) @ np.ones((8, 8))  # make sure BLAS is mapped
        before = [get() for _, _, get in native_thread_pools()]
        if not before:
            pytest.skip("no BLAS/OpenMP library located in this process")
        counts, env = raylite.get(_process_actor().native_threads.remote())
        assert counts and all(c == 1 for c in counts)
        assert env == "1"  # spawn children / grandchildren inherit it
        assert [get() for _, _, get in native_thread_pools()] == before
        assert not any(var in os.environ for var in _THREAD_ENV)

    def test_user_setting_survives(self, monkeypatch):
        for var in _THREAD_ENV:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = [get() for _, _, get in native_thread_pools()]
        counts, env = raylite.get(_process_actor().native_threads.remote())
        assert env == "2"
        assert counts == before  # the loaded pool was left alone too

    def test_threadpoolctl_branch(self, monkeypatch):
        """With threadpoolctl importable the cap goes through it (the
        ctypes fallback is not used)."""
        calls = []
        stub = types.ModuleType("threadpoolctl")
        stub.threadpool_limits = calls.append
        monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
        monkeypatch.setattr(procutil, "native_thread_pools",
                            lambda: pytest.fail("ctypes fallback used"))
        monkeypatch.setattr(os, "environ", {
            k: v for k, v in os.environ.items() if k not in _THREAD_ENV})
        procutil.cap_native_threads()
        assert calls == [1]
        assert all(os.environ[var] == "1" for var in _THREAD_ENV)

    def test_driver_width_is_scoped(self, monkeypatch):
        """``native_threads_beside``: ``max(1, cores - busy)`` inside
        the block, the previous widths after it — also on raise."""
        np.ones((8, 8)) @ np.ones((8, 8))
        before = [get() for _, _, get in native_thread_pools()]
        if not before:
            pytest.skip("no BLAS/OpenMP library located in this process")
        monkeypatch.setattr(procutil, "usable_cores", lambda: 3)
        for busy, width in [(1, 2), (3, 1), (7, 1)]:
            with pytest.raises(KeyError):
                with procutil.native_threads_beside(busy) as got:
                    assert got == width
                    assert [get() for _, _, get in native_thread_pools()] \
                        == [width] * len(before)
                    raise KeyError("boom")
            assert [get() for _, _, get in native_thread_pools()] == before

    def test_driver_width_without_pools_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(procutil, "native_thread_pools", lambda: [])
        with procutil.native_threads_beside(1) as width:
            assert width == max(1, procutil.usable_cores() - 1)

    def test_usable_cores_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert procutil.usable_cores() == 5


def _ref_failed(ref) -> bool:
    try:
        ref.result(timeout=0)
        return False
    except RayliteError:
        return True
    except Exception:
        return False


class TestParallelSpec:
    def test_resolution_forms(self):
        assert resolve_parallel_spec(None).backend == "thread"
        assert resolve_parallel_spec("process").is_process
        spec = resolve_parallel_spec(
            {"backend": "process", "env_backend": "subproc",
             "env_workers": 2})
        assert spec.is_process and spec.env_backend == "subproc"
        assert resolve_parallel_spec(spec) is spec

    def test_invalid_specs_rejected(self):
        with pytest.raises(RLGraphError):
            resolve_parallel_spec("warp")
        with pytest.raises(RLGraphError):
            resolve_parallel_spec({"backend": "thread", "bogus": 1})
        with pytest.raises(RLGraphError):
            resolve_parallel_spec(42)

    def test_env_backend_is_only_a_default(self):
        spec = resolve_parallel_spec(
            {"backend": "process", "env_backend": "subproc",
             "env_workers": 2})
        built = spec.vector_env_spec_default(None)
        assert built == {"type": "subproc", "num_workers": 2}
        assert spec.vector_env_spec_default("threaded") == "threaded"

    def test_thread_spec_has_no_env_default(self):
        assert resolve_parallel_spec("thread") \
            .vector_env_spec_default(None) is None
