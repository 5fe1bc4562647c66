"""Native C codegen backend tests (``optimize="native"``).

The native backend lowers compiled plans to C segments executed with
zero Python dispatch (:mod:`repro.backend.native`). These tests pin:

- value parity with the interpreter across the lowering vocabulary
  (elementwise chains, matmul, reductions, argmax, one_hot, gather,
  concat, transpose/reshape, fused optimizer kernels);
- graceful degradation — no C toolchain means a one-time warning and
  "fused"-equivalent execution, never an error;
- per-run guard fallback when value-dependent shapes drift inside a
  built segment, and the feed-signature build cap;
- the shared-library disk cache (second build of the same source is a
  cache hit, not a recompile — also when threads build it at once);
- large matmuls calling CBLAS GEMM from the C under both loaders (cffi
  and ctypes), one static C function per lowered step, and the
  learner_group DQN's gradient plan as one foreign call;
- fetch snapshot semantics (persistent C out-buffers are reused across
  runs, so fetched values must be copies);
- the SessionStats accounting split between graph-compiler time and
  native build time.

Everything here needs a C compiler except the degradation test, which
must work precisely when there isn't one.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.agents import DQNAgent
from repro.backend import (
    Graph,
    Session,
    Variable,
    functional as F,
    native,
    symbolic_mode,
)
from repro.spaces import FloatBox, IntBox

pytestmark = pytest.mark.native

needs_cc = pytest.mark.skipif(not native.toolchain_available(),
                              reason="no C toolchain in environment")


def _graph():
    return Graph(name="native-test", seed=31)


def _sessions(g):
    return Session(g, optimize="none"), Session(g, optimize="native")


@needs_cc
class TestVocabularyParity:
    def test_elementwise_and_reductions(self):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None, 8), np.float32)
            h = F.tanh(F.add(F.mul(x, 0.5), 1.0))
            fetches = [F.reduce_sum(h), F.reduce_mean(h, axis=0),
                       F.reduce_max(h, axis=1), F.exp(F.neg(h))]
        rng = np.random.default_rng(0)
        feed = rng.standard_normal((5, 8)).astype(np.float32)
        ref_s, nat_s = _sessions(g)
        ref = ref_s.run(fetches, {x: feed})
        out = nat_s.run(fetches, {x: feed})
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, rtol=1e-6, atol=1e-7)
        assert nat_s.stats.native_segments >= 1
        assert nat_s.stats.native_steps > 0

    def test_matmul_gather_onehot_argmax_concat(self):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None, 4), np.float32)
            w = g.constant(np.arange(12, dtype=np.float32).reshape(4, 3) * 0.1)
            idx = g.placeholder((None,), np.int64)
            logits = F.matmul(x, w)
            fetches = [
                F.argmax(logits, axis=1),
                F.one_hot(idx, 3),
                F.gather(logits, idx),
                F.concat([logits, logits], axis=1),
                F.transpose(logits, (1, 0)),
                F.reshape(logits, (-1,)),
            ]
        rng = np.random.default_rng(1)
        feed = {x: rng.standard_normal((6, 4)).astype(np.float32),
                idx: rng.integers(0, 3, 6)}
        ref_s, nat_s = _sessions(g)
        for r, o in zip(ref_s.run(fetches, feed), nat_s.run(fetches, feed)):
            np.testing.assert_allclose(o, r, rtol=1e-6, atol=1e-7)

    def test_generated_source_is_exposed(self):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.relu(F.add(F.mul(x, 2.0), 1.0))
        sess = Session(g, optimize="native")
        sess.run(y, {x: np.ones(4, np.float32)})
        plan = sess.compiled_plan(y)
        assert isinstance(plan, native.NativePlan)
        src = plan.c_source
        assert src and "seg0" in src and "char **B" in src


@needs_cc
class TestGuardsAndFallback:
    def test_value_dependent_shape_falls_back_per_run(self):
        # dyn_arange's length depends on the *value* of n, which the
        # feed signature (id, shape, dtype) cannot see: the first run
        # bakes a segment for len 3, later runs with other lengths must
        # fail the dyn-entry guard and replay that segment in Python —
        # with identical results.
        g = _graph()
        with g.as_default(), symbolic_mode():
            n = g.placeholder((), np.int64)
            y = F.reduce_sum(F.mul(F.cast(F.dyn_arange(n), np.float32), 2.0))
        ref_s, nat_s = _sessions(g)
        for k in (3, 5, 1, 3):
            feed = {n: np.asarray(k, np.int64)}
            np.testing.assert_allclose(nat_s.run(y, feed),
                                       ref_s.run(y, feed), err_msg=str(k))

    def test_feed_signature_build_cap(self):
        # Each distinct feed shape is a fresh specialization; past the
        # cap the plan stops compiling and runs the fused interpreter —
        # results must stay identical throughout.
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.reduce_sum(F.exp(F.mul(x, 0.25)))
        ref_s, nat_s = _sessions(g)
        for k in range(2, 2 + native._MAX_BUILDS + 3):
            feed = {x: np.linspace(0.0, 1.0, k).astype(np.float32)}
            np.testing.assert_allclose(nat_s.run(y, feed),
                                       ref_s.run(y, feed), rtol=1e-6)

    def test_fetch_is_snapshot_across_runs(self):
        # Native segments write into persistent out-buffers reused on
        # every run; a fetched array must be a copy, not a view that the
        # next run rewrites.
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.add(F.mul(x, 3.0), 1.0)
        sess = Session(g, optimize="native")
        first = sess.run(y, {x: np.asarray([1.0, 2.0], np.float32)})
        second = sess.run(y, {x: np.asarray([10.0, 20.0], np.float32)})
        np.testing.assert_allclose(first, [4.0, 7.0])
        np.testing.assert_allclose(second, [31.0, 61.0])

    def test_variable_updates_visible_to_segments(self):
        # Var-entry pointers are re-resolved when variable storage is
        # reallocated; in-place updates flow through with no rebuild.
        g = _graph()
        with g.as_default(), symbolic_mode():
            v = Variable("v", np.asarray([1.0, 2.0], np.float32),
                         trainable=False, graph=g)
            y = F.mul(F.add(v.read(), 1.0), 2.0)
            bump = v.assign_add(g.constant(np.asarray([1.0, 1.0], np.float32)))
        sess = Session(g, optimize="native")
        np.testing.assert_allclose(sess.run(y), [4.0, 6.0])
        sess.run(bump)
        np.testing.assert_allclose(sess.run(y), [6.0, 8.0])
        v.set(np.asarray([5.0, 5.0], np.float32))  # may reallocate storage
        np.testing.assert_allclose(sess.run(y), [12.0, 12.0])

    def test_mutation_epoch_ordering_under_in_place_writes(self):
        # The ring-buffer scenario from the compiler suite, at native:
        # scatter/assign side effects split the plan into segments, and
        # the read-write-read ordering across those segments must match
        # the interpreter exactly even though variable buffers mutate in
        # place between C calls.
        g = _graph()
        with g.as_default(), symbolic_mode():
            buf = Variable("buf", np.zeros(4, np.float32),
                           trainable=False, graph=g)
            ptr = Variable("ptr", np.asarray(0, np.int64),
                           trainable=False, graph=g)
            vals = g.placeholder((None,), np.float32)
            n = F.size_of(vals)
            idx = F.mod(F.add(F.dyn_arange(n), ptr.read()), 4)
            write = buf.scatter_update(idx, vals)
            advance = ptr.assign(F.mod(F.add(ptr.read(), n), 4)) \
                .with_deps(write)
            done = F.group(write, advance)
        sess = Session(g, optimize="native")
        sess.run(done, {vals: np.asarray([1.0, 2.0, 3.0], np.float32)})
        np.testing.assert_allclose(buf.value, [1, 2, 3, 0])
        assert ptr.value == 3
        sess.run(done, {vals: np.asarray([9.0, 8.0], np.float32)})
        np.testing.assert_allclose(buf.value, [8, 2, 3, 9])
        assert ptr.value == 1


@needs_cc
class TestStatsAndCache:
    def test_stats_accounting(self):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None, 4), np.float32)
            y = F.reduce_mean(F.relu(F.add(F.mul(x, 2.0), 1.0)))
        sess = Session(g, optimize="native")
        sess.run(y, {x: np.ones((3, 4), np.float32)})
        st = sess.stats
        assert st.plans_native == 1
        assert st.native_segments >= 1
        assert st.native_steps >= 1
        # The C build is timed separately from the graph-compiler passes.
        assert st.native_compile_time > 0.0
        assert st.compile_time > 0.0
        d = st.as_dict()
        for key in ("native_compile_time", "native_cache_hits",
                    "plans_native", "native_segments", "native_steps",
                    "native_py_steps"):
            assert key in d

    def test_disk_cache_hit_on_identical_source(self):
        # Two sessions over the same graph emit byte-identical C, so the
        # second build must come out of the on-disk shared-lib cache.
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.exp(F.mul(F.add(x, 3.0), 0.5))
        feed = {x: np.linspace(0.0, 1.0, 8).astype(np.float32)}
        first = Session(g, optimize="native")
        ref = first.run(y, feed)
        second = Session(g, optimize="native")
        out = second.run(y, feed)
        np.testing.assert_allclose(out, ref)
        assert second.stats.native_cache_hits >= 1


def _gemm_plan():
    """A plan whose 48x64 @ 64x96 matmul is above the loop limit."""
    g = _graph()
    with g.as_default(), symbolic_mode():
        x = g.placeholder((None, 64), np.float32)
        w = g.constant(np.linspace(-1, 1, 64 * 96, dtype=np.float32)
                       .reshape(64, 96))
        y = F.tanh(F.matmul(F.relu(x), w))
    feed = {x: np.random.default_rng(3).standard_normal((48, 64))
            .astype(np.float32)}
    assert 48 * 64 * 96 > native._MATMUL_NATIVE_LIMIT
    return g, y, feed


@needs_cc
class TestBlasLowering:
    """Matmuls above the loop limit call the process's CBLAS GEMM from
    the generated C, through a function-pointer entry of the segment's
    pointer table — so a plan is one foreign call."""

    @pytest.mark.parametrize("loader", ["cffi", "ctypes"])
    def test_both_loaders_run_a_gemm_plan(self, loader, monkeypatch):
        if loader == "cffi":
            pytest.importorskip("cffi")
        else:
            monkeypatch.setitem(sys.modules, "cffi", None)
        g, y, feed = _gemm_plan()
        ref = Session(g, optimize="none").run(y, feed)
        sess = Session(g, optimize="native")
        for _ in range(2):  # the probe run, then the C
            np.testing.assert_allclose(sess.run(y, feed), ref,
                                       rtol=1e-5, atol=1e-6)
        plan = sess.compiled_plan(y)
        (build,) = [b for b in plan._builds.values()
                    if isinstance(b, native._Build)]
        assert hasattr(build.lib, "_ffi") == (loader == "cffi")
        assert plan.stats.native_segments == 1
        assert plan.stats.native_py_steps == 0
        # The address lives in the pointer table, not in the source.
        address, _ = native._find_gemm("float")
        assert str(address) not in plan.c_source
        assert "gemm_t" in plan.c_source

    def test_one_static_function_per_lowered_step(self):
        g, y, feed = _gemm_plan()
        sess = Session(g, optimize="native")
        sess.run(y, feed)
        src = sess.compiled_plan(y).c_source
        statics = re.findall(
            r"static __attribute__\(\(noinline\)\) void (seg0_\d+)", src)
        # relu, matmul, tanh: three steps, three functions, called in
        # order by the one exported entry point.
        assert statics == ["seg0_0", "seg0_1", "seg0_2"]
        body = src[src.index("void seg0(char **B) {"):]
        assert re.findall(r"(seg0_\d+)\(B\);", body) == statics


def _learner_group_dqn():
    """The learner_group benchmark's DQN (16 -> 64 -> 64, dueling,
    double-Q, native)."""
    return DQNAgent(
        state_space=FloatBox(shape=(16,)), action_space=IntBox(4),
        network_spec=[{"type": "dense", "units": 64, "activation": "relu"},
                      {"type": "dense", "units": 64, "activation": "relu"}],
        double_q=True, dueling=True, sync_interval=50, batch_size=32,
        memory_capacity=512, seed=3, optimize="native")


def _dqn_batch(rows):
    rng = np.random.default_rng(rows)
    return {
        "states": rng.standard_normal((rows, 16)).astype(np.float32),
        "actions": rng.integers(0, 4, rows),
        "rewards": rng.standard_normal(rows).astype(np.float32),
        "terminals": rng.random(rows) < 0.1,
        "next_states": rng.standard_normal((rows, 16)).astype(np.float32),
    }


def _native_plans(agent):
    return [p for p in agent.graph.session._compiled.values()
            if isinstance(p, native.NativePlan) and p.c_source]


@needs_cc
class TestLearnerGroupPlans:
    def test_gradient_plan_is_one_foreign_call(self):
        agent = _learner_group_dqn()
        before = set(map(id, _native_plans(agent)))
        agent.get_gradients(_dqn_batch(128))
        (plan,) = [p for p in _native_plans(agent) if id(p) not in before]
        assert plan.stats.native_segments == 1
        assert plan.stats.native_py_steps == 0
        # One function per step that writes C: all but the pointer and
        # shape-constant bookkeeping.
        bookkeeping = sum(s.op in ("read_var", "size_of", "shape_of")
                          for s in plan.steps)
        assert plan.c_source.count("static __attribute__((noinline))") \
            == len(plan.steps) - bookkeeping

    def test_update_plan_keeps_only_the_assign_in_python(self):
        agent = _learner_group_dqn()
        before = set(map(id, _native_plans(agent)))
        agent.update(_dqn_batch(256))
        (plan,) = [p for p in _native_plans(agent) if id(p) not in before]
        assert plan.stats.native_py_steps == 1
        assert plan.stats.native_segments == 2
        assert [s.op for s in plan.steps
                if s.op not in native._LOWERINGS] == ["assign"]


def _report_free_locks(conn):
    conn.send((native._TOOLCHAIN_LOCK.acquire(timeout=5),
               native._BUILD_LOCKS_GUARD.acquire(timeout=5),
               native._BUILD_LOCKS))


@needs_cc
class TestConcurrentColdBuild:
    def test_threads_building_one_source_compile_once(self, monkeypatch,
                                                      tmp_path):
        """A group's replicas build the same plan source on their first
        round at the same time: one compiler run, the others load its
        object as cache hits, and no temporary file is left behind."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.find_cc()  # toolchain probe outside the count
        runs = []
        real_run = subprocess.run

        def slow_counted_run(cmd, **kwargs):
            runs.append(cmd)
            time.sleep(0.2)  # keep the other builders waiting on it
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(subprocess, "run", slow_counted_run)
        n = 4
        plans = [TestDiskCacheIntegrity._plan() for _ in range(n)]
        ref = Session(plans[0][0], optimize="none").run(plans[0][2],
                                                        plans[0][3])
        sessions = [Session(g, optimize="native") for g, *_ in plans]
        outs = [None] * n
        barrier = threading.Barrier(n)

        def build(i):
            _g, _x, y, feed = plans[i]
            barrier.wait()
            sessions[i].run(y, feed)          # probe + build
            outs[i] = sessions[i].run(y, feed)  # the loaded library

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(runs) == 1
        assert all(s.stats.plans_native == 1 for s in sessions)
        assert sum(s.stats.native_cache_hits for s in sessions) == n - 1
        for out in outs:
            np.testing.assert_allclose(out, ref, rtol=1e-6)
        assert sorted(p.name.split(".")[-1] for p in tmp_path.iterdir()) \
            == ["c", "so"]

    @pytest.mark.mp_timeout(60)
    @pytest.mark.skipif(
        not hasattr(os, "register_at_fork")
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork")
    def test_fork_child_starts_with_free_locks(self):
        """A process actor forked while a driver thread compiles must
        not inherit the held build lock (it would wait forever)."""
        ctx = multiprocessing.get_context("fork")
        held = native._BUILD_LOCKS.setdefault("held", threading.Lock())
        reader, writer = ctx.Pipe(duplex=False)
        try:
            with held, native._TOOLCHAIN_LOCK:
                child = ctx.Process(target=_report_free_locks,
                                    args=(writer,))
                child.start()
                got = reader.recv() if reader.poll(30) else None
                child.join(timeout=30)
        finally:
            native._BUILD_LOCKS.pop("held", None)
        assert not child.is_alive()
        assert got == (True, True, {})

    def test_threads_asking_during_the_probe_get_its_answer(self,
                                                            monkeypatch):
        """Replica threads compiling their first plans ask for the
        toolchain together; none may see "no compiler" while the first
        probe is still running."""
        monkeypatch.setitem(native._TOOLCHAIN, "checked", False)
        monkeypatch.setitem(native._TOOLCHAIN, "cc", None)
        probes = []

        def slow_probe(path):
            probes.append(path)
            time.sleep(0.2)
            return True

        monkeypatch.setattr(native, "_probe_cc", slow_probe)
        found = []
        threads = [threading.Thread(
            target=lambda: found.append(native.find_cc()))
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(probes) == 1
        assert found == probes * 4


class TestGracefulDegradation:
    def test_missing_toolchain_warns_once_and_matches_fused(self, monkeypatch):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.relu(F.add(F.mul(x, -1.0), 0.5))
        feed = {x: np.linspace(-1.0, 1.0, 9).astype(np.float32)}
        ref = Session(g, optimize="fused").run(y, feed)

        monkeypatch.setattr(native, "toolchain_available", lambda: False)
        monkeypatch.setitem(native._WARNED, "toolchain", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = Session(g, optimize="native").run(y, feed)
            again = Session(g, optimize="native").run(y, feed)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(again, ref)
        hits = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "toolchain" in str(w.message).lower()]
        assert len(hits) == 1  # one-time warning, not one per session

    @needs_cc
    def test_failed_compile_names_its_cause(self, monkeypatch, tmp_path):
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.exp(F.mul(F.add(x, 1.5), 0.25))
        feed = {x: np.linspace(0.0, 1.0, 5).astype(np.float32)}
        ref = Session(g, optimize="fused").run(y, feed)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_CFLAGS",
                            native._CFLAGS + ["-fno-such-repro-flag"])
        monkeypatch.setitem(native._WARNED, "compile", False)
        sess = Session(g, optimize="native")
        with pytest.warns(RuntimeWarning, match="compiler rejected"):
            out = sess.run(y, feed)
        np.testing.assert_array_equal(sess.run(y, feed), ref)
        np.testing.assert_array_equal(out, ref)
        assert sess.stats.plans_native == 0


@needs_cc
class TestDiskCacheIntegrity:
    """The shared-object cache outlives processes, so it must survive
    its own damage: a truncated entry (a writer killed mid-copy, a full
    disk) is rebuilt, and objects built with other flags are never
    reused."""

    @staticmethod
    def _plan():
        g = _graph()
        with g.as_default(), symbolic_mode():
            x = g.placeholder((None,), np.float32)
            y = F.tanh(F.mul(F.add(x, 0.75), 1.25))
        return g, x, y, {x: np.linspace(-1.0, 1.0, 7).astype(np.float32)}

    def test_truncated_cached_object_is_rebuilt(self, monkeypatch, tmp_path):
        g, x, y, feed = self._plan()
        # Learn the object's cache name in one directory, then plant a
        # truncated copy under that name in a second one — never touch a
        # file this process has mapped.
        clean, stale = tmp_path / "clean", tmp_path / "stale"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(clean))
        ref = Session(g, optimize="native").run(y, feed)
        (so,) = clean.glob("plan_*.so")
        stale.mkdir()
        (stale / so.name).write_bytes(so.read_bytes()[:200])
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(stale))

        sess = Session(g, optimize="native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degradation warning
            out = sess.run(y, feed)
        np.testing.assert_allclose(out, ref)
        assert sess.stats.plans_native == 1
        assert sess.stats.native_cache_hits == 0  # rebuilt, not reused
        native._SharedLib(str(stale / so.name), ["seg0"])  # loadable again
        # ... and the repaired entry serves the next session from cache.
        again = Session(g, optimize="native")
        np.testing.assert_allclose(again.run(y, feed), ref)
        assert again.stats.native_cache_hits == 1

    def test_cache_key_covers_compiler_flags(self, monkeypatch, tmp_path):
        g, x, y, feed = self._plan()
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        Session(g, optimize="native").run(y, feed)
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ["-DREPRO_X"])
        sess = Session(g, optimize="native")
        sess.run(y, feed)
        assert sess.stats.native_cache_hits == 0
        assert len(list(tmp_path.glob("plan_*.so"))) == 2
