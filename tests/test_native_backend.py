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
  cache hit, not a recompile);
- fetch snapshot semantics (persistent C out-buffers are reused across
  runs, so fetched values must be copies);
- the SessionStats accounting split between graph-compiler time and
  native build time.

Everything here needs a C compiler except the degradation test, which
must work precisely when there isn't one.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backend import (
    Graph,
    Session,
    Variable,
    functional as F,
    native,
    symbolic_mode,
)

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
