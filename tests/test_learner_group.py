"""Data-parallel learner groups: gradient extraction parity, K-learner
vs single-learner equivalence, shm collectives, sharding policy, chaos.

Parity contracts (the repo-wide convention from test_parity_matrix):
extract-then-apply must be **bitwise** identical to the in-graph update
on the symbolic backend at ``optimize="basic"`` (same nodes, same
order); fused/native cells reassociate reductions and are held to tight
allclose.  Likewise K=1 groups are bitwise (identical arithmetic,
shared-memory round trip included), while K>1 shard-sums reassociate
the batch reduction and are allclose.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.agents import (
    ActorCriticAgent,
    DQNAgent,
    IMPALAAgent,
    PPOAgent,
    SACAgent,
)
from repro.backend import native
from repro.components.common.batch_splitter import shard_sizes, split_batch
from repro.execution.learner_group import (
    LearnerGroup,
    LearnerSpec,
    resolve_learner_spec,
)
from repro.raylite import collectives
from repro.raylite.shm import get_pool
from repro.spaces import FloatBox, IntBox
from repro.utils import procutil
from repro.utils.errors import RLGraphError

STATE_DIM = 4
NUM_ACTIONS = 3
ACTION_DIM = 2  # SAC: continuous actions in [-1, 1]^2
NET = [{"type": "dense", "units": 16, "activation": "tanh"}]
NUM_UPDATES = 5
TOL = dict(rtol=1e-5, atol=1e-6)


# Module-level factories: process learner replicas ship their recipe to
# a fresh worker process on every (re)start.
def make_agent(kind: str, optimize: str = "basic", backend: str = "xgraph",
               worker_index: int = 0):
    common = dict(state_space=FloatBox(shape=(STATE_DIM,)),
                  action_space=IntBox(NUM_ACTIONS), network_spec=NET,
                  backend=backend, optimize=optimize, seed=7)
    if kind == "dqn":
        return DQNAgent(double_q=True, dueling=True, sync_interval=2,
                        memory_capacity=64, batch_size=8, **common)
    if kind == "a2c":
        return ActorCriticAgent(**common)
    if kind == "impala":
        return IMPALAAgent(**common)
    if kind == "ppo":
        return PPOAgent(epochs=2, minibatch_size=8, **common)
    if kind == "sac":
        common["action_space"] = FloatBox(
            low=-np.ones(ACTION_DIM, np.float32),
            high=np.ones(ACTION_DIM, np.float32))
        return SACAgent(memory_capacity=64, batch_size=8, **common)
    raise ValueError(kind)


def _dqn_factory(worker_index=0):
    return make_agent("dqn")


def batches(kind: str, n_updates: int = NUM_UPDATES, rows: int = 12):
    """Deterministic batch stream, identical across compared runs."""
    rng = np.random.default_rng(42)
    out = []
    for _ in range(n_updates):
        if kind == "dqn":
            out.append({
                "states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
                "actions": rng.integers(0, NUM_ACTIONS, rows),
                "rewards": rng.standard_normal(rows).astype(np.float32),
                "terminals": rng.random(rows) < 0.2,
                "next_states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
            })
        elif kind == "a2c":
            out.append({
                "states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
                "actions": rng.integers(0, NUM_ACTIONS, rows),
                "returns": rng.standard_normal(rows).astype(np.float32),
            })
        elif kind == "ppo":
            out.append({
                "states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
                "actions": rng.integers(0, NUM_ACTIONS, rows),
                "old_log_probs": -np.abs(
                    rng.standard_normal(rows)).astype(np.float32),
                "returns": rng.standard_normal(rows).astype(np.float32),
                "advantages": rng.standard_normal(rows).astype(np.float32),
            })
        elif kind == "sac":
            out.append({
                "states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
                "actions": rng.uniform(-1, 1, (rows, ACTION_DIM))
                .astype(np.float32),
                "rewards": rng.standard_normal(rows).astype(np.float32),
                "terminals": rng.random(rows) < 0.2,
                "next_states": rng.standard_normal(
                    (rows, STATE_DIM)).astype(np.float32),
                # Explicit reparameterization noise rides along with the
                # rows (shard_spec axis 0), so sharded extraction sees
                # the same per-row noise as the single learner.
                "noise": rng.standard_normal(
                    (rows, ACTION_DIM)).astype(np.float32),
                "next_noise": rng.standard_normal(
                    (rows, ACTION_DIM)).astype(np.float32),
            })
        elif kind == "impala":
            t, b = 4, rows
            out.append({
                "states": rng.standard_normal(
                    (t, b, STATE_DIM)).astype(np.float32),
                "actions": rng.integers(0, NUM_ACTIONS, (t, b)),
                "behaviour_log_probs": -np.abs(
                    rng.standard_normal((t, b))).astype(np.float32),
                "rewards": rng.standard_normal((t, b)).astype(np.float32),
                "terminals": rng.random((t, b)) < 0.1,
                "bootstrap_states": rng.standard_normal(
                    (b, STATE_DIM)).astype(np.float32),
            })
        else:
            raise ValueError(kind)
    return out

KINDS = ["dqn", "a2c", "impala", "ppo", "sac"]


def _run_updates(agent, kind):
    for batch in batches(kind):
        agent.update(batch)
    return agent.get_weights(flat=True)


def _run_extract_apply(agent, kind):
    for batch in batches(kind):
        flat, _stats = agent.get_gradients(batch)
        agent.apply_gradients(flat)
    return agent.get_weights(flat=True)


def _run_single_steps(agent, kind):
    """In-graph single-step reference for the extraction round trip.

    For DQN/A2C/IMPALA this is just ``update()``.  PPO's ``update()``
    loops epochs × minibatches, so its extraction reference is ONE
    in-graph ``update_from_batch`` step on the same prepared full batch
    (advantages normalized exactly as ``PPOAgent._prepare_batch`` does)."""
    if kind != "ppo":
        return _run_updates(agent, kind)
    for batch in batches(kind):
        adv = np.asarray(batch["advantages"], np.float32)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        agent.call_api("update_from_batch", batch["states"],
                       batch["actions"],
                       np.asarray(batch["old_log_probs"], np.float32),
                       adv, np.asarray(batch["returns"], np.float32))
    return agent.get_weights(flat=True)


class TestGradientExtractionParity:
    """Extract-then-apply vs the in-graph fused step, all four agents."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_on_symbolic_basic(self, kind):
        w_update = _run_single_steps(make_agent(kind, "basic"), kind)
        w_extract = _run_extract_apply(make_agent(kind, "basic"), kind)
        assert np.array_equal(w_update, w_extract)

    @pytest.mark.parametrize("kind", KINDS)
    def test_allclose_on_fused(self, kind):
        w_update = _run_single_steps(make_agent(kind, "fused"), kind)
        w_extract = _run_extract_apply(make_agent(kind, "fused"), kind)
        np.testing.assert_allclose(w_extract, w_update, **TOL)

    @pytest.mark.native
    @pytest.mark.parametrize("kind", KINDS)
    def test_allclose_on_native(self, kind):
        if not native.toolchain_available():
            pytest.skip("no C toolchain")
        w_update = _run_single_steps(make_agent(kind, "native"), kind)
        w_extract = _run_extract_apply(make_agent(kind, "native"), kind)
        np.testing.assert_allclose(w_extract, w_update, **TOL)

    def test_gradients_unclipped_and_slab_sized(self):
        agent = make_agent("dqn")
        flat, stats = agent.get_gradients(batches("dqn")[0])
        assert flat.shape == (agent.flat_grad_size(),)
        assert flat.dtype == np.float32
        assert "losses" in stats and "td" in stats
        # Weight vector covers target nets too; gradients never do.
        assert agent.flat_layout().total > agent.flat_grad_size()

    def test_apply_gated_off_at_optimize_none(self):
        """Extraction still works in the per-variable ablation (flat
        vector concatenated in the same sorted-by-name order), but the
        apply half needs the fused slab and is not built."""
        agent = make_agent("dqn", "none")
        flat, _stats = agent.get_gradients(batches("dqn")[0])
        assert flat.shape == (agent.flat_grad_size(),)
        with pytest.raises(RLGraphError):
            agent.apply_gradients(flat)


class TestShardingPolicy:
    def test_shard_sizes_policies(self):
        assert shard_sizes(10, 4) == [2, 2, 2, 4]
        assert shard_sizes(10, 4, remainder="drop") == [2, 2, 2, 2]
        assert shard_sizes(8, 4, remainder="strict") == [2, 2, 2, 2]
        with pytest.raises(RLGraphError):
            shard_sizes(10, 4, remainder="strict")
        with pytest.raises(RLGraphError):
            shard_sizes(3, 4)  # would leave an empty shard
        with pytest.raises(RLGraphError):
            shard_sizes(10, 4, remainder="bogus")

    def test_split_batch_keeps_every_row(self):
        batch = {"x": np.arange(10), "y": np.arange(10) * 2.0}
        shards = split_batch(batch, 3)
        assert [len(s["x"]) for s in shards] == [3, 3, 4]
        merged = np.concatenate([s["x"] for s in shards])
        assert np.array_equal(merged, batch["x"])  # order preserved

    def test_split_batch_axes_override_and_replication(self):
        t, b = 4, 7
        batch = {"states": np.zeros((t, b, 3)),
                 "bootstrap_states": np.arange(b),
                 "config": np.array([1.0, 2.0])}
        shards = split_batch(batch, 2, axis=1,
                             axes={"bootstrap_states": 0, "config": None})
        assert shards[0]["states"].shape == (t, 3, 3)
        assert shards[1]["states"].shape == (t, 4, 3)
        assert np.array_equal(shards[1]["bootstrap_states"],
                              np.arange(b)[3:])
        # None-axis keys are replicated whole into every shard.
        assert np.array_equal(shards[0]["config"], batch["config"])
        assert np.array_equal(shards[1]["config"], batch["config"])

    def test_split_batch_rejects_row_mismatch(self):
        with pytest.raises(RLGraphError):
            split_batch({"x": np.zeros(8), "y": np.zeros(7)}, 2)


class TestCollectiveSchedules:
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    def test_allreduce_sums_over_pooled_blocks(self, world, algorithm):
        rng = np.random.default_rng(world)
        n = 103  # deliberately not divisible by any world size
        vecs = [rng.standard_normal(n).astype(np.float32)
                for _ in range(world)]
        expected = np.sum(vecs, axis=0)
        ring = collectives.SlabRing(world, n)
        if not ring.available:
            pytest.skip("shared memory unavailable")
        members = [collectives.RingMember(r, world, ring.names(), n, n)
                   for r in range(world)]
        for r, v in enumerate(vecs):
            members[r].write(v)
        for method, step in collectives.allreduce_steps(algorithm, world):
            for m in members:
                getattr(m, method)(step)
        # Ring: every rank holds the sum; tree: rank 0's block does.
        result = np.array(members[0].read(0), copy=True)
        np.testing.assert_allclose(result, expected, rtol=1e-6, atol=1e-6)
        for m in members:
            m.close()
        ring.release()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            collectives.allreduce_steps("butterfly", 4)

    def test_chunk_bounds_cover_everything(self):
        bounds = collectives.chunk_bounds(10, 4)
        assert bounds == [0, 3, 6, 8, 10]


class TestLearnerSpec:
    def test_resolution(self):
        assert resolve_learner_spec(None) is None
        assert resolve_learner_spec(False) is None
        spec = resolve_learner_spec(4)
        assert spec.num_learners == 4 and spec.resolve_algorithm() == "ring"
        assert resolve_learner_spec(2).resolve_algorithm() == "tree"
        spec = resolve_learner_spec({"num_learners": 3,
                                     "algorithm": "tree"})
        assert spec.resolve_algorithm() == "tree"
        passthrough = LearnerSpec(2)
        assert resolve_learner_spec(passthrough) is passthrough
        with pytest.raises(RLGraphError):
            resolve_learner_spec(True)
        with pytest.raises(RLGraphError):
            resolve_learner_spec({"num_learners": 2, "algorithm": "x"})


class TestLearnerGroupParity:
    """K-replica groups vs one learner on identical update streams."""

    def _single_weights(self, kind):
        agent = make_agent(kind)
        for batch in batches(kind):
            agent.update(batch)
        return agent.get_weights(flat=True)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["dqn", "a2c"])
    def test_group_matches_single_learner(self, kind, k):
        reference = self._single_weights(kind)
        group = LearnerGroup(make_agent(kind),
                             lambda worker_index=0: make_agent(kind),
                             spec=k, parallel_spec="thread")
        try:
            for batch in batches(kind):
                group.update(batch)
            weights = group.get_weights(flat=True)
            if k == 1:
                # One replica runs the identical arithmetic (shm round
                # trip included): bitwise, per the repo parity contract.
                assert np.array_equal(weights, reference)
            else:
                # Shard sums reassociate the batch reduction: allclose.
                np.testing.assert_allclose(weights, reference, **TOL)
            assert group.updates == NUM_UPDATES
        finally:
            group.shutdown()

    @pytest.mark.parametrize("kind", ["impala", "ppo"])
    def test_group_k1_bitwise_remaining_agents(self, kind):
        # The single-learner semantic a group implements is ONE step per
        # batch — for PPO that is the extract-apply loop, not the
        # epochs × minibatches `update()` (group semantics by design).
        reference = _run_extract_apply(make_agent(kind), kind)
        group = LearnerGroup(make_agent(kind),
                             lambda worker_index=0: make_agent(kind),
                             spec=1, parallel_spec="thread")
        try:
            for batch in batches(kind):
                group.update(batch)
            assert np.array_equal(group.get_weights(flat=True), reference)
        finally:
            group.shutdown()

    def test_impala_group_k2_allclose(self):
        reference = _run_extract_apply(make_agent("impala"), "impala")
        group = LearnerGroup(make_agent("impala"),
                             lambda worker_index=0: make_agent("impala"),
                             spec=2, parallel_spec="thread")
        try:
            for batch in batches("impala"):
                out = group.update(batch)
            assert all(np.isfinite(v) for v in out)
            np.testing.assert_allclose(group.get_weights(flat=True),
                                       reference, rtol=1e-4, atol=1e-5)
        finally:
            group.shutdown()

    @pytest.mark.parametrize("k", [1, 2])
    def test_sac_group_continuous_batch(self, k):
        """Continuous-action batches through the group machinery: the
        FloatBox action columns and the noise columns shard row-major
        alongside the states (base shard_spec), so K=1 is bitwise and
        K=2's shard-mean reassociation stays inside the allclose
        contract."""
        reference = self._single_weights("sac")
        group = LearnerGroup(make_agent("sac"),
                             lambda worker_index=0: make_agent("sac"),
                             spec=k, parallel_spec="thread")
        try:
            for batch in batches("sac"):
                loss, td = group.update(batch)
            assert np.isfinite(loss) and np.all(np.isfinite(td))
            weights = group.get_weights(flat=True)
            if k == 1:
                assert np.array_equal(weights, reference)
            else:
                np.testing.assert_allclose(weights, reference, **TOL)
            assert group.updates == NUM_UPDATES
        finally:
            group.shutdown()

    def test_ppo_group_k2_runs(self):
        # PPO normalizes advantages per shard (a batch statistic —
        # documented group semantics), so K>1 is not comparable to the
        # single learner; assert the group trains and stays finite.
        group = LearnerGroup(make_agent("ppo"),
                             lambda worker_index=0: make_agent("ppo"),
                             spec=2, parallel_spec="thread")
        try:
            for batch in batches("ppo"):
                out = group.update(batch)
            assert all(np.isfinite(v) for v in out)
            assert group.updates == NUM_UPDATES
            assert np.all(np.isfinite(group.get_weights(flat=True)))
        finally:
            group.shutdown()

    def test_steady_state_rounds_allocate_no_blocks(self):
        """Each all-reduce round moves slabs through the SAME pooled
        blocks: after group setup the pool's miss counter freezes."""
        group = LearnerGroup(make_agent("dqn"), _dqn_factory, spec=4,
                             parallel_spec="thread")
        if not group.ring.available:
            group.shutdown()
            pytest.skip("shared memory unavailable")
        try:
            stream = batches("dqn")
            group.update(stream[0])  # warm: ring members attach lazily
            before = get_pool().stats()
            for batch in stream[1:]:
                group.update(batch)
            after = get_pool().stats()
            assert after["misses"] == before["misses"]
            assert after["active"] == before["active"]
        finally:
            group.shutdown()
        # Shutdown returned every block to the pool's free list.
        assert get_pool().stats()["active"] <= before["active"] - 4

    def test_group_checkpoint_resume_bitwise(self):
        stream = batches("dqn", n_updates=4)
        group = LearnerGroup(make_agent("dqn"), _dqn_factory, spec=2,
                             parallel_spec="thread")
        try:
            group.update(stream[0])
            group.update(stream[1])
            state = group.full_state()
            for batch in stream[2:]:
                group.update(batch)
            final = group.get_weights(flat=True)
        finally:
            group.shutdown()
        resumed = LearnerGroup(make_agent("dqn"), _dqn_factory, spec=2,
                               parallel_spec="thread")
        try:
            resumed.restore_full_state(state)
            assert resumed.updates == 2
            for batch in stream[2:]:
                resumed.update(batch)
            assert np.array_equal(resumed.get_weights(flat=True), final)
        finally:
            resumed.shutdown()

    def test_group_rejects_optimize_none(self):
        with pytest.raises(RLGraphError):
            LearnerGroup(make_agent("dqn", "none"), _dqn_factory, spec=2,
                         parallel_spec="thread")


class FakePool:
    """A native thread pool stand-in: records every width it is set to."""

    def __init__(self, width=7):
        self.width = width
        self.sets = []

    def set(self, width):
        self.sets.append(width)
        self.width = width

    def get(self):
        return self.width


@pytest.fixture
def fake_pool(monkeypatch):
    pool = FakePool()
    monkeypatch.setattr(procutil, "native_thread_pools",
                        lambda: (("fake", pool.set, pool.get),))
    return pool


def _width_recording_factory(pool, seen, fail=False):
    """Replicas that record the pool width their gradient plan runs at
    (``fail``: and then raise)."""
    def factory(worker_index=0):
        agent = make_agent("dqn")
        get_gradients = agent.get_gradients

        def recording(batch):
            seen.append(pool.width)
            if fail:
                raise RuntimeError("replica blew up")
            return get_gradients(batch)
        agent.get_gradients = recording
        return agent
    return factory


class TestRoundPoolWidth:
    """Thread replicas share this process's native pools, so a
    thread-mode round gives each ``max(1, cores // K)`` and restores the
    previous width however it ends; nothing else touches the pools."""

    def test_thread_round_shares_the_cores(self, fake_pool):
        seen = []
        group = LearnerGroup(make_agent("dqn"),
                             _width_recording_factory(fake_pool, seen),
                             spec=2, parallel_spec="thread")
        try:
            for batch in batches("dqn", n_updates=2):
                group.update(batch)
        finally:
            group.shutdown()
        width = max(1, procutil.usable_cores() // 2)
        assert seen == [width] * 4
        assert fake_pool.sets == [width, 7] * 2
        assert fake_pool.width == 7

    def test_width_restored_when_the_round_raises(self, fake_pool):
        seen = []
        group = LearnerGroup(
            make_agent("dqn"),
            _width_recording_factory(fake_pool, seen, fail=True),
            spec=2, parallel_spec="thread")
        try:
            with pytest.raises(Exception, match="replica blew up"):
                group.update(batches("dqn", n_updates=1)[0])
        finally:
            group.shutdown()
        # The round raises at the first failed replica, so the other may
        # start after the restore: only the first is sure to be narrowed.
        assert seen[0] == max(1, procutil.usable_cores() // 2)
        assert fake_pool.width == 7

    @pytest.mark.mp_timeout(120)
    def test_process_group_and_single_agent_never_resize(self, fake_pool):
        agent = make_agent("dqn")
        agent.update(batches("dqn", n_updates=1)[0])
        group = LearnerGroup(make_agent("dqn"), _dqn_factory, spec=2,
                             parallel_spec="process")
        try:
            group.update(batches("dqn", n_updates=1)[0])
            assert group.updates == 1
        finally:
            group.shutdown()
        assert fake_pool.sets == []

    def test_library_discovery_runs_once_per_process(self, monkeypatch):
        scans = []
        mapped_paths = procutil._mapped_paths

        def counted():
            scans.append(1)
            return mapped_paths()

        monkeypatch.setattr(procutil, "_mapped_paths", counted)
        procutil.native_libraries.cache_clear()
        procutil.native_thread_pools.cache_clear()
        try:
            group = LearnerGroup(make_agent("dqn", "native"),
                                 lambda worker_index=0: make_agent(
                                     "dqn", "native"),
                                 spec=2, parallel_spec="thread")
            try:
                for batch in batches("dqn", n_updates=3):
                    group.update(batch)
            finally:
                group.shutdown()
            native._find_gemm("float")
            native._find_gemm("double")
            assert len(scans) == 1
        finally:
            # Later callers rescan with the real reader.
            procutil.native_libraries.cache_clear()
            procutil.native_thread_pools.cache_clear()
