"""Checkpoint round-trip: the per-variable dict path PR 4 kept for
checkpoints, tested end to end across every agent.

``get_weights()`` dict -> ``export_model`` (pickle) -> ``import_model``
into a *differently initialized* agent -> ``set_weights`` -> the flat
push vector must match the source bitwise.  This is the contract that
lets a training run checkpoint through the dict path and a serving /
actor fleet restore through the flat path without drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import (
    ActorCriticAgent,
    DQNAgent,
    IMPALAAgent,
    PPOAgent,
    SACAgent,
)
from repro.backend import XGRAPH, XTAPE
from repro.spaces import FloatBox, IntBox

STATE_DIM = 4
NUM_ACTIONS = 3
ACTION_DIM = 2
NET = [{"type": "dense", "units": 12, "activation": "tanh"}]


def _make(kind: str, seed: int, backend: str = XGRAPH):
    common = dict(state_space=FloatBox(shape=(STATE_DIM,)),
                  action_space=IntBox(NUM_ACTIONS), network_spec=NET,
                  seed=seed, backend=backend)
    if kind == "dqn":
        return DQNAgent(memory_capacity=32, batch_size=4, **common)
    if kind == "a2c":
        return ActorCriticAgent(**common)
    if kind == "impala":
        return IMPALAAgent(**common)
    if kind == "ppo":
        return PPOAgent(**common)
    if kind == "sac":
        common["action_space"] = FloatBox(
            low=-np.ones(ACTION_DIM, np.float32),
            high=np.ones(ACTION_DIM, np.float32))
        return SACAgent(memory_capacity=32, batch_size=4, **common)
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["dqn", "a2c", "impala", "ppo", "sac"])
def test_export_import_flat_parity(kind, tmp_path):
    source = _make(kind, seed=1)
    source.timesteps, source.updates = 123, 7
    path = str(tmp_path / f"{kind}.pkl")
    source.export_model(path)

    target = _make(kind, seed=999)
    # Perturb so the restore demonstrably wins over the local state.
    target.set_weights(target.get_weights(flat=True) + 1.0)
    assert not np.array_equal(target.get_weights(flat=True),
                              source.get_weights(flat=True))
    target.import_model(path)

    # The restored dict lands bitwise on the flat push vector.
    np.testing.assert_array_equal(target.get_weights(flat=True),
                                  source.get_weights(flat=True))
    assert target.timesteps == 123 and target.updates == 7


@pytest.mark.parametrize("kind", ["dqn", "a2c", "impala", "ppo", "sac"])
def test_dict_to_flat_push_roundtrip(kind, tmp_path):
    """dict -> save -> load -> set_weights -> flat push -> scatter into
    a third agent: every hop preserves the weights bitwise."""
    source = _make(kind, seed=3)
    path = str(tmp_path / f"{kind}.pkl")
    source.export_model(path)

    restored = _make(kind, seed=100)
    restored.import_model(path)
    flat = restored.get_weights(flat=True)
    assert flat.dtype == np.float32 and flat.ndim == 1

    actor = _make(kind, seed=200)
    actor.set_weights(flat)  # the executor push path
    np.testing.assert_array_equal(actor.get_weights(flat=True), flat)
    # ... and the dict views agree variable by variable.
    src_dict = source.get_weights()
    actor_dict = actor.get_weights()
    assert sorted(src_dict) == sorted(actor_dict)
    for name, value in src_dict.items():
        np.testing.assert_array_equal(actor_dict[name], value,
                                      err_msg=f"{kind}:{name}")


@pytest.mark.parametrize("kind", ["dqn", "a2c", "sac"])
def test_cross_backend_restore(kind, tmp_path):
    """A checkpoint written by the symbolic backend restores into the
    eager backend (and vice versa) — layouts are name-sorted, not
    backend-specific."""
    source = _make(kind, seed=5, backend=XGRAPH)
    path = str(tmp_path / f"{kind}.pkl")
    source.export_model(path)
    eager = _make(kind, seed=6, backend=XTAPE)
    eager.import_model(path)
    np.testing.assert_array_equal(eager.get_weights(flat=True),
                                  source.get_weights(flat=True))


# ---------------------------------------------------------------------------
# CheckpointManager: atomic saves, pruning, interval gating
# ---------------------------------------------------------------------------
def test_checkpoint_manager_save_load_latest(tmp_path):
    from repro.execution.checkpointing import CheckpointManager

    manager = CheckpointManager(str(tmp_path))
    manager.save({"value": 1}, step=10)
    manager.save({"value": 2}, step=20)
    payload, step = manager.load_latest()
    assert (payload, step) == ({"value": 2}, 20)
    assert manager.steps() == [10, 20]
    # No stray temp files survive an atomic save.
    assert not any(f.name.endswith(".tmp") for f in tmp_path.iterdir())


def test_checkpoint_manager_prunes_to_keep(tmp_path):
    from repro.execution.checkpointing import CheckpointManager

    manager = CheckpointManager({"directory": str(tmp_path), "keep": 2})
    for step in (1, 2, 3, 4):
        manager.save({"step": step}, step)
    assert manager.steps() == [3, 4]


def test_checkpoint_manager_interval_gates_lazy_payload(tmp_path):
    from repro.execution.checkpointing import CheckpointManager

    manager = CheckpointManager(
        {"directory": str(tmp_path), "interval": 10})
    captures = []

    def payload():
        captures.append(1)
        return {"n": len(captures)}

    assert manager.maybe_save(payload, step=3) is None
    assert manager.maybe_save(payload, step=10) is not None
    assert manager.maybe_save(payload, step=15) is None
    assert manager.maybe_save(payload, step=20) is not None
    # Capturing full state is not free: only actual saves paid for it.
    assert len(captures) == 2


def test_checkpoint_spec_resolution():
    from repro.execution.checkpointing import (
        CheckpointSpec,
        resolve_checkpoint_spec,
    )
    from repro.utils.errors import RLGraphError

    assert resolve_checkpoint_spec(None) is None
    assert resolve_checkpoint_spec(False) is None
    assert resolve_checkpoint_spec("/tmp/x").directory == "/tmp/x"
    spec = CheckpointSpec("/tmp/x", interval=5, keep=1)
    assert resolve_checkpoint_spec(spec) is spec
    with pytest.raises(RLGraphError):
        resolve_checkpoint_spec({"directory": "/tmp/x", "bogus": 1})
    with pytest.raises(RLGraphError):
        CheckpointSpec("/tmp/x", interval=0)
    with pytest.raises(RLGraphError):
        CheckpointSpec("")


# ---------------------------------------------------------------------------
# Resume equivalence: checkpoint -> resume == uninterrupted, bitwise
# ---------------------------------------------------------------------------
def _resume_trainer(checkpoint=None):
    """A fully deterministic trainer: seeded agent + env, and the eager
    seed counter reset so every construction starts from the same
    stream (exploration noise is the first divergence risk)."""
    from repro.backend import functional
    from repro.environments import CartPole
    from repro.execution.checkpointing import ResumableTrainer

    functional._eager_seed_counter[0] = 0
    env = CartPole(seed=5)
    agent = DQNAgent(state_space=env.state_space,
                     action_space=env.action_space, network_spec=NET,
                     seed=11, backend=XGRAPH, optimize="basic",
                     memory_capacity=128, batch_size=8,
                     observe_flush_size=8)
    return ResumableTrainer(agent, env, learning_starts=24,
                            update_interval=2, checkpoint=checkpoint)


def test_resume_is_bitwise_identical_to_uninterrupted(tmp_path):
    """Train N, checkpoint, resume in a FRESH trainer, train N more:
    weights, counters and the complete variable set (optimizer slots,
    target net, replay buffer + cursors) match an uninterrupted 2N run
    bitwise — every RNG in the stack restores exactly."""
    full = _resume_trainer()
    full.run(120)

    part = _resume_trainer(str(tmp_path / "ck"))
    part.run(60)
    part.checkpoint()

    resumed = _resume_trainer(str(tmp_path / "ck"))
    assert resumed.resume()
    assert resumed.step == 60
    resumed.run(60)

    np.testing.assert_array_equal(resumed.agent.get_weights(flat=True),
                                  full.agent.get_weights(flat=True))
    assert resumed.agent.timesteps == full.agent.timesteps == 120
    assert resumed.agent.updates == full.agent.updates > 0
    # Beyond the policy weights: EVERY variable agrees (the optimizer
    # slabs and in-graph replay state are where drift would hide).
    state_a = resumed.agent.full_state()
    state_b = full.agent.full_state()
    assert sorted(state_a["variables"]) == sorted(state_b["variables"])
    for name, value in state_b["variables"].items():
        np.testing.assert_array_equal(state_a["variables"][name], value,
                                      err_msg=name)


def test_resume_from_nothing_returns_false(tmp_path):
    trainer = _resume_trainer(str(tmp_path / "empty"))
    assert trainer.resume() is False


# ---------------------------------------------------------------------------
# SAC full-state resume: twin critics, targets, temperature, optimizer slabs
# ---------------------------------------------------------------------------
def _sac_batches(n_batches: int):
    rng = np.random.default_rng(42)
    out = []
    for _ in range(n_batches):
        n = 4
        out.append({
            "states": rng.standard_normal((n, STATE_DIM)).astype(np.float32),
            "actions": rng.uniform(-1, 1, (n, ACTION_DIM)).astype(np.float32),
            "rewards": rng.standard_normal(n).astype(np.float32),
            "terminals": rng.random(n) < 0.2,
            "next_states": rng.standard_normal((n, STATE_DIM))
            .astype(np.float32),
        })
    return out


@pytest.mark.parametrize("backend", [XGRAPH, XTAPE])
def test_sac_full_state_resume_bitwise(backend):
    """full_state after K updates -> restore into a fresh same-config
    agent -> K more updates lands bitwise on an uninterrupted 2K run.
    The snapshot must carry the twin-critic and target-critic variables,
    the temperature, and the optimizer slot slabs — and the update
    counter it restores re-keys the host-side noise stream, so the
    resumed run draws the exact same reparameterization noise."""
    batches = _sac_batches(6)

    full = _make("sac", seed=11, backend=backend)
    for batch in batches:
        full.update(batch)

    part = _make("sac", seed=11, backend=backend)
    for batch in batches[:3]:
        part.update(batch)
    snapshot = part.full_state()

    # The snapshot reaches every layer of SAC state, not just the policy.
    names = set(snapshot["variables"])
    for fragment in ("q1/", "q2/", "target-q1/", "target-q2/",
                     "temperature/log-alpha"):
        assert any(fragment in name for name in names), fragment

    # Same config INCLUDING seed (the restore contract): the seed keys
    # the host-side noise stream. Perturb the fresh weights so the
    # restore demonstrably wins over local state.
    resumed = _make("sac", seed=11, backend=backend)
    resumed.set_weights(resumed.get_weights(flat=True) + 1.0)
    resumed.restore_full_state(snapshot)
    assert resumed.updates == 3
    for batch in batches[3:]:
        resumed.update(batch)

    np.testing.assert_array_equal(resumed.get_weights(flat=True),
                                  full.get_weights(flat=True))
    state_a, state_b = resumed.full_state(), full.full_state()
    assert sorted(state_a["variables"]) == sorted(state_b["variables"])
    for name, value in state_b["variables"].items():
        np.testing.assert_array_equal(state_a["variables"][name], value,
                                      err_msg=name)


# ---------------------------------------------------------------------------
# Checkpoint header and the executors' one restore path
# ---------------------------------------------------------------------------
def test_checkpoint_manager_refuses_a_bare_record(tmp_path):
    import pickle

    from repro.execution.checkpointing import (
        CheckpointError,
        CheckpointManager,
    )
    from repro.utils.errors import RLGraphError

    manager = CheckpointManager(str(tmp_path))
    with open(tmp_path / "ckpt-000000000007.pkl", "wb") as f:
        pickle.dump({"step": 7, "payload": {"learner": {}}}, f)
    with pytest.raises(CheckpointError) as info:
        manager.load_latest()
    assert isinstance(info.value, RLGraphError)


# Module-level factories: process actors ship their construction recipe.
def _executor_env(seed):
    from repro.environments import GridWorld
    return GridWorld(seed=seed)


def _apex_agent(worker_index=0):
    from repro.agents import ApexAgent
    return ApexAgent(state_space=(16,), action_space=IntBox(4),
                     network_spec=[{"type": "dense", "units": 16}], seed=1)


def _impala_agent():
    return IMPALAAgent(state_space=(16,), action_space=IntBox(4),
                       network_spec=[{"type": "dense", "units": 16,
                                      "activation": "tanh"}], seed=2)


def _executor(pattern, backend="thread", checkpoint=None, cls=None):
    from repro.execution.impala_runner import IMPALARunner
    from repro.execution.ray import ApexExecutor

    if pattern == "apex":
        return (cls or ApexExecutor)(
            learner_agent=_apex_agent(), agent_factory=_apex_agent,
            env_factory=_executor_env, num_workers=2, envs_per_worker=2,
            num_replay_shards=2, task_size=40, batch_size=16,
            replay_capacity=4096, learning_starts=80, weight_sync_steps=5,
            parallel_spec=backend, checkpoint_spec=checkpoint)
    return IMPALARunner(
        learner_agent=_impala_agent(), agent_factory=_impala_agent,
        env_factory=_executor_env, num_actors=2, rollout_length=8,
        batch_size=2, parallel_spec=backend, checkpoint_spec=checkpoint)


def _assert_same(a, b, path="state"):
    """Nested dicts/lists/arrays/scalars equal, arrays bitwise."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}/{i}")
    else:
        np.testing.assert_array_equal(a, b, err_msg=path)


@pytest.mark.mp_timeout(240)
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pattern", ["apex", "impala"])
def test_executor_resume(pattern, backend, tmp_path):
    """Train with a checkpoint_spec, then restore into a fresh executor
    of the same config: the learner's full state is the saved one
    bitwise, every actor acts with the learner's weights at the fresh
    version, and Ape-X's replay shards come back as saved."""
    from repro import raylite

    spec = {"directory": str(tmp_path), "interval": 2}
    try:
        trained = _executor(pattern, backend, spec)
        if pattern == "apex":
            trained.execute_workload(duration=3.0)
        else:
            trained.run(duration=3.0)
        assert trained.checkpoints.steps()
        saved, _ = trained.checkpoints.load_latest()
        assert saved["pattern"] == pattern
        raylite.shutdown()

        fresh = _executor(pattern, backend, spec)
        assert fresh.restore_latest() is True
        _assert_same(fresh.learner.full_state(), saved["learner"])
        weights = fresh.learner.get_weights(flat=True)
        actors = fresh.workers if pattern == "apex" else fresh.actor_handles
        pushed = raylite.get([h.get_weights.remote() for h in actors],
                             timeout=30.0)
        assert len(pushed) == 2
        for actor_weights, version in pushed:
            np.testing.assert_array_equal(actor_weights, weights)
            assert version == fresh._weights_version == 1
        if pattern == "apex":
            assert saved["shards"] is not None
            shards = raylite.get([s.state_dict.remote()
                                  for s in fresh.shards], timeout=30.0)
            _assert_same(shards, saved["shards"], "shards")
    finally:
        raylite.shutdown()


@pytest.mark.parametrize("pattern", ["apex", "impala"])
def test_executor_restore_without_a_checkpoint(pattern, tmp_path):
    from repro import raylite
    from repro.utils.errors import RLGraphError

    try:
        assert _executor(pattern, checkpoint=str(tmp_path)) \
            .restore_latest() is False
        with pytest.raises(RLGraphError):
            _executor(pattern).restore_latest()
    finally:
        raylite.shutdown()


def test_executor_checkpoints_load_by_pattern_not_class(tmp_path):
    """The RLlib-like baseline's checkpoints restore into ApexExecutor
    (same pattern); an IMPALA checkpoint does not."""
    from repro import raylite
    from repro.baselines import RLlibLikeApexExecutor
    from repro.execution.checkpointing import CheckpointError

    apex_dir, impala_dir = str(tmp_path / "apex"), str(tmp_path / "impala")
    try:
        baseline = _executor("apex", checkpoint=apex_dir,
                             cls=RLlibLikeApexExecutor)
        baseline.checkpoints.save(baseline._checkpoint_payload(), 1)
        assert _executor("apex", checkpoint=apex_dir).restore_latest()

        impala = _executor("impala", checkpoint=impala_dir)
        impala.checkpoints.save(impala._checkpoint_payload(), 1)
        with pytest.raises(CheckpointError, match="impala"):
            _executor("apex", checkpoint=impala_dir).restore_latest()
    finally:
        raylite.shutdown()


def test_apex_checkpoint_without_shards_warns_and_restores(tmp_path, caplog):
    """A shard that cannot answer at save time drops the replay from
    the checkpoint with a logged warning naming the cause; the weights
    still save and restore."""
    import logging

    from repro import raylite

    class _ShardMidRestart:
        def __getattr__(self, name):
            raise RuntimeError("shard mid-restart")

    try:
        executor = _executor("apex", checkpoint=str(tmp_path))
        shards, executor.shards = executor.shards, [_ShardMidRestart()]
        with caplog.at_level(logging.WARNING):
            executor.checkpoints.save(executor._checkpoint_payload(), 1)
        assert "shard mid-restart" in caplog.text
        executor.shards = shards
        assert executor.checkpoints.load_latest()[0]["shards"] is None
        assert _executor("apex", checkpoint=str(tmp_path)).restore_latest()
    finally:
        raylite.shutdown()
