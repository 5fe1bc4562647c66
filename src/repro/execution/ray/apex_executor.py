"""ApexExecutor: distributed prioritized experience replay on raylite.

Reproduces the coordination loop the paper benchmarks in Fig. 6/7:
workers collect n-step-adjusted, pre-prioritized sample batches in
parallel; completed batches are routed round-robin to replay shards; the
learner pulls prioritized batches, trains through
``update_from_external`` and pushes priority corrections back to the
owning shard; worker weights are refreshed every ``weight_sync_steps``
learner updates.

``worker_mode="rlgraph"`` uses batched post-processing (one executor call
per batch); ``worker_mode="rllib_like"`` switches workers to the
incremental multiple-calls-per-batch pattern the paper identifies as
RLlib's bottleneck — this is the E3/E4 comparison axis.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import raylite
from repro.execution.checkpointing import (
    CheckpointManager,
    resolve_checkpoint_spec,
)
from repro.execution.learner_group import LearnerGroup, resolve_learner_spec
from repro.execution.parallel import (
    notify_weight_listeners,
    resolve_parallel_spec,
)
from repro.execution.ray.actors import ApexWorkerActor, ReplayShardActor
from repro.execution.supervision import (
    Pump,
    ReplicaFactory,
    Supervisor,
    broadcast,
    gather,
)
from repro.utils.errors import RLGraphError


class ApexResult:
    """Outcome of one executor workload."""

    def __init__(self):
        self.env_frames = 0
        self.learner_updates = 0
        self.wall_time = 0.0
        self.mean_worker_return: Optional[float] = None
        self.reward_timeline: List[tuple] = []  # (seconds, mean return)
        self.loss_timeline: List[tuple] = []

    @property
    def env_frames_per_second(self) -> float:
        return self.env_frames / self.wall_time if self.wall_time else 0.0

    def as_dict(self):
        return {
            "env_frames": self.env_frames,
            "env_frames_per_second": self.env_frames_per_second,
            "learner_updates": self.learner_updates,
            "wall_time": self.wall_time,
            "mean_worker_return": self.mean_worker_return,
        }


class ApexExecutor:
    """Centralized-control executor for distributed prioritized replay."""

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, num_workers: int = 2,
                 envs_per_worker: int = 4, num_replay_shards: int = 4,
                 task_size: int = 200, batch_size: int = 64,
                 replay_capacity: int = 50_000, n_step: int = 3,
                 discount: float = 0.99, learning_starts: int = 500,
                 weight_sync_steps: int = 10,
                 worker_mode: str = "rlgraph",
                 frame_multiplier: int = 1,
                 seed: int = 0, vector_env_spec=None, parallel_spec=None,
                 weight_listeners=None, supervision_spec=None,
                 checkpoint_spec=None, learner_spec=None):
        if worker_mode not in ("rlgraph", "rllib_like"):
            raise RLGraphError(f"Unknown worker_mode {worker_mode!r}")
        self.learner = learner_agent
        # Eval-during-training hook: every weight broadcast also goes to
        # these listeners (e.g. a serving PolicyServer).
        self.weight_listeners = list(weight_listeners or [])
        self.parallel = resolve_parallel_spec(parallel_spec)
        # Data-parallel learner group: replay-sampled batches shard over
        # K replicas (same batch_splitter policy as everywhere else),
        # gradients all-reduce over shared memory, and the group answers
        # update/get_weights/full_state exactly like one learner —
        # priorities and checkpoints flow through unchanged.
        lspec = resolve_learner_spec(learner_spec)
        if lspec is not None:
            self.learner = LearnerGroup(
                learner_agent, agent_factory=agent_factory, spec=lspec,
                parallel_spec=self.parallel,
                supervision_spec=supervision_spec)
        self.batch_size = int(batch_size)
        self.task_size = int(task_size)
        self.learning_starts = int(learning_starts)
        self.weight_sync_steps = int(weight_sync_steps)
        self.envs_per_worker = int(envs_per_worker)
        # Atari frame-skip: env frames per sample step (paper counts
        # frames *including* skips).
        self.frame_multiplier = int(frame_multiplier)

        batched = worker_mode == "rlgraph"
        # parallel_spec selects the raylite backend: thread actors (seed
        # behavior) or process actors whose sample batches travel through
        # shared memory and decode zero-copy on the learner side.
        # Actors are built through ReplicaFactory recipes so the
        # supervisor can restart a crashed one with the exact same
        # configuration.
        self.supervisor = Supervisor(supervision_spec)
        self.workers = self.supervisor.spawn({
            f"apex-worker-{i}": ReplicaFactory(
                self.parallel, ApexWorkerActor,
                agent_factory, env_factory,
                num_envs=envs_per_worker, n_step=n_step,
                discount=discount,
                worker_side_prioritization=True,
                batched_postprocessing=batched,
                worker_index=i,
                vector_env_spec=vector_env_spec,
                parallel_spec=self.parallel)
            for i in range(num_workers)
        }, on_restart=self._sync_restarted_worker)
        # A restarted shard rejoins EMPTY: its samples are lost (as in
        # Ray), but inserts/samples flow again and the run survives.
        self.shards = self.supervisor.spawn({
            f"replay-shard-{i}": ReplicaFactory(
                self.parallel, ReplayShardActor,
                capacity=replay_capacity, seed=seed + 17 * i,
                min_sample_size=batch_size)
            for i in range(num_replay_shards)
        })
        self._shard_rr = 0
        ckpt = resolve_checkpoint_spec(checkpoint_spec)
        self.checkpoints = CheckpointManager(ckpt) if ckpt else None

    # -- fault tolerance ------------------------------------------------
    def _sync_restarted_worker(self, handle) -> None:
        """Re-push the current flat weight vector so a rejoined worker
        resumes at the current version, not its factory-fresh init."""
        handle.set_weights.remote(self.learner.get_weights(flat=True))

    # -- checkpoint/resume ----------------------------------------------
    def _checkpoint_payload(self) -> Dict:
        payload = {"learner": self.learner.full_state(),
                   "shard_rr": self._shard_rr}
        try:
            payload["shards"] = raylite.get(
                [s.state_dict.remote() for s in self.shards], timeout=30.0)
        except Exception:  # a shard mid-restart: weights still save
            payload["shards"] = None
        return payload

    def restore_latest(self) -> bool:
        """Restore the newest checkpoint (learner full state + replay
        shards) and resync all workers to the restored weights.  Returns
        False when the directory has no checkpoint yet."""
        if self.checkpoints is None:
            raise RLGraphError("ApexExecutor has no checkpoint_spec")
        latest = self.checkpoints.load_latest()
        if latest is None:
            return False
        payload, _ = latest
        self.learner.restore_full_state(payload["learner"])
        self._shard_rr = int(payload.get("shard_rr", 0))
        shard_states = payload.get("shards")
        if shard_states:
            raylite.get([s.load_state_dict.remote(state) for s, state
                         in zip(self.shards, shard_states)], timeout=30.0)
        broadcast(self.workers, "set_weights",
                  self.learner.get_weights(flat=True))
        return True

    # ------------------------------------------------------------------
    def execute_workload(self, num_samples: Optional[int] = None,
                         duration: Optional[float] = None,
                         updates_enabled: bool = True) -> ApexResult:
        """Run the coordination loop until ``num_samples`` collected or
        ``duration`` seconds elapsed.

        Termination contract: before returning, the armed ``sample`` is
        drained and the update it pays for runs.  A call that reached
        ``learning_starts`` without applying an update then asks each
        shard once more, so if any shard holds ``>= batch_size`` rows
        the call returns with at least one learner update.
        """
        if num_samples is None and duration is None:
            raise RLGraphError("Provide num_samples or duration")
        result = ApexResult()
        t_start = time.perf_counter()

        # One collect task in flight per worker and at most one sample
        # request at a shard.  A task lost with a crashed incarnation is
        # re-armed on the slot's replacement inside the pump; without
        # supervision the failure raises here.
        collects, samples = Pump(), Pump()
        for worker in self.workers:
            collects.arm(worker, "collect", self.task_size)
        samples_collected = 0
        updates_since_sync = 0

        def done() -> bool:
            if num_samples is not None and samples_collected >= num_samples:
                return True
            if duration is not None and \
                    time.perf_counter() - t_start >= duration:
                return True
            return False

        def next_shard():
            return self.shards[self._shard_rr % len(self.shards)]

        def learn(shard, sampled) -> None:
            nonlocal updates_since_sync
            if sampled is None:  # shard underfilled (or restarted)
                return
            records, idx, weights = sampled
            batch = dict(records)
            batch["importance_weights"] = weights
            loss, td = self.learner.update(batch)
            # If the shard restarted meanwhile these indices are
            # stale; harmless — a shard samples only the prefix it
            # has refilled, and inserts reset priorities.
            shard.update_priorities.remote(idx, np.abs(td) + 1e-6)
            result.learner_updates += 1
            updates_since_sync += 1
            result.loss_timeline.append(
                (time.perf_counter() - t_start, loss))
            if self.checkpoints is not None:
                self.checkpoints.maybe_save(
                    self._checkpoint_payload, result.learner_updates)

        while not done():
            # 0. Supervision: restart any crashed actor (bounded backoff,
            # weights re-pushed by the on_restart hook).
            self.supervisor.probe()

            # 1. Reap completed worker tasks, re-arm workers immediately.
            for worker, batch in collects.reap(timeout=0.05):
                samples_collected += len(batch["rewards"])
                next_shard().insert.remote(batch)
                self._shard_rr += 1
                collects.arm(worker, "collect", self.task_size)

            # 2. Learner step: pull a prioritized batch from a shard.
            if updates_enabled and samples_collected >= self.learning_starts:
                if not samples:
                    samples.arm(next_shard(), "sample", self.batch_size)
                for shard, sampled in samples.reap(timeout=0):
                    learn(shard, sampled)

            # 3. Broadcast weights — as ONE flat ndarray (the learner's
            # deterministic flat layout matches the workers', same agent
            # class), so the process backend ships exactly one
            # shared-memory block per push and the receiver scatters it
            # with a handful of memcpys instead of a sorted dict walk.
            if updates_since_sync >= self.weight_sync_steps:
                updates_since_sync = 0
                weights = self.learner.get_weights(flat=True)
                broadcast(self.workers, "set_weights", weights)
                notify_weight_listeners(self.weight_listeners, weights)

        # Termination contract (docstring).  The retries are submitted
        # after every insert and mailboxes are FIFO, so each retried
        # shard answers with all the rows routed to it.
        if updates_enabled and samples_collected >= self.learning_starts:
            for retry in [None, *self.shards]:
                if retry is not None:
                    if result.learner_updates:
                        break
                    samples.arm(retry, "sample", self.batch_size)
                for shard, sampled in samples.drain(timeout=30.0):
                    learn(shard, sampled)

        # Drain: collect final stats from workers.  Supervised runs
        # tolerate a worker dying during the drain (its frames are lost).
        stats = gather(self.workers, "get_stats")
        result.wall_time = time.perf_counter() - t_start
        result.env_frames = sum(s["env_frames"] for s in stats) \
            * self.frame_multiplier
        result.mean_worker_return = _mean_recent_return(stats)
        return result

    def reward_snapshot(self) -> Optional[float]:
        """Mean of each worker's recent episode returns (the paper's
        "mean worker rewards" y-axis in Figs. 7b/8)."""
        return _mean_recent_return(gather(self.workers, "get_stats"))


def _mean_recent_return(stats, last_n: int = 20) -> Optional[float]:
    """Average the per-worker tails so one fast-looping worker cannot
    drown out the others' recent episodes."""
    per_worker = [s["episode_returns"][-last_n:] for s in stats
                  if s["episode_returns"]]
    if not per_worker:
        return None
    return float(np.mean([np.mean(tail) for tail in per_worker]))


