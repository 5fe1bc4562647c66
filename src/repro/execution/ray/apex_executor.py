"""ApexExecutor: distributed prioritized experience replay on raylite.

Reproduces the coordination loop the paper benchmarks in Fig. 6/7:
workers collect n-step-adjusted, pre-prioritized sample batches in
parallel; completed batches are routed round-robin to replay shards; the
learner pulls prioritized batches — as many as ``SAMPLES_PER_INSERT``
rows per inserted row pay for — trains through ``update_from_external``
and pushes priority corrections back to the owning shard; worker
weights are refreshed every ``weight_sync_steps`` learner updates.

``worker_mode="rlgraph"`` uses batched post-processing (one executor call
per batch); ``worker_mode="rllib_like"`` switches workers to the
incremental multiple-calls-per-batch pattern the paper identifies as
RLlib's bottleneck — this is the E3/E4 comparison axis.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro import raylite
from repro.execution.executor import Executor, RunResult, recent_mean
from repro.execution.ray.actors import ApexWorkerActor, ReplayShardActor
from repro.execution.supervision import Pump, ReplicaFactory, broadcast, gather
from repro.utils.errors import RLGraphError

logger = logging.getLogger(__name__)

#: Sample requests kept in flight across the shards: one is trained on
#: while the next is already sampled, and a deeper queue would only add
#: staleness — the replay ratio, not the depth, bounds the learner.
SAMPLES_IN_FLIGHT = 2

#: Rows the learner samples per row inserted (Reverb's rate limiter):
#: the learner's share of the driver, stated.  0.25 replaces the ~0.15
#: an old 50 ms poll happened to allow; higher ratios shorten the update
#: gap but take more of the GIL from thread actors (docs/benchmarks.md).
SAMPLES_PER_INSERT = 0.25


class ApexExecutor(Executor):
    """Centralized-control executor for distributed prioritized replay."""

    PATTERN = "apex"

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
        super().__init__(learner_agent, agent_factory, parallel_spec,
                         weight_listeners, supervision_spec,
                         checkpoint_spec, learner_spec)
        self.batch_size = int(batch_size)
        self.task_size = int(task_size)
        self.learning_starts = int(learning_starts)
        self.weight_sync_steps = int(weight_sync_steps)
        # Atari frame-skip: env frames per sample step (paper counts
        # frames *including* skips).
        self.frame_multiplier = int(frame_multiplier)

        # parallel_spec selects the raylite backend: thread actors (seed
        # behavior) or process actors whose sample batches travel through
        # shared memory and decode zero-copy on the learner side.
        self.workers = self.supervisor.spawn({
            f"apex-worker-{i}": ReplicaFactory(
                self.parallel, ApexWorkerActor, agent_factory, env_factory,
                num_envs=envs_per_worker, n_step=n_step, discount=discount,
                worker_side_prioritization=True,
                batched_postprocessing=worker_mode == "rlgraph",
                worker_index=i, vector_env_spec=vector_env_spec,
                parallel_spec=self.parallel)
            for i in range(num_workers)
        }, on_restart=self._sync_restarted)
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

    # -- checkpoint: the replay shards beside the learner ---------------
    def extra_state(self) -> Dict:
        try:
            shards = raylite.get(
                [s.state_dict.remote() for s in self.shards], timeout=30.0)
        except Exception as exc:  # a shard mid-restart: weights still save
            logger.warning("Ape-X checkpoint saved without its replay "
                           "shards: %r", exc)
            shards = None
        return {"shard_rr": self._shard_rr, "shards": shards}

    def load_extra_state(self, payload: Dict) -> None:
        self._shard_rr = int(payload["shard_rr"])
        if payload["shards"] is None:  # saved mid-restart: start empty
            return
        raylite.get([s.load_state_dict.remote(state) for s, state
                     in zip(self.shards, payload["shards"])], timeout=30.0)

    # ------------------------------------------------------------------
    def execute_workload(self, num_samples: Optional[int] = None,
                         duration: Optional[float] = None,
                         updates_enabled: bool = True) -> RunResult:
        """Run the coordination loop until ``num_samples`` collected or
        ``duration`` seconds elapsed.

        The learner is bounded by the replay ratio: a sample request is
        armed only while rows trained on, plus rows armed, plus one
        more batch stay within ``SAMPLES_PER_INSERT`` times the rows
        inserted by this call.

        Termination contract: before returning, the armed samples are
        drained and the updates they pay for run.  A call that reached
        ``learning_starts`` without applying an update then asks each
        shard once more, so if any shard holds ``>= batch_size`` rows
        the call returns with at least one learner update.
        """
        if num_samples is None and duration is None:
            raise RLGraphError("Provide num_samples or duration")
        result = RunResult()

        # One pump carries both streams, told apart by their handle: a
        # collect task per worker and up to SAMPLES_IN_FLIGHT sample
        # requests across the shards.  A task lost with a crashed
        # incarnation is re-armed on the slot's replacement inside the
        # pump (slot handles restart at submit); without supervision
        # the failure raises here.
        tasks = Pump()
        for worker in self.workers:
            tasks.arm(worker, "collect", self.task_size)
        sampling = 0  # sample requests in flight
        sample_rr = 0
        updates_since_sync = 0
        # A shard answered None (underfilled, or restarted empty): ask
        # again only after the next insert, so an empty replay cannot
        # spin the learner against the actors.
        starved = False

        def done() -> bool:
            if num_samples is not None and result.rows_inserted >= num_samples:
                return True
            if duration is not None and result.elapsed() >= duration:
                return True
            return False

        def arm_sample(shard) -> None:
            nonlocal sampling
            tasks.arm(shard, "sample", self.batch_size)
            sampling += 1

        def learn(shard, sampled) -> None:
            nonlocal sampling, updates_since_sync, starved
            sampling -= 1
            if sampled is None:
                starved = True
                return
            records, idx, weights = sampled
            batch = dict(records)
            batch["importance_weights"] = weights
            loss, td = self.learner.update(batch)
            # If the shard restarted meanwhile these indices are
            # stale; harmless — a shard samples only the prefix it
            # has refilled, and inserts reset priorities.
            shard.update_priorities.remote(idx, np.abs(td) + 1e-6)
            updates_since_sync += 1
            result.rows_sampled += len(idx)
            self.count_update(result, loss)

        while not done():
            # One wait over both streams: a finished (or failed) collect
            # or sample wakes the loop, and nothing else does.
            timeout = (None if duration is None
                       else max(0.0, duration - result.elapsed()))
            for handle, reply in tasks.reap(timeout):
                if handle in self.shards:
                    learn(handle, reply)
                    continue
                # Route a completed batch round-robin into the shards
                # and re-arm its worker.
                result.rows_inserted += len(reply["rewards"])
                self.shards[self._shard_rr % len(self.shards)].insert.remote(
                    reply)
                self._shard_rr += 1
                starved = False
                tasks.arm(handle, "collect", self.task_size)

            # Arm the sample requests the replay ratio pays for.
            if (updates_enabled and not starved
                    and result.rows_inserted >= self.learning_starts):
                budget = SAMPLES_PER_INSERT * result.rows_inserted
                while (sampling < SAMPLES_IN_FLIGHT
                       and result.rows_sampled
                       + (sampling + 1) * self.batch_size <= budget):
                    arm_sample(self.shards[sample_rr % len(self.shards)])
                    sample_rr += 1

            # Publish a version and broadcast it as ONE flat ndarray
            # (the learner's flat layout matches the workers'), so the
            # process backend ships one shared-memory block per push.
            if updates_since_sync >= self.weight_sync_steps:
                updates_since_sync = 0
                broadcast(self.workers, "set_weights", *self.publish())

        # Termination contract (docstring).  The retries are submitted
        # after every insert and mailboxes are FIFO, so each retried
        # shard answers with all the rows routed to it.  Collects that
        # land meanwhile are dropped: their rows are not inserted.
        if updates_enabled and result.rows_inserted >= self.learning_starts:
            retries = iter(self.shards)
            deadline = time.monotonic() + 30.0
            while True:
                if not sampling:
                    retry = next(retries, None)
                    if retry is None or result.learner_updates:
                        break
                    arm_sample(retry)
                    deadline = time.monotonic() + 30.0
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                for handle, reply in tasks.reap(remaining):
                    if handle in self.shards:
                        learn(handle, reply)

        stats = self.finish(result)
        result.env_frames *= self.frame_multiplier
        result.mean_return = _mean_recent_return(stats)
        return result

    def reward_snapshot(self) -> Optional[float]:
        """Mean of each worker's recent episode returns (the paper's
        "mean worker rewards" y-axis in Figs. 7b/8)."""
        return _mean_recent_return(gather(self.workers, "get_stats"))


def _mean_recent_return(stats, last_n: int = 20) -> Optional[float]:
    """Average the per-worker tails so one fast-looping worker cannot
    drown out the others' recent episodes."""
    tails = [recent_mean(s["episode_returns"], last_n) for s in stats
             if s["episode_returns"]]
    return float(np.mean(tails)) if tails else None


