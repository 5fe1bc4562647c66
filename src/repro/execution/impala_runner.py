"""IMPALA actor-learner runner (paper §5.1, Fig. 9).

Actors roll the policy for ``rollout_length`` steps; a feeder thread
moves their time-major rollouts into a globally shared blocking FIFO
queue; the learner dequeues a batch of rollouts, passes it through a
one-slot staging area (to hide "device transfer" latency) and applies a
v-trace update.  Actors act with the newest weights the feeder pushed
them — the weight lag is what v-trace's importance correction absorbs.

``redundant_assignments=True`` reproduces the inefficiency the paper
found in DeepMind's reference actor ("unneeded variable assignments in
the actor", §5.1): every acting step re-assigns the full policy weight
set, exactly the memcpy the reference implementation wasted. Removing it
"yielded 20% improvement in a single-worker setting" — bench E8.

Every actor is an :class:`IMPALAActorCore` on a raylite actor, of the
backend ``parallel_spec`` selects (thread by default, ``"process"`` for
real multi-core acting); both run the same feeder path.  The feeder
keeps **two** ``rollout()`` tasks in flight per actor (so the next one
is already queued when the actor replies), drains completed rollouts
(process actors ship them through shared memory, decoded zero-copy) into
the FIFO queue, and pushes the newest weight version at each reply,
before the re-arm.  The push queues behind the rollout already in the
mailbox, so actors act at most one rollout behind the reply that
delivered their weights — lag v-trace corrects for, and which
:meth:`IMPALARunner.run` reports (``policy_lag_mean`` /
``policy_lag_max``).  With process actors, for the duration of ``run()``
the driver's BLAS/OpenMP pools are sized to the cores those actors
leave free (:func:`~repro.utils.procutil.native_threads_beside`).

Every rollout carries the weight version its actor acted with; the
policy lag of a rollout is the number of versions the learner has
published between that version and the update that trains on it.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.execution.checkpointing import (
    CheckpointManager,
    resolve_checkpoint_spec,
)
from repro.execution.parallel import (
    notify_weight_listeners,
    resolve_parallel_spec,
)
from repro.execution.supervision import (
    Pump,
    ReplicaFactory,
    SupervisionError,
    Supervisor,
)
from repro.execution.worker import (
    act_steps,
    build_agent,
    build_vector_env,
    snapshot_fn,
)
from repro.utils.errors import RLGraphError
from repro.utils.procutil import native_threads_beside

#: ``rollout()`` tasks the feeder keeps armed per actor.  Two, so the
#: next task already sits in the actor's mailbox when it replies and the
#: actor never idles through the reply, the feeder's GIL hand-off and
#: the re-arm; one more would only add weight lag.
ROLLOUTS_IN_FLIGHT = 2


class IMPALAActorCore:
    """One IMPALA actor: local agent copy, env vector, and the rollout
    post-processing around the shared acting loop (bootstrap states,
    finished episodes, the weight version acted with).  Runs as a
    raylite actor of either backend."""

    def __init__(self, actor_index: int, agent_factory: Callable,
                 env_factory: Callable, rollout_length: int = 20,
                 num_envs: int = 1, redundant_assignments: bool = False,
                 vector_env_spec=None, parallel_spec=None):
        self.actor_index = actor_index
        self.agent = build_agent(agent_factory, actor_index)
        self.vector_env = build_vector_env(
            env_factory, num_envs, actor_index * 1000,
            vector_env_spec=vector_env_spec, parallel_spec=parallel_spec)
        self._snap = snapshot_fn(self.vector_env)
        self.rollout_length = int(rollout_length)
        self.redundant_assignments = redundant_assignments
        self.env_frames = 0
        self.rollouts_produced = 0
        self._episodes_shipped = 0
        self._states = None
        # The learner weight version this actor acts with (0: the
        # factory-fresh init, which equals the learner's).
        self.weights_version = 0

    def set_weights(self, weights, version: Optional[int] = None) -> int:
        self.agent.set_weights(weights)
        if version is not None:
            self.weights_version = version
        return self.actor_index

    def rollout(self) -> Dict:
        """Produce one time-major rollout item."""
        if self._states is None:
            self._states = self.vector_env.reset_all()
        agent = self.agent
        get_actions = agent.get_actions
        if self.redundant_assignments:
            def get_actions(states):
                # The DM-reference wasted memcpy: re-assign the full
                # weight set every acting step.
                agent.set_weights(agent.get_weights())
                return agent.get_actions(states)
        rollout, self._states = act_steps(get_actions, self.vector_env,
                                          self._states, self.rollout_length,
                                          self._snap)
        self.env_frames += self.rollout_length * self.vector_env.num_envs
        bootstrap = self._snap(agent.get_actions(self._states)[-1])
        # Ship only episodes finished since the previous rollout — the
        # runner accumulates across rollouts, so resending the full
        # history would double-count old episodes in mean_return.
        new_returns, self._episodes_shipped = \
            self.vector_env.finished_returns_since(self._episodes_shipped)
        self.rollouts_produced += 1
        return {
            "states": rollout["states"],
            "actions": rollout["actions"],
            "behaviour_log_probs": np.asarray(rollout["outputs"][0],
                                              np.float32),
            "rewards": rollout["rewards"],
            "terminals": rollout["terminals"],
            "bootstrap_states": bootstrap,
            "episode_returns": list(new_returns),
            "weights_version": self.weights_version,
        }

    def get_stats(self) -> Dict:
        return {"env_frames": self.env_frames,
                "rollouts_produced": self.rollouts_produced}


class IMPALARunner:
    """Coordinates actors and the learner loop."""

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, num_actors: int = 2,
                 envs_per_actor: int = 1, rollout_length: int = 20,
                 batch_size: int = 2, queue_capacity: int = 64,
                 redundant_assignments: bool = False,
                 vector_env_spec=None, parallel_spec=None,
                 weight_listeners=None, supervision_spec=None,
                 checkpoint_spec=None):
        self.learner = learner_agent
        self.batch_size = int(batch_size)
        # Eval-during-training hook: every published weight version also
        # goes to these listeners (e.g. a serving PolicyServer).
        self.weight_listeners = list(weight_listeners or [])
        self.parallel = resolve_parallel_spec(parallel_spec)
        self.rollout_queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self.stop_event = threading.Event()
        self._weights_lock = threading.Lock()
        # Versioned pushes travel flat: one ndarray per publish (one
        # shared-memory block in process mode), scattered in place on
        # the actor side. Checkpoints keep the dict path.
        self._weights = learner_agent.get_weights(flat=True)
        self._weights_version = 0
        self._staged: Optional[List[Dict]] = None  # one-slot staging area
        self.supervisor = Supervisor(supervision_spec)
        self.supervision_failures: List[str] = []
        ckpt = resolve_checkpoint_spec(checkpoint_spec)
        self.checkpoints = CheckpointManager(ckpt) if ckpt else None
        self.actor_handles: List = self.supervisor.spawn({
            f"impala-actor-{i}": ReplicaFactory(
                self.parallel, IMPALAActorCore,
                i, agent_factory, env_factory,
                rollout_length=rollout_length,
                num_envs=envs_per_actor,
                redundant_assignments=redundant_assignments,
                vector_env_spec=vector_env_spec,
                parallel_spec=self.parallel)
            for i in range(num_actors)
        }, on_restart=self._sync_restarted_actor)
        self.episode_returns: List[float] = []

    def _versioned_weights(self):
        """``(version, flat weights)`` of the latest published update."""
        with self._weights_lock:
            return self._weights_version, self._weights

    def _publish_weights(self):
        with self._weights_lock:
            self._weights = self.learner.get_weights(flat=True)
            self._weights_version += 1
            weights = self._weights
        notify_weight_listeners(self.weight_listeners, weights)

    def _sync_restarted_actor(self, handle) -> None:
        """Push the current published weight version to a rejoined actor
        so it rolls out at the latest policy, not its fresh init."""
        version, weights = self._versioned_weights()
        handle.set_weights.remote(weights, version)

    # -- the feeder -----------------------------------------------------------
    def _feed_from_handles(self):
        """Keep :data:`ROLLOUTS_IN_FLIGHT` rollout tasks armed per actor;
        drain completed rollouts (for process actors: shared-memory
        transport, zero-copy decode) into the learner queue; at each
        reply push the newest weight version (latest wins), then re-arm.
        With FIFO mailboxes the push lands behind the one rollout still
        queued, never further.  With supervision enabled a crashed
        actor is restarted and both its tasks are re-armed in place
        (their rollouts are lost); an actor lost for good —
        unsupervised, or its restart budget spent — is dropped and the
        feeder carries on with the others."""
        synced: Dict = {}
        pump = Pump()
        unarmed = list(self.actor_handles) * ROLLOUTS_IN_FLIGHT
        while (unarmed or pump) and not self.stop_event.is_set():
            try:
                while unarmed:
                    pump.arm(unarmed.pop(), "rollout")
                for handle, item in pump.reap(timeout=0.1):
                    while not self.stop_event.is_set():
                        try:
                            self.rollout_queue.put(item, timeout=0.2)
                            break
                        except queue.Full:
                            continue  # back-pressure: learner is saturated
                    else:
                        return  # stopping: the rollout is dropped
                    version, weights = self._versioned_weights()
                    if version > synced.get(handle, 0):
                        handle.set_weights.remote(weights, version)
                        synced[handle] = version
                    pump.arm(handle, "rollout")
            except SupervisionError as exc:
                self.supervision_failures.append(str(exc))
            except Exception:
                # The failing actor is already disarmed: an unsupervised
                # death (or deliberate shutdown) stops re-arming it.
                pass

    def _dequeue_batch(self) -> Optional[List[Dict]]:
        items = []
        deadline = time.monotonic() + 5.0
        while len(items) < self.batch_size:
            try:
                items.append(self.rollout_queue.get(timeout=0.2))
            except queue.Empty:
                if time.monotonic() > deadline:
                    return items if items else None
        return items

    def run(self, duration: float = 5.0,
            updates_enabled: bool = True) -> Dict:
        """Run actors + learner loop for ``duration`` seconds.

        With process actors the driver's native pools are sized to the
        cores those actors leave free for this call only; the previous
        widths come back however it ends.
        """
        pools = (native_threads_beside(len(self.actor_handles))
                 if self.parallel.is_process else contextlib.nullcontext())
        try:
            with pools:
                return self._run(duration, updates_enabled)
        finally:
            self.stop_event.set()

    def _run(self, duration: float, updates_enabled: bool) -> Dict:
        feeder = threading.Thread(target=self._feed_from_handles,
                                  daemon=True, name="impala-feeder")
        feeder.start()
        t_start = time.perf_counter()
        updates = 0
        losses = []
        policy_lags = []
        reward_timeline = []
        while time.perf_counter() - t_start < duration:
            batch = self._dequeue_batch()
            if batch is None:
                continue
            # Staging area: the fresh batch waits in the one slot while
            # the previously staged one trains (the first batch only
            # primes the slot).
            train_batch, self._staged = self._staged, batch
            if train_batch is None:
                continue
            for item in train_batch:
                self.episode_returns.extend(item.pop("episode_returns", []))
            if updates_enabled:
                policy_lags.extend(self._weights_version
                                   - item["weights_version"]
                                   for item in train_batch)
                merged = _merge_rollouts(train_batch)
                loss, _, _ = self.learner.update(merged)
                losses.append(loss)
                updates += 1
                self._publish_weights()
                if self.checkpoints is not None:
                    self.checkpoints.maybe_save(
                        lambda: {"learner": self.learner.full_state()},
                        updates)
                reward_timeline.append(
                    (time.perf_counter() - t_start,
                     float(np.mean(self.episode_returns[-20:]))
                     if self.episode_returns else float("nan")))
        self.stop_event.set()
        feeder.join(timeout=5.0)
        env_frames = self._drain_handle_stats()
        wall = time.perf_counter() - t_start
        return {
            "env_frames": env_frames,
            "env_frames_per_second": env_frames / wall,
            "learner_updates": updates,
            "wall_time": wall,
            "losses": losses,
            "reward_timeline": reward_timeline,
            # Learner versions between acting and training, per trained
            # rollout (None when nothing was trained).
            "policy_lag_mean": (float(np.mean(policy_lags))
                                if policy_lags else None),
            "policy_lag_max": max(policy_lags) if policy_lags else None,
            "mean_return": (float(np.mean(self.episode_returns[-20:]))
                            if self.episode_returns else None),
            "restarts": self.supervisor.total_restarts,
            "supervision_failures": list(self.supervision_failures),
        }

    def restore_latest(self) -> bool:
        """Restore the learner from the newest checkpoint and publish
        the restored weights as a fresh version for the actors."""
        if self.checkpoints is None:
            raise RLGraphError("IMPALARunner has no checkpoint_spec")
        latest = self.checkpoints.load_latest()
        if latest is None:
            return False
        self.learner.restore_full_state(latest[0]["learner"])
        self._publish_weights()
        return True

    def _drain_handle_stats(self) -> int:
        """Collect env-frame counts from the actors, then reap them."""
        env_frames = 0
        for handle in self.actor_handles:
            # Leave supervision first: asking a dead slot for its stats
            # must not resurrect it.
            handle = self.supervisor.retire(handle)
            try:
                stats = handle.get_stats.remote().result(timeout=5.0)
                env_frames += stats["env_frames"]
            except Exception:
                pass  # actor died mid-run; its frames are lost
            self.supervisor.kill(handle)
        self.actor_handles = []
        return env_frames


def _merge_rollouts(items: List[Dict]) -> Dict:
    """Stack a list of (T, E, ...) rollouts into one (T, B, ...) batch."""
    if not items:
        raise RLGraphError("Cannot merge an empty rollout list")
    return {
        "states": np.concatenate([i["states"] for i in items], axis=1),
        "actions": np.concatenate([i["actions"] for i in items], axis=1),
        "behaviour_log_probs": np.concatenate(
            [i["behaviour_log_probs"] for i in items], axis=1),
        "rewards": np.concatenate([i["rewards"] for i in items], axis=1),
        "terminals": np.concatenate([i["terminals"] for i in items], axis=1),
        "bootstrap_states": np.concatenate(
            [i["bootstrap_states"] for i in items], axis=0),
    }
