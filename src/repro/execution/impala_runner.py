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

Every actor is an :class:`IMPALAActorCore` on a raylite actor of the
backend ``parallel_spec`` selects; both backends run the same feeder
(:meth:`IMPALARunner._feed_from_handles`: two rollouts in flight per
actor, the newest weight version pushed at each reply).  Every rollout
carries the version its actor acted with; ``run()`` reports the policy
lag, the versions the learner published between acting and the update
that trains on it.  With process actors ``run()`` sizes the driver's
BLAS/OpenMP pools to the cores they leave free
(:func:`~repro.utils.procutil.native_threads_beside`).
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.execution.executor import Executor, RunResult, recent_mean
from repro.execution.supervision import Pump, ReplicaFactory, SupervisionError
from repro.execution.worker import PolicyActor
from repro.utils.errors import RLGraphError
from repro.utils.procutil import native_threads_beside

#: ``rollout()`` tasks the feeder keeps armed per actor.  Two, so the
#: next task already sits in the actor's mailbox when it replies and the
#: actor never idles through the reply, the feeder's GIL hand-off and
#: the re-arm; one more would only add weight lag.
ROLLOUTS_IN_FLIGHT = 2


class IMPALAActorCore(PolicyActor):
    """One IMPALA actor: local agent copy, env vector, and the rollout
    post-processing around the shared acting loop (bootstrap states,
    finished episodes, the weight version acted with).  Runs as a
    raylite actor of either backend."""

    def __init__(self, actor_index: int, agent_factory: Callable,
                 env_factory: Callable, rollout_length: int = 20,
                 num_envs: int = 1, redundant_assignments: bool = False,
                 vector_env_spec=None, parallel_spec=None):
        super().__init__(agent_factory, env_factory, num_envs, actor_index,
                         vector_env_spec, parallel_spec)
        self.rollout_length = int(rollout_length)
        self.redundant_assignments = redundant_assignments
        self.rollouts_produced = 0

    def rollout(self) -> Dict:
        """Produce one time-major rollout item."""
        agent = self.agent
        get_actions = agent.get_actions
        if self.redundant_assignments:
            def get_actions(states):
                # The DM-reference wasted memcpy: re-assign the full
                # weight set every acting step.
                agent.set_weights(agent.get_weights())
                return agent.get_actions(states)
        rollout, new_returns = self.act(get_actions, self.rollout_length)
        bootstrap = self._snap(agent.get_actions(self._states)[-1])
        self.rollouts_produced += 1
        return {
            "states": rollout["states"],
            "actions": rollout["actions"],
            "behaviour_log_probs": np.asarray(rollout["outputs"][0],
                                              np.float32),
            "rewards": rollout["rewards"],
            "terminals": rollout["terminals"],
            "bootstrap_states": bootstrap,
            "episode_returns": new_returns,
            "weights_version": self.weights_version,
        }

    def get_stats(self) -> Dict:
        return {"env_frames": self.env_frames,
                "rollouts_produced": self.rollouts_produced}


class IMPALARunner(Executor):
    """Coordinates actors and the learner loop."""

    PATTERN = "impala"
    ACTORS = "actor_handles"

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, num_actors: int = 2,
                 envs_per_actor: int = 1, rollout_length: int = 20,
                 batch_size: int = 2, queue_capacity: int = 64,
                 redundant_assignments: bool = False,
                 vector_env_spec=None, parallel_spec=None,
                 weight_listeners=None, supervision_spec=None,
                 checkpoint_spec=None):
        super().__init__(learner_agent, agent_factory, parallel_spec,
                         weight_listeners, supervision_spec,
                         checkpoint_spec)
        self.batch_size = int(batch_size)
        self.rollout_queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self.stop_event = threading.Event()
        self._staged: Optional[List[Dict]] = None  # one-slot staging area
        self.supervision_failures: List[str] = []
        self.actor_handles: List = self.supervisor.spawn({
            f"impala-actor-{i}": ReplicaFactory(
                self.parallel, IMPALAActorCore, i, agent_factory, env_factory,
                rollout_length=rollout_length, num_envs=envs_per_actor,
                redundant_assignments=redundant_assignments,
                vector_env_spec=vector_env_spec, parallel_spec=self.parallel)
            for i in range(num_actors)
        }, on_restart=self._sync_restarted)
        self.episode_returns: List[float] = []

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
                    weights, version = self.published()
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
            updates_enabled: bool = True) -> RunResult:
        """Run actors + learner loop for ``duration`` seconds.  With
        process actors the driver's native pools are sized to the cores
        they leave free for this call only (restored however it ends)."""
        pools = (native_threads_beside(len(self.actor_handles))
                 if self.parallel.is_process else contextlib.nullcontext())
        try:
            with pools:
                return self._run(duration, updates_enabled)
        finally:
            self.stop_event.set()

    def _run(self, duration: float, updates_enabled: bool) -> RunResult:
        feeder = threading.Thread(target=self._feed_from_handles,
                                  daemon=True, name="impala-feeder")
        feeder.start()
        result = RunResult()
        while result.elapsed() < duration:
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
                result.policy_lags.extend(self._weights_version
                                          - item["weights_version"]
                                          for item in train_batch)
                loss, _, _ = self.learner.update(_merge_rollouts(train_batch))
                self.publish()
                self.count_update(result, loss)
                mean = recent_mean(self.episode_returns)
                result.reward_timeline.append(
                    (result.elapsed(), float("nan") if mean is None else mean))
        self.stop_event.set()
        feeder.join(timeout=5.0)
        self.finish(result, retire=True)
        result.mean_return = recent_mean(self.episode_returns)
        result.supervision_failures = list(self.supervision_failures)
        return result


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
