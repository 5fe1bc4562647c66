"""IMPALA actor-learner runner (paper §5.1, Fig. 9).

Actors roll the policy for ``rollout_length`` steps and reply with
time-major rollouts.  One coordination loop (:meth:`IMPALARunner._run`)
keeps :data:`ROLLOUTS_IN_FLIGHT` rollouts armed per actor, pushes the
newest weight version to each actor that replies, and applies a v-trace
update as soon as ``batch_size`` rollouts are in hand.  The weight lag
v-trace corrects for is bounded: after every turn, rollouts in flight
plus in hand are at most ``batch_size - 1 + ROLLOUTS_IN_FLIGHT × actors``.

``redundant_assignments=True`` reproduces the DeepMind reference actor's
"unneeded variable assignments" (§5.1): every acting step re-assigns the
full policy weight set.  Removing them "yielded 20% improvement in a
single-worker setting" — bench E8.

Every actor is an :class:`IMPALAActorCore` on a raylite actor of the
backend ``parallel_spec`` selects (process actors decode their
shared-memory rollouts on raylite's reader thread).  Every rollout
carries the version its actor acted with; ``run()`` reports the policy
lag, the versions the learner published between acting and the update
that trains on it.  With process actors ``run()`` sizes the driver's
BLAS/OpenMP pools to the cores they leave free
(:func:`~repro.utils.procutil.native_threads_beside`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List

import numpy as np

from repro.execution.executor import Executor, RunResult, recent_mean
from repro.execution.supervision import Pump, ReplicaFactory, SupervisionError
from repro.execution.worker import PolicyActor
from repro.utils.errors import RLGraphError
from repro.utils.procutil import native_threads_beside

#: ``rollout()`` tasks the loop keeps armed per actor.  Two, so the
#: next task already sits in the actor's mailbox when it replies and the
#: actor keeps acting while the learner updates; one more would only add
#: weight lag.
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
                 batch_size: int = 2, redundant_assignments: bool = False,
                 vector_env_spec=None, parallel_spec=None,
                 weight_listeners=None, supervision_spec=None,
                 checkpoint_spec=None):
        super().__init__(learner_agent, agent_factory, parallel_spec,
                         weight_listeners, supervision_spec,
                         checkpoint_spec)
        self.batch_size = int(batch_size)
        self.actor_handles: List = self.supervisor.spawn({
            f"impala-actor-{i}": ReplicaFactory(
                self.parallel, IMPALAActorCore, i, agent_factory, env_factory,
                rollout_length=rollout_length, num_envs=envs_per_actor,
                redundant_assignments=redundant_assignments,
                vector_env_spec=vector_env_spec, parallel_spec=self.parallel)
            for i in range(num_actors)
        }, on_restart=self._sync_restarted)

    def run(self, duration: float = 5.0,
            updates_enabled: bool = True) -> RunResult:
        """Run actors + learner loop for ``duration`` seconds.  With
        process actors the driver's native pools are sized to the cores
        they leave free for this call only (restored however it ends)."""
        pools = (native_threads_beside(len(self.actor_handles))
                 if self.parallel.is_process else contextlib.nullcontext())
        with pools:
            return self._run(duration, updates_enabled)

    def _run(self, duration: float, updates_enabled: bool) -> RunResult:
        """The coordination loop: each turn blocks once, in ``reap``.  A
        reply's rollout goes in hand, its actor gets the newest version
        if it is behind (with FIFO mailboxes the push lands behind the
        one rollout still queued) and is re-armed; then the oldest
        ``batch_size`` rollouts in hand train while there are that many.
        A crashed supervised actor restarts with its tasks re-armed (its
        rollouts are lost); one lost for good is dropped, and the loop
        ends early once none is left."""
        result = RunResult()
        pump = Pump()
        for handle in self.actor_handles * ROLLOUTS_IN_FLIGHT:
            pump.arm(handle, "rollout")
        synced: Dict = {}
        in_hand: List[Dict] = []
        returns: List[float] = []
        while pump and result.elapsed() < duration:
            try:
                for handle, item in pump.reap(duration - result.elapsed()):
                    in_hand.append(item)
                    weights, version = self.published()
                    if version > synced.get(handle, 0):
                        handle.set_weights.remote(weights, version)
                        synced[handle] = version
                    pump.arm(handle, "rollout")
            except SupervisionError as exc:
                result.supervision_failures.append(str(exc))
            except Exception:
                # The failing actor is already disarmed: an unsupervised
                # death (or deliberate shutdown) stops re-arming it.
                pass
            while len(in_hand) >= self.batch_size:
                batch = in_hand[:self.batch_size]
                del in_hand[:self.batch_size]
                for item in batch:
                    returns.extend(item.pop("episode_returns", []))
                if not updates_enabled:
                    continue
                result.policy_lags.extend(self._weights_version
                                          - item["weights_version"]
                                          for item in batch)
                loss, _, _ = self.learner.update(_merge_rollouts(batch))
                self.publish()
                self.count_update(result, loss)
                mean = recent_mean(returns)
                result.reward_timeline.append(
                    (result.elapsed(), float("nan") if mean is None else mean))
        self.finish(result, retire=True)
        result.mean_return = recent_mean(returns)
        return result


def _merge_rollouts(items: List[Dict]) -> Dict:
    """Stack a list of (T, E, ...) rollouts into one (T, B, ...) batch."""
    if not items:
        raise RLGraphError("Cannot merge an empty rollout list")
    batch = {key: np.concatenate([i[key] for i in items], axis=1)
             for key in ("states", "actions", "behaviour_log_probs",
                         "rewards", "terminals")}
    batch["bootstrap_states"] = np.concatenate(
        [i["bootstrap_states"] for i in items], axis=0)
    return batch
