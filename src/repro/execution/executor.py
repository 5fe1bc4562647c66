"""The generic executor (paper §5.1): a new distributed pattern "only
requires extending the generic Ray executor to implement a coordination
loop".  :class:`Executor` owns the learner, the supervisor, versioned
weight publication, checkpoint and restore, the final stats drain and
the :class:`RunResult`; a pattern writes its actor recipes, its loop
and, if it holds state of its own, ``extra_state``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.execution.checkpointing import (
    CheckpointError,
    CheckpointManager,
    resolve_checkpoint_spec,
)
from repro.execution.learner_group import LearnerGroup, resolve_learner_spec
from repro.execution.parallel import (
    notify_weight_listeners,
    resolve_parallel_spec,
)
from repro.execution.supervision import Supervisor, gather
from repro.utils.errors import RLGraphError


def recent_mean(returns, last_n: int = 20) -> Optional[float]:
    """Mean of the last ``last_n`` episode returns (None when empty)."""
    return float(np.mean(returns[-last_n:])) if len(returns) else None


class RunResult:
    """What one ``execute_workload``/``run`` call did.  Read by
    attribute; ``result["key"]`` reads the same attribute."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env_frames = self.learner_updates = self.restarts = 0
        self.wall_time = 0.0
        self.mean_return: Optional[float] = None
        self.loss_timeline: List[tuple] = []    # (seconds, loss)
        self.reward_timeline: List[tuple] = []  # (seconds, mean return)
        # Learner versions between acting and training, per trained
        # rollout (for patterns whose samples carry their version).
        self.policy_lags: List[int] = []
        self.supervision_failures: List[str] = []
        # Rows into replay and rows the learner trained on (Ape-X).
        self.rows_inserted = self.rows_sampled = 0

    def __getitem__(self, key: str):
        return getattr(self, key)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    @property
    def losses(self) -> List[float]:
        return [loss for _, loss in self.loss_timeline]

    @property
    def env_frames_per_second(self) -> float:
        return self.env_frames / self.wall_time if self.wall_time else 0.0

    @property
    def replay_ratio(self) -> Optional[float]:
        """Achieved samples per insert (None when nothing was inserted)."""
        if not self.rows_inserted:
            return None
        return self.rows_sampled / self.rows_inserted

    @property
    def policy_lag_mean(self) -> Optional[float]:
        return float(np.mean(self.policy_lags)) if self.policy_lags else None

    @property
    def policy_lag_max(self) -> Optional[int]:
        return max(self.policy_lags) if self.policy_lags else None

    def as_dict(self) -> Dict:
        return {key: getattr(self, key) for key in (
            "env_frames", "env_frames_per_second", "learner_updates",
            "wall_time", "mean_return")}


class Executor:
    """Learner, supervised actors, publication, checkpoints, drain."""

    #: Tag of this pattern's checkpoints; another pattern's is refused.
    PATTERN = ""
    #: Attribute holding the weight-carrying actors (read at call time).
    ACTORS = "workers"

    def __init__(self, learner_agent, agent_factory: Callable,
                 parallel_spec=None, weight_listeners=None,
                 supervision_spec=None, checkpoint_spec=None,
                 learner_spec=None):
        self.parallel = resolve_parallel_spec(parallel_spec)
        # Eval-during-training hook: every published weight version also
        # goes to these listeners (e.g. a serving PolicyServer).
        self.weight_listeners = list(weight_listeners or [])
        # A learner group answers like one learner (update, get_weights,
        # full_state) while K replicas share each batch.
        self.learner = learner_agent
        lspec = resolve_learner_spec(learner_spec)
        if lspec is not None:
            self.learner = LearnerGroup(
                learner_agent, agent_factory=agent_factory, spec=lspec,
                parallel_spec=self.parallel,
                supervision_spec=supervision_spec)
        self.supervisor = Supervisor(supervision_spec)
        ckpt = resolve_checkpoint_spec(checkpoint_spec)
        self.checkpoints = CheckpointManager(ckpt) if ckpt else None
        # One flat ndarray per version (one shm block in process mode).
        self._weights_lock = threading.Lock()
        self._weights = self.learner.get_weights(flat=True)
        self._weights_version = 0

    def publish(self):
        """Store the learner's flat weights as the next version (latest
        wins) and notify the weight listeners; returns ``(weights,
        version)``, the arguments of every actor's ``set_weights``."""
        weights = self.learner.get_weights(flat=True)
        with self._weights_lock:
            self._weights_version += 1
            self._weights = weights
            version = self._weights_version
        notify_weight_listeners(self.weight_listeners, weights)
        return weights, version

    def published(self):
        """``(weights, version)`` of the latest publication."""
        with self._weights_lock:
            return self._weights, self._weights_version

    def _sync_restarted(self, handle) -> None:
        """The restart hook: a rejoined actor gets the latest version."""
        handle.set_weights.remote(*self.published())

    # -- checkpoint / restore -------------------------------------------------
    def extra_state(self) -> Dict:
        """The pattern's own state, saved beside the learner's."""
        return {}

    def load_extra_state(self, payload: Dict) -> None:
        """Restore what :meth:`extra_state` saved."""

    def _checkpoint_payload(self) -> Dict:
        return {"pattern": self.PATTERN,
                "learner": self.learner.full_state(), **self.extra_state()}

    def count_update(self, result: RunResult, loss) -> None:
        """Record an applied update; checkpoint every ``interval``."""
        result.learner_updates += 1
        result.loss_timeline.append((result.elapsed(), loss))
        if self.checkpoints is not None:
            self.checkpoints.maybe_save(self._checkpoint_payload,
                                        result.learner_updates)

    def restore_latest(self) -> bool:
        """Restore the newest checkpoint (learner full state plus the
        pattern's extra state) and push the restored weights to every
        actor as a fresh version.  False when there is none yet."""
        if self.checkpoints is None:
            raise RLGraphError(f"{type(self).__name__} has no checkpoint_spec")
        latest = self.checkpoints.load_latest()
        if latest is None:
            return False
        payload, step = latest
        pattern = payload.get("pattern") if isinstance(payload, dict) else None
        if pattern != self.PATTERN:
            raise CheckpointError(f"checkpoint {step} holds a {pattern!r} "
                                  f"payload, not {self.PATTERN!r}")
        self.learner.restore_full_state(payload["learner"])
        self.load_extra_state(payload)
        gather(getattr(self, self.ACTORS), "set_weights", *self.publish())
        return True

    def finish(self, result: RunResult, retire: bool = False) -> List[Dict]:
        """The final stats drain: every live actor's ``get_stats()`` fills
        the result (one that dies first loses its frames); returns them.
        ``retire`` ends a one-shot run: the actors leave supervision (a
        dead slot asked for stats must not come back), then die."""
        handles = getattr(self, self.ACTORS)
        if retire:
            handles = [self.supervisor.retire(h) for h in handles]
            setattr(self, self.ACTORS, [])
        stats = []
        for ref in [h.get_stats.remote() for h in handles if h.is_alive()]:
            try:
                stats.append(ref.result(timeout=30.0))
            except Exception:  # died before answering
                pass
        for handle in handles if retire else ():
            self.supervisor.kill(handle)
        result.wall_time = result.elapsed()
        result.env_frames = sum(s["env_frames"] for s in stats)
        result.restarts = self.supervisor.total_restarts
        return stats
