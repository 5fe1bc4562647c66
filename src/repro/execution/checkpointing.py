"""Periodic checkpoints with atomic save and exact resume.

Checkpointing is the second half of the fault-tolerance story (the
:mod:`~repro.execution.supervision` restart path is the first): a
supervisor recovers from *actor* deaths inside a run, a checkpoint
recovers the *run* itself across driver restarts.

The state captured is the complete mutable footprint of training:

* ``Agent.full_state()`` — every variable including optimizer slot
  slabs, target networks, in-graph replay buffers and index/size
  cursors, plus un-flushed observe buffers and backend RNG node states;
* ``Environment.get_state()`` — physics + episode accounting + env RNG;
* executor counters and (for Ape-X) the replay-shard
  ``state_dict()``s.

Because every RNG in the stack is restored bit-for-bit, a run resumed
from a checkpoint continues **bitwise-identically** to one that was
never interrupted — the resume-equivalence property
``tests/test_checkpoint_roundtrip.py`` asserts.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save
never corrupts the latest good checkpoint, and old checkpoints are
pruned to a bounded ``keep`` count.  Records carry
:data:`FORMAT_VERSION`; others raise :class:`CheckpointError`.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.errors import RLGraphError

_CKPT_RE = re.compile(r"^ckpt-(\d+)\.pkl$")

#: Record layout: ``{"format", "step", "payload"}``.
FORMAT_VERSION = 1


class CheckpointError(RLGraphError):
    """A checkpoint this code cannot restore: an unknown record format,
    or an executor payload of another pattern."""


class CheckpointSpec:
    """Resolved checkpoint configuration.

    ``directory`` — where checkpoints live; ``interval`` — steps between
    periodic saves (:meth:`CheckpointManager.maybe_save`); ``keep`` —
    how many most-recent checkpoints survive pruning.
    """

    def __init__(self, directory: str, interval: int = 50, keep: int = 3):
        if not directory:
            raise RLGraphError("CheckpointSpec needs a directory")
        if interval <= 0:
            raise RLGraphError("interval must be > 0")
        if keep <= 0:
            raise RLGraphError("keep must be > 0")
        self.directory = str(directory)
        self.interval = int(interval)
        self.keep = int(keep)

    def __repr__(self):
        return (f"CheckpointSpec({self.directory!r}, "
                f"interval={self.interval}, keep={self.keep})")


def resolve_checkpoint_spec(spec) -> Optional[CheckpointSpec]:
    """``None``/``False`` — disabled (returns None).  A string is a
    directory with default interval/keep; a dict passes its keys to
    :class:`CheckpointSpec`; a spec instance passes through."""
    if spec is None or spec is False:
        return None
    if isinstance(spec, CheckpointSpec):
        return spec
    if isinstance(spec, str):
        return CheckpointSpec(spec)
    if isinstance(spec, dict):
        unknown = set(spec) - {"directory", "interval", "keep"}
        if unknown:
            raise RLGraphError(
                f"Unknown checkpoint_spec keys {sorted(unknown)}")
        return CheckpointSpec(**spec)
    raise RLGraphError(
        f"checkpoint_spec must be None, str, dict or CheckpointSpec, "
        f"got {type(spec).__name__}")


class CheckpointManager:
    """Atomic pickle checkpoints in one directory, pruned to ``keep``."""

    def __init__(self, spec):
        resolved = resolve_checkpoint_spec(spec)
        if resolved is None:
            raise RLGraphError("CheckpointManager needs an enabled spec")
        self.spec = resolved
        os.makedirs(self.spec.directory, exist_ok=True)
        self._last_saved_step: Optional[int] = None

    # -- save ---------------------------------------------------------------
    def save(self, payload: Dict[str, Any], step: int) -> str:
        """Write ``ckpt-<step>.pkl`` atomically; prune beyond ``keep``."""
        path = os.path.join(self.spec.directory, f"ckpt-{int(step):012d}.pkl")
        fd, tmp_path = tempfile.mkstemp(
            dir=self.spec.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump({"format": FORMAT_VERSION, "step": int(step),
                             "payload": payload}, f,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)  # atomic: never a torn checkpoint
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._last_saved_step = int(step)
        self._prune()
        return path

    def maybe_save(self, payload_fn: Callable[[], Dict[str, Any]],
                   step: int) -> Optional[str]:
        """Save if ``step`` crossed the interval since the last save.
        ``payload_fn`` is only called when a save actually happens —
        capturing full state is not free."""
        if (self._last_saved_step is not None
                and step - self._last_saved_step < self.spec.interval):
            return None
        if self._last_saved_step is None and step < self.spec.interval:
            return None
        return self.save(payload_fn(), step)

    # -- load ---------------------------------------------------------------
    def steps(self) -> List[int]:
        """Steps of all retained checkpoints, ascending."""
        found = []
        for entry in os.listdir(self.spec.directory):
            match = _CKPT_RE.match(entry)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def load_latest(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """(payload, step) of the newest checkpoint, or None if empty."""
        steps = self.steps()
        if not steps:
            return None
        return self.load(steps[-1])

    def load(self, step: int) -> Tuple[Dict[str, Any], int]:
        path = os.path.join(self.spec.directory, f"ckpt-{int(step):012d}.pkl")
        with open(path, "rb") as f:
            record = pickle.load(f)
        if not isinstance(record, dict) \
                or record.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path} is not a format-{FORMAT_VERSION} checkpoint")
        self._last_saved_step = record["step"]
        return record["payload"], record["step"]

    def _prune(self) -> None:
        steps = self.steps()
        for step in steps[:-self.spec.keep]:
            try:
                os.unlink(os.path.join(
                    self.spec.directory, f"ckpt-{step:012d}.pkl"))
            except OSError:  # pragma: no cover - already gone
                pass


class ResumableTrainer:
    """Single-process act/observe/update loop with exact resume.

    The simplest consumer of the checkpoint layer (the ``--resume``
    path of ``scripts/train_policy.py``) and the subject of the
    resume-equivalence test: the trainer's state is the agent's full
    state + the environment's state + the in-flight observation and
    step counter, so ``run(N); [checkpoint; new trainer; resume]``
    continues bitwise-identically to ``run(2N)`` uninterrupted.
    """

    def __init__(self, agent, env, learning_starts: int = 64,
                 update_interval: int = 1, checkpoint=None):
        self.agent = agent
        self.env = env
        self.learning_starts = int(learning_starts)
        self.update_interval = int(update_interval)
        spec = resolve_checkpoint_spec(checkpoint)
        self.manager = CheckpointManager(spec) if spec else None
        self.step = 0
        self._obs = None  # current observation carries across checkpoints

    # -- state --------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "obs": None if self._obs is None else self._obs.copy(),
            "agent": self.agent.full_state(),
            "env": self.env.get_state(),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        self.step = int(payload["step"])
        self._obs = payload["obs"]
        self.agent.restore_full_state(payload["agent"])
        self.env.set_state(payload["env"])

    def checkpoint(self) -> str:
        if self.manager is None:
            raise RLGraphError("Trainer has no checkpoint directory")
        return self.manager.save(self.state(), self.step)

    def resume(self) -> bool:
        """Restore the newest checkpoint; False if there is none yet."""
        if self.manager is None:
            raise RLGraphError("Trainer has no checkpoint directory")
        latest = self.manager.load_latest()
        if latest is None:
            return False
        self.restore(latest[0])
        return True

    # -- loop ---------------------------------------------------------------
    def run(self, num_steps: int) -> Dict[str, Any]:
        """Train ``num_steps`` environment steps; periodic checkpoints
        when a manager is configured."""
        losses = []
        if self._obs is None:
            self._obs = self.env.reset()
        for _ in range(int(num_steps)):
            out = self.agent.get_actions(self._obs, explore=True)
            action = out[0] if isinstance(out, tuple) else out
            next_obs, reward, terminal, _ = self.env.step(action)
            self.agent.observe(self._obs, action, reward, terminal, next_obs)
            self._obs = self.env.reset() if terminal else next_obs
            self.step += 1
            if (self.step > self.learning_starts
                    and self.step % self.update_interval == 0):
                result = self.agent.update()
                losses.append(float(result[0]) if isinstance(result, tuple)
                              else float(result))
            if self.manager is not None:
                self.manager.maybe_save(self.state, self.step)
        return {
            "step": self.step,
            "updates": self.agent.updates,
            "timesteps": self.agent.timesteps,
            "mean_loss": sum(losses) / len(losses) if losses else None,
        }
