"""Parallel execution specs: one switch for thread vs. process backends.

Every executor accepts a ``parallel_spec`` selecting how its actors (and
optionally their env vectors) execute:

* ``None`` / ``"thread"`` — the thread backends everywhere (seed
  behavior: raylite thread actors, thread-based vector envs);
* ``"process"`` — raylite process actors (real multi-core parallelism
  for the NumPy-interpreted agents and pure-Python envs);
* a dict for fine-grained control::

      {
          "backend": "process",        # raylite actor backend
          "start_method": "fork",      # multiprocessing start method
          "env_backend": "subproc",    # default vector-env engine when
                                       # vector_env_spec is None
          "env_workers": 4,            # workers for that engine
      }

* a :class:`ParallelSpec` instance (passed through).

The spec only supplies *defaults*: an explicit ``vector_env_spec`` on
the executor always wins over ``env_backend``.
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.utils.errors import RLGraphError

logger = logging.getLogger(__name__)

_BACKENDS = ("thread", "process")


class ParallelSpec:
    """Resolved parallel-execution configuration."""

    def __init__(self, backend: str = "thread",
                 start_method: Optional[str] = None,
                 env_backend: Optional[str] = None,
                 env_workers: Optional[int] = None):
        if backend not in _BACKENDS:
            raise RLGraphError(
                f"Unknown parallel backend {backend!r}; "
                f"expected one of {_BACKENDS}")
        self.backend = backend
        self.start_method = start_method
        self.env_backend = env_backend
        self.env_workers = env_workers

    @property
    def is_process(self) -> bool:
        return self.backend == "process"

    def vector_env_spec_default(self, vector_env_spec):
        """Apply ``env_backend`` as the engine default: an explicit
        ``vector_env_spec`` always wins."""
        if vector_env_spec is not None or self.env_backend is None:
            return vector_env_spec
        spec = {"type": self.env_backend}
        if self.env_backend == "subproc":
            if self.env_workers is not None:
                spec["num_workers"] = self.env_workers
            if self.start_method is not None:
                spec["start_method"] = self.start_method
        elif self.env_workers is not None:
            spec["num_threads"] = self.env_workers
        return spec

    def actor_factory(self, cls, name: str = ""):
        """A raylite actor factory for ``cls`` bound to this backend."""
        from repro import raylite
        return raylite.remote(cls).options(
            name=name, backend=self.backend, start_method=self.start_method)

    def __repr__(self):
        return (f"ParallelSpec(backend={self.backend!r}, "
                f"start_method={self.start_method!r}, "
                f"env_backend={self.env_backend!r}, "
                f"env_workers={self.env_workers!r})")


def notify_weight_listeners(listeners, weights) -> None:
    """Push freshly published learner weights to eval-traffic listeners.

    Executors call this at every weight-publication point so a policy
    server (:mod:`repro.serving`) can serve eval traffic *while* training
    — each listener is either a callable taking the flat weight vector or
    an object with ``set_weights`` (e.g. a ``PolicyServer`` or an
    ``InferenceWorkerPool``).  Listener failures must never take down the
    training loop; they surface as a logged warning instead.
    """
    if not listeners:
        return
    for listener in listeners:
        push = getattr(listener, "set_weights", listener)
        try:
            push(weights)
        except Exception as exc:  # pragma: no cover - defensive
            logger.warning("weight listener %r failed: %s", listener, exc)


def resolve_parallel_spec(spec) -> ParallelSpec:
    """Resolve a ``parallel_spec`` config value (see module docstring)."""
    if isinstance(spec, ParallelSpec):
        return spec
    if spec is None:
        return ParallelSpec()
    if isinstance(spec, str):
        return ParallelSpec(backend=spec)
    if isinstance(spec, dict):
        unknown = set(spec) - {"backend", "start_method", "env_backend",
                               "env_workers"}
        if unknown:
            raise RLGraphError(
                f"Unknown parallel_spec keys {sorted(unknown)}")
        return ParallelSpec(backend=spec.get("backend", "thread"),
                            start_method=spec.get("start_method"),
                            env_backend=spec.get("env_backend"),
                            env_workers=spec.get("env_workers"))
    raise RLGraphError(
        f"parallel_spec must be None, str, dict or ParallelSpec, "
        f"got {type(spec).__name__}")
