"""Data-parallel learner group: sharded gradients, one fused step.

The group replaces the executor's single learner with ``K`` replica
actors that together behave like one learner (paper §5.2's distributed
semantics, applied to the *update* side of the loop):

1. the driver shards each training batch deterministically through
   :func:`~repro.components.common.batch_splitter.split_batch` (the last
   shard absorbs ``B % K`` rows — nothing is dropped);
2. every replica runs only the gradient half of the fused optimizer step
   (``Agent.get_gradients``) and writes its flat gradient
   slab — pre-scaled by ``n_k / B`` so the all-reduce SUM equals the
   full-batch mean — into its persistent pooled shared-memory block;
3. the slabs are all-reduced in place over those blocks
   (:mod:`repro.raylite.collectives` — ring reduce-scatter/all-gather,
   or a binomial tree for tiny groups); the driver only dispatches step
   tokens and barriers, no gradient bytes ever cross a pipe;
4. rank 0 applies ONE fused optimizer step to the averaged vector
   (``Agent.apply_gradients`` — the exact lowering of the in-graph
   step, so K=1 is bitwise-identical to a plain ``update``), publishes
   the new flat weight vector into the weight region of its block, and
   every other rank memcpy-scatters it back into its variables.

Block layout (float32 elements): ``[0, grad_n)`` is the reduce region,
rewritten every round; block 0 additionally carries the last published
weight vector at ``[grad_n, grad_n + weight_n)``.  Because collective
steps never touch the weight region, it is *always* a valid sync source:
a replica restarted by the supervisor mid-round rejoins by re-attaching
the ring and loading weights straight out of block 0 — no peer needs to
be alive to hand them over.  (A restarted rank 0 recovers its weights
the same way but loses optimizer slot state — Adam moments restart from
zero; checkpoints via :meth:`LearnerGroup.full_state` are the exact
recovery path, as they snapshot rank 0's complete state.)

When shared memory is unavailable the group degrades to driver-mediated
averaging over the normal pipe codec — slower, same numerics (fixed
rank-order summation either way, so repeated runs stay reproducible).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro import raylite
from repro.components.common.batch_splitter import shard_sizes, split_batch
from repro.execution.parallel import resolve_parallel_spec
from repro.execution.supervision import ReplicaFactory, Supervisor
from repro.execution.worker import build_agent
from repro.raylite.collectives import RingMember, SlabRing, allreduce_steps
from repro.utils.errors import RLGraphError
from repro.utils.procutil import native_threads_among


class LearnerSpec:
    """Resolved configuration for a data-parallel learner group: the
    replica count ``K``.  The all-reduce schedule follows from it."""

    def __init__(self, num_learners: int):
        self.num_learners = int(num_learners)
        if self.num_learners < 1:
            raise RLGraphError("learner_spec: num_learners must be >= 1")

    def resolve_algorithm(self) -> str:
        """The binomial tree for ``K <= 2`` (fewer barriers), the
        bandwidth-optimal ring above that."""
        return "ring" if self.num_learners > 2 else "tree"


def resolve_learner_spec(spec) -> Optional[LearnerSpec]:
    """None/False -> no group (plain single learner); an int K -> a
    K-replica group with defaults; a dict -> :class:`LearnerSpec`
    kwargs; a spec passes through."""
    if spec is None or spec is False:
        return None
    if isinstance(spec, LearnerSpec):
        return spec
    if isinstance(spec, bool):  # True without a count is ambiguous
        raise RLGraphError(
            "learner_spec=True is ambiguous; pass the replica count")
    if isinstance(spec, int):
        return LearnerSpec(num_learners=spec)
    if isinstance(spec, dict):
        unknown = set(spec) - {"num_learners"}
        if unknown:
            raise RLGraphError(f"Unknown learner_spec keys {sorted(unknown)}")
        return LearnerSpec(**spec)
    raise RLGraphError(f"Cannot resolve learner_spec from {spec!r}")


class LearnerReplicaActor:
    """One learner replica: an agent plus its ring attachment.

    Pure data plane — the driving :class:`LearnerGroup` owns all
    control flow and barriers; every method here is one small remote
    call that returns a token-sized result (gradient bytes move through
    the shared blocks, never through the pipe, except in the no-shm
    fallback path).
    """

    def __init__(self, agent_factory: Callable, rank: int, world_size: int):
        self.agent = build_agent(agent_factory, rank)
        self.rank = int(rank)
        self.world_size = int(world_size)
        self._member: Optional[RingMember] = None

    def ping(self) -> int:
        return self.rank

    # -- ring membership ------------------------------------------------------
    def setup_ring(self, names, capacity: int, reduce_elements: int) -> int:
        if self._member is not None:
            self._member.close()
        self._member = RingMember(self.rank, self.world_size, names,
                                  capacity, reduce_elements)
        return 0

    # -- state sync -----------------------------------------------------------
    def restore_full_state(self, state) -> int:
        self.agent.restore_full_state(state)
        return 0

    def full_state(self):
        return self.agent.full_state()

    def get_flat_weights(self):
        return self.agent.get_weights(flat=True)

    def get_weights_dict(self):
        return self.agent.get_weights(flat=False)

    def set_flat_weights(self, weights, updates: Optional[int] = None) -> int:
        self.agent.set_weights(np.asarray(weights, np.float32))
        if updates is not None:
            self.agent.updates = int(updates)
        return 0

    # -- one training round ---------------------------------------------------
    def compute_gradients(self, shard: Dict, scale: float) -> Dict:
        """Gradient half of the update on this replica's shard.

        The flat slab is pre-scaled by ``scale = n_k / B`` (so the
        group's SUM-reduction is the exact full-batch mean, uneven
        shards included) and written into this rank's block; only the
        small loss/TD stats return over the pipe.  Without a ring the
        scaled slab itself rides back in the stats dict (fallback)."""
        flat, stats = self.agent.get_gradients(shard)
        scaled = flat * np.float32(scale)
        if self._member is not None:
            self._member.write(scaled)
            return stats
        stats = dict(stats)
        stats["flat_grads"] = scaled
        return stats

    def collective_step(self, method: str, step: int) -> int:
        """One barriered all-reduce step (``reduce_step`` /
        ``gather_step`` / ``tree_step``), named by the driver's
        :func:`allreduce_steps` schedule."""
        getattr(self._member, method)(step)
        return 0

    def apply_and_publish(self, weight_offset: int) -> Dict:
        """Rank 0 only: one fused optimizer step on the reduced vector
        (sitting in this rank's own block for both schedules), then
        publish the resulting flat weights at ``weight_offset``."""
        # Copy out of the shared block: the averaged vector must stay
        # intact for inspection while the step mutates variables.
        grad = np.array(self._member.read(self.rank), copy=True)
        synced = self.agent.apply_gradients(grad)
        self._member.write(self.agent.get_weights(flat=True),
                           offset=weight_offset)
        return {"synced": bool(synced), "updates": self.agent.updates}

    def apply_direct(self, grad) -> Dict:
        """No-shm fallback apply: gradient in, new weights out (pipe)."""
        synced = self.agent.apply_gradients(np.asarray(grad, np.float32))
        return {"synced": bool(synced), "updates": self.agent.updates,
                "weights": self.agent.get_weights(flat=True)}

    def load_weights(self, src_rank: int, n: int, offset: int,
                     updates: int) -> int:
        """Scatter the published flat weight vector (all trainables,
        target networks included — replicas never need their own sync
        cadence) from ``src_rank``'s block into this agent."""
        w = np.array(self._member.read(src_rank, n, offset), copy=True)
        self.agent.set_weights(w)
        self.agent.updates = int(updates)
        return 0

    def publish_weights(self, weight_offset: int) -> int:
        self._member.write(self.agent.get_weights(flat=True),
                           offset=weight_offset)
        return 0

    def shutdown(self) -> int:
        if self._member is not None:
            self._member.close()
            self._member = None
        return 0


class LearnerGroup:
    """``K`` learner replicas behind the single-learner interface.

    Executors treat a group exactly like an agent: ``update(batch)``
    returns the same tuple shape the wrapped agent class returns,
    ``get_weights(flat=True)`` is the broadcast vector (read zero-copy
    out of rank 0's block), ``full_state``/``restore_full_state``
    checkpoint through rank 0 (bitwise resume).  Faults compose with
    ``supervision_spec``: any replica death aborts the round, the
    supervisor restarts it, weights re-sync from block 0, and the whole
    round retries on the re-formed group (gradients recompute, so a
    half-reduced slab can never leak into a step).
    """

    def __init__(self, learner_agent, agent_factory: Optional[Callable],
                 spec=None, parallel_spec=None, supervision_spec=None,
                 pool=None):
        self.spec = resolve_learner_spec(spec)
        if self.spec is None:
            raise RLGraphError("LearnerGroup needs a resolved learner_spec")
        if getattr(learner_agent, "optimize", None) == "none":
            raise RLGraphError(
                "LearnerGroup requires a fused-capable optimize level "
                "(optimize='none' has no flat-gradient build path)")
        self.reference = learner_agent
        self.world_size = self.spec.num_learners
        self.algorithm = self.spec.resolve_algorithm()
        self.parallel = resolve_parallel_spec(parallel_spec)
        if agent_factory is None:
            raise RLGraphError("LearnerGroup needs an agent_factory")

        self._grad_n = int(learner_agent.flat_grad_size())
        self._weight_n = int(learner_agent.flat_layout().total)
        self._weight_off = self._grad_n
        self._capacity = self._grad_n + self._weight_n
        self._shard_axis, self._shard_axes = learner_agent.shard_spec()
        # One pooled block per rank, acquired once and rewritten every
        # round (pool stats prove steady-state rounds allocate nothing).
        self.ring = SlabRing(self.world_size, self._capacity, pool=pool)

        self.supervisor = Supervisor(supervision_spec)
        self.replicas = self.supervisor.spawn({
            f"learner-{r}": ReplicaFactory(
                self.parallel, LearnerReplicaActor,
                agent_factory, rank=r, world_size=self.world_size)
            for r in range(self.world_size)
        }, on_restart=self._sync_restarted)

        # Seed every replica with the reference learner's complete state
        # so rank assignment is the ONLY difference between them.
        state = learner_agent.full_state()
        raylite.get([h.restore_full_state.remote(state)
                     for h in self.replicas])
        self.updates = int(learner_agent.updates)
        self._last_weights: Optional[np.ndarray] = None
        if self.ring.available:
            raylite.get([h.setup_ring.remote(self.ring.names(),
                                             self._capacity, self._grad_n)
                         for h in self.replicas])
            # Publish the initial weights so block 0 is a valid sync
            # source from round zero (restart hooks read it).
            view = self.ring.view_of(0)
            view[self._weight_off:self._weight_off + self._weight_n] = \
                learner_agent.get_weights(flat=True)
        else:
            self._last_weights = np.array(
                learner_agent.get_weights(flat=True), np.float32, copy=True)

    # -- fault tolerance ------------------------------------------------------
    @property
    def restarts(self) -> int:
        return self.supervisor.total_restarts

    def _sync_restarted(self, handle) -> None:
        """Rejoin a restarted replica: re-attach the ring, then load the
        last published weights out of block 0 — valid even mid-round,
        because collective steps never write the weight region."""
        if self.ring.available:
            raylite.get(handle.setup_ring.remote(
                self.ring.names(), self._capacity, self._grad_n))
            raylite.get(handle.load_weights.remote(
                0, self._weight_n, self._weight_off, self.updates))
        else:
            raylite.get(handle.set_flat_weights.remote(
                self._last_weights, self.updates))

    # -- the group update -----------------------------------------------------
    def update(self, batch: Dict):
        """Shard -> gradient -> all-reduce -> ONE fused step -> re-sync.

        Return shape mirrors the wrapped agent's ``update``:
        ``(loss, td)`` for TD agents (TD errors concatenated back in
        original row order), else the tuple of batch-weighted mean
        losses."""
        # A replica death aborts the round: the supervisor restarts it
        # (SupervisionError propagates once the backoff budget is
        # exhausted) and the whole round re-runs on the re-formed group.
        return self.supervisor.retrying(lambda: self._round(batch))

    def _round(self, batch: Dict):
        """One round.  Thread replicas run their gradient plans — GEMMs
        included — concurrently in this process, so for the round each
        gets an equal share of the native pools' cores; process replicas
        cap their own pools, and this process's are left alone."""
        if self.parallel.is_process:
            return self._round_body(batch)
        with native_threads_among(self.world_size):
            return self._round_body(batch)

    def _round_body(self, batch: Dict):
        shards = split_batch(batch, self.world_size, remainder="last",
                             axis=self._shard_axis, axes=self._shard_axes)
        first = next(k for k in batch
                     if self._shard_axes.get(k, self._shard_axis) is not None)
        total_rows = np.asarray(batch[first]).shape[
            self._shard_axes.get(first, self._shard_axis)]
        sizes = shard_sizes(total_rows, self.world_size, remainder="last")

        stats = raylite.get([
            h.compute_gradients.remote(shard, n / total_rows)
            for h, shard, n in zip(self.replicas, shards, sizes)])

        if self.ring.available:
            # Barriered schedule: each step moves exactly one chunk (or
            # block) per rank, in place, over the pooled blocks.
            for method, step in allreduce_steps(self.algorithm,
                                                self.world_size):
                raylite.get([h.collective_step.remote(method, step)
                             for h in self.replicas])
            out = raylite.get(self.replicas[0].apply_and_publish.remote(
                self._weight_off))
            raylite.get([h.load_weights.remote(0, self._weight_n,
                                               self._weight_off,
                                               out["updates"])
                         for h in self.replicas[1:]])
        else:
            # Pipe fallback: same numerics, fixed rank-order summation.
            grads = [np.asarray(s.pop("flat_grads"), np.float32)
                     for s in stats]
            summed = grads[0].copy()
            for g in grads[1:]:
                summed += g
            out = raylite.get(self.replicas[0].apply_direct.remote(summed))
            self._last_weights = np.asarray(out["weights"], np.float32)
            raylite.get([h.set_flat_weights.remote(self._last_weights,
                                                   out["updates"])
                         for h in self.replicas[1:]])
        self.updates = int(out["updates"])
        return self._format(stats, sizes, total_rows)

    @staticmethod
    def _format(stats: List[Dict], sizes: List[int], total_rows: int):
        losses = [s["losses"] for s in stats]
        agg = tuple(
            float(sum(n / total_rows * l[i]
                      for n, l in zip(sizes, losses)))
            for i in range(len(losses[0])))
        if "td" in stats[0]:
            td = np.concatenate([np.asarray(s["td"]) for s in stats])
            return agg[0], td
        return agg if len(agg) > 1 else agg[0]

    # -- single-learner interface --------------------------------------------
    def get_weights(self, flat: bool = False):
        if not flat:
            return raylite.get(self.replicas[0].get_weights_dict.remote())
        if self.ring.available:
            view = self.ring.view_of(0)
            return np.array(
                view[self._weight_off:self._weight_off + self._weight_n],
                copy=True)
        return np.array(self._last_weights, copy=True)

    def set_weights(self, weights) -> None:
        raylite.get([h.set_flat_weights.remote(weights)
                     for h in self.replicas])
        self._republish()

    def _republish(self) -> None:
        if self.ring.available:
            raylite.get(self.replicas[0].publish_weights.remote(
                self._weight_off))
        else:
            self._last_weights = np.asarray(raylite.get(
                self.replicas[0].get_flat_weights.remote()), np.float32)

    # -- checkpoint/resume ----------------------------------------------------
    def full_state(self) -> Dict:
        """Group checkpoints ARE rank 0's full state — the only replica
        whose optimizer slots advance (ranks > 0 never apply)."""
        return self.supervisor.retrying(
            lambda: raylite.get(self.replicas[0].full_state.remote()))

    def restore_full_state(self, state: Dict) -> None:
        raylite.get([h.restore_full_state.remote(state)
                     for h in self.replicas])
        self.updates = int(state["updates"])
        self._republish()

    def shutdown(self) -> None:
        """Kill the replicas and return the blocks to the pool."""
        for handle in self.replicas:
            self.supervisor.kill(handle)
        self.ring.release()
