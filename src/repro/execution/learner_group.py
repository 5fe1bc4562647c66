"""Data-parallel learner group: sharded gradients, one replicated step.

The group replaces the executor's single learner with ``K`` replica
actors that together behave like one learner (paper §5.2's distributed
semantics, applied to the *update* side of the loop; the synchronous
multi-device update of the paper's Fig. 8, done the Horovod way —
all-reduce, then the same apply on every replica):

1. the driver shards each training batch deterministically through
   :func:`~repro.components.common.batch_splitter.split_batch` (the last
   shard absorbs ``B % K`` rows — nothing is dropped);
2. every replica runs only the gradient half of the fused optimizer step
   (``Agent.get_gradients``) and scales its flat gradient slab by
   ``n_k / B`` straight into its persistent pooled shared-memory block,
   so the SUM over blocks is the full-batch mean;
3. every replica sums the ``K`` reduce regions in rank order
   (``block 0 + block 1 + …``, :meth:`RingMember.sum_into`) and applies
   ONE fused optimizer step to that sum (``Agent.apply_gradients`` — the
   exact lowering of the in-graph step, so K=1 is bitwise-identical to a
   plain ``update``).  Same code on the same inputs: every replica ends
   the round with the same weights, optimizer slots and ``updates``.
   Rank 0 also publishes its flat weights into block 0's weight region
   for the driver and the actors.

A round is therefore two driver fan-outs, ``compute_gradients`` and
``apply_reduced``; no gradient or weight bytes cross a pipe.

Block layout (float32 elements): ``[0, grad_n)`` is the reduce region,
rewritten every round; block 0 additionally carries the last published
weight vector at ``[grad_n, grad_n + weight_n)``.  Nothing in a round
writes another rank's block, and only rank 0 writes the weight region.

Exactly once: the gradient phase mutates no replica, so a death there
re-runs the round.  Every replica that answers ``apply_reduced`` has
applied the round, so one answer commits it; a replica lost in the
apply phase rejoins from a live peer's ``full_state`` (weights, Adam
slots, ``updates``) and the round is not re-run.  Each apply names its
step, so a replica restored from a peer that already applied it does
not apply it again.  Only with no live peer (K=1, or every replica lost
at once) does a restarted replica fall back to block 0's weights, with
fresh optimizer slots; :meth:`LearnerGroup.full_state` checkpoints are
the exact recovery path there.

When shared memory is unavailable the driver sums the slabs in the same
rank order and hands the sum to every replica's ``apply_reduced`` over
the pipe codec — slower, same numerics, same two fan-outs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro import raylite
from repro.components.common.batch_splitter import shard_sizes, split_batch
from repro.execution.parallel import resolve_parallel_spec
from repro.execution.supervision import ReplicaFactory, Supervisor, gather
from repro.execution.worker import build_agent
from repro.raylite.collectives import RingMember, SlabRing
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
        self._reduced: Optional[np.ndarray] = None

    def ping(self) -> int:
        return self.rank

    # -- ring membership ------------------------------------------------------
    def setup_ring(self, names, capacity: int, reduce_elements: int) -> int:
        if self._member is not None:
            self._member.close()
        self._member = RingMember(self.rank, self.world_size, names,
                                  capacity, reduce_elements)
        self._reduced = np.empty(reduce_elements, np.float32)
        return 0

    # -- state sync -----------------------------------------------------------
    def restore_full_state(self, state) -> int:
        self.agent.restore_full_state(state)
        return 0

    def full_state(self):
        return self.agent.full_state()

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
        if self._member is not None:
            np.multiply(flat, np.float32(scale),
                        out=self._member.read(self.rank))
            return stats
        stats = dict(stats)
        stats["flat_grads"] = flat * np.float32(scale)
        return stats

    def apply_reduced(self, weight_offset: int, step: int,
                      grad=None) -> Dict:
        """Every rank: apply the round's summed gradient — the ``K``
        reduce regions added in rank order, or ``grad`` when the driver
        summed them (no-shm fallback) — as the group's step ``step``.

        A replica already at ``step`` (restored from a peer that applied
        it) does not apply it twice.  Rank 0 then publishes its weights:
        into block 0's weight region, or back over the pipe as
        ``"weights"`` without a ring."""
        synced = False
        if self.agent.updates < step:
            if grad is None:
                grad = self._member.sum_into(self._reduced)
            synced = self.agent.apply_gradients(grad)
        out = {"synced": bool(synced), "updates": self.agent.updates}
        if self.rank == 0:
            out["weights"] = self.publish_weights(weight_offset)
        return out

    def publish_weights(self, weight_offset: int):
        """Write the flat weights into this rank's block at
        ``weight_offset``; without a ring, return them instead."""
        layout = self.agent.flat_layout()
        if self._member is None:
            return layout.gather()
        layout.gather(out=self._member.read(self.rank, layout.total,
                                            weight_offset))
        return None

    # -- the earlier round: a barriered all-reduce, rank 0 applies and
    # publishes, the others load.  perf/'s phase re-enactment drives
    # these; load_weights is also the no-peer rejoin.
    def collective_step(self, method: str, step: int) -> int:
        """One barriered all-reduce step (``reduce_step`` /
        ``gather_step`` / ``tree_step``), named by the driver's
        :func:`~repro.raylite.collectives.allreduce_steps` schedule."""
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

    def load_weights(self, src_rank: int, n: int, offset: int,
                     updates: int) -> int:
        """Scatter the published flat weight vector (all trainables,
        target networks included — replicas never need their own sync
        cadence) from ``src_rank``'s block into this agent."""
        w = np.array(self._member.read(src_rank, n, offset), copy=True)
        self.agent.set_weights(w)
        self.agent.updates = int(updates)
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
    ``get_weights(flat=True)`` is the broadcast vector (read out of
    rank 0's block), ``full_state``/``restore_full_state`` checkpoint
    through rank 0 (bitwise resume).  Faults compose with
    ``supervision_spec``, and a round applies exactly once: a replica
    death in the gradient phase re-runs the round on the re-formed
    group; one in the apply phase is healed after it — the restarted
    replica takes a live peer's ``full_state`` — and the round stands.
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
        """Rejoin a restarted replica: re-attach the ring, then restore a
        live peer's ``full_state`` — weights, optimizer slots and
        ``updates``, which every replica holds alike — and, for rank 0,
        republish block 0.  With no live peer (K=1, or every replica
        lost at once) it loads the last published weights instead, with
        fresh optimizer slots."""
        rank = raylite.get(handle.ping.remote())
        if self.ring.available:
            raylite.get(handle.setup_ring.remote(
                self.ring.names(), self._capacity, self._grad_n))
        state = self._peer_state(rank)
        if state is not None:
            raylite.get(handle.restore_full_state.remote(state))
            if rank == 0:
                self._republish(handle)
        elif self.ring.available:
            raylite.get(handle.load_weights.remote(
                0, self._weight_n, self._weight_off, self.updates))
        else:
            raylite.get(handle.set_flat_weights.remote(
                self._last_weights, self.updates))

    def _peer_state(self, rank: int) -> Optional[Dict]:
        """The ``full_state`` of the first live replica other than
        ``rank`` (raw handles: asking a peer never restarts one)."""
        for r, peer in enumerate(self.supervisor.handles()):
            if r != rank and peer.is_alive():
                try:
                    return raylite.get(peer.full_state.remote())
                except Exception:
                    continue  # lost while answering: ask the next one
        return None

    # -- the group update -----------------------------------------------------
    def update(self, batch: Dict):
        """Shard -> gradients -> every replica sums and applies ONE
        fused step.

        Return shape mirrors the wrapped agent's ``update``:
        ``(loss, td)`` for TD agents (TD errors concatenated back in
        original row order), else the tuple of batch-weighted mean
        losses."""
        # A round that raises has not been applied by any live replica:
        # the supervisor restarts the dead (SupervisionError propagates
        # once the backoff budget is exhausted) and the round re-runs.
        out = self.supervisor.retrying(lambda: self._round(batch))
        # A round that returned is applied; replicas lost in its apply
        # phase rejoin now, from a peer that applied it.
        self.supervisor.probe()
        return out

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

        # Gradient phase: no replica state changes, so a death here
        # re-runs the round (update's retrying).
        stats = raylite.get([
            h.compute_gradients.remote(shard, n / total_rows)
            for h, shard, n in zip(self.replicas, shards, sizes)])
        summed = None
        if not self.ring.available:
            # Pipe fallback: the same rank-order sum, made here.
            summed = np.asarray(stats[0].pop("flat_grads"), np.float32)
            for s in stats[1:]:
                summed = summed + s.pop("flat_grads")

        # Apply phase: every replica that answers has applied step
        # updates + 1, so one answer commits the round.
        outs = gather(self.replicas, "apply_reduced", self._weight_off,
                      self.updates + 1, summed)
        if not outs:
            raise RLGraphError("every learner replica was lost mid-apply")
        self.updates = int(outs[0]["updates"])
        for out in outs:
            if out.get("weights") is not None:
                self._last_weights = np.asarray(out["weights"], np.float32)
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

    def _republish(self, rank0=None) -> None:
        """Have rank 0 (``rank0``: its fresh incarnation) publish its
        weights: into block 0, or to the driver without a ring."""
        rank0 = self.replicas[0] if rank0 is None else rank0
        weights = raylite.get(rank0.publish_weights.remote(self._weight_off))
        if weights is not None:
            self._last_weights = np.asarray(weights, np.float32)

    # -- checkpoint/resume ----------------------------------------------------
    def full_state(self) -> Dict:
        """Group checkpoints are rank 0's full state — every replica
        applies every step, so any one of them holds the group's
        weights, optimizer slots and ``updates``."""
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
