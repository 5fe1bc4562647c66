"""Shared-memory collectives for data-parallel learner groups.

The learner group's all-reduce never ships gradient bytes through a
pipe: every rank owns one persistent named shared-memory block holding
its flat gradient slab (float32, ParamSlab order), acquired ONCE from
the :class:`~repro.raylite.shm.BlockPool` and rewritten in place every
round — no per-round pickle, no per-round alloc/unlink.  The driver
only dispatches tiny step tokens (`reduce_step(s)` / `gather_step(s)`)
and barriers on them; the data plane is pure memcpy/add over the
blocks.

Two schedules, both deterministic (fixed chunk boundaries, fixed
summation order — repeated runs are bitwise identical):

* **ring** (default for world_size > 2): the classic bandwidth-optimal
  reduce-scatter + all-gather.  The flat vector splits into
  ``world_size`` near-equal chunks; at reduce step ``s`` rank ``r``
  adds chunk ``(r - 1 - s) % K`` of its ring predecessor's block into
  its own, so after ``K - 1`` barriered steps rank ``r`` owns the fully
  reduced chunk ``(r + 1) % K``; ``K - 1`` gather steps then copy the
  finished chunks around the ring.  Each step moves exactly one
  chunk per rank — ~2·N bytes total per rank, independent of K.
* **tree** (fallback, and the world_size ≤ 2 default): binomial-tree
  pairwise adds — at step ``s`` (stride ``2**s``) every active rank
  adds its partner's whole block into its own; after ``ceil(log2 K)``
  steps rank 0's block holds the sum.  Fewer barriers than the ring
  for tiny groups, at the cost of O(N·log K) traffic.

Within one barriered step no two ranks touch the same chunk of the
same block (the schedules are disjoint by construction), so the only
synchronization required is the driver's barrier between steps.

The learner group's round runs neither schedule: after one barrier,
every rank sums all ``K`` reduce regions itself in rank order
(:meth:`RingMember.sum_into`) — ``K - 1`` reads per rank in place of
the schedules' extra barriers.  The schedules stay for ``perf/``'s
phase re-enactment and the E14 time-to-sync bench.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.raylite.shm import BlockPool, get_pool

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - ancient/exotic platforms
    shared_memory = None


# -- schedule arithmetic (pure functions; unit-testable) ----------------------

def chunk_bounds(num_elements: int, world_size: int) -> List[int]:
    """Ring chunk boundaries: ``world_size`` near-equal contiguous
    chunks (first ``num_elements % world_size`` chunks one longer)."""
    base, rem = divmod(int(num_elements), int(world_size))
    bounds = [0]
    for c in range(world_size):
        bounds.append(bounds[-1] + base + (1 if c < rem else 0))
    return bounds


def ring_reduce_chunk(rank: int, step: int, world_size: int) -> int:
    """Chunk rank ``rank`` accumulates at reduce-scatter step ``step``."""
    return (rank - 1 - step) % world_size


def ring_gather_chunk(rank: int, step: int, world_size: int) -> int:
    """Chunk rank ``rank`` copies from its predecessor at gather step."""
    return (rank - step) % world_size


def ring_num_steps(world_size: int) -> int:
    return max(world_size - 1, 0)


def tree_partner(rank: int, step: int, world_size: int) -> Optional[int]:
    """The rank whose block ``rank`` absorbs at tree step ``step``
    (None when ``rank`` is idle this step)."""
    stride = 1 << step
    if rank % (2 * stride) == 0 and rank + stride < world_size:
        return rank + stride
    return None


def tree_num_steps(world_size: int) -> int:
    return max(int(math.ceil(math.log2(world_size))), 0) if world_size > 1 \
        else 0


# -- driver side --------------------------------------------------------------

class SlabRing:
    """Driver-owned arena: one pooled block per rank, plus zero-copy
    driver views (the driver reads published weights straight out of
    rank 0's block).  ``available`` is False when shared memory could
    not be provisioned — callers fall back to pipe transport."""

    def __init__(self, world_size: int, capacity: int,
                 pool: Optional[BlockPool] = None):
        self.world_size = int(world_size)
        self.capacity = int(capacity)
        self.nbytes = self.capacity * 4
        self._pool = pool if pool is not None else get_pool()
        blocks = []
        for _ in range(self.world_size):
            shm = self._pool.acquire(self.nbytes)
            if shm is None:
                for b in blocks:
                    self._pool.release(b)
                blocks = None
                break
            blocks.append(shm)
        self._blocks = blocks
        if blocks is not None:
            for r in range(self.world_size):
                self.view_of(r).fill(0.0)

    @property
    def available(self) -> bool:
        return self._blocks is not None

    def names(self) -> List[str]:
        return [b.name for b in self._blocks]

    def view_of(self, rank: int) -> np.ndarray:
        """Driver-side float32 view over rank ``rank``'s block."""
        return np.ndarray((self.capacity,), dtype=np.float32,
                          buffer=self._blocks[rank].buf)

    def release(self) -> None:
        """Return every block to the pool (reused by the next group)."""
        if self._blocks is None:
            return
        for b in self._blocks:
            self._pool.release(b)
        self._blocks = None


# -- member (replica) side ----------------------------------------------------

class RingMember:
    """One rank's attachment to the group's blocks.

    Pure data plane: the driver supplies the barrier between step
    calls; within a step the schedules above guarantee no two ranks
    write/read overlapping chunk regions.  Blocks attach lazily on
    first use and are immediately disowned (the driver's pool is the
    single owner — a SIGKILL'd member leaks nothing).
    """

    def __init__(self, rank: int, world_size: int, names: Sequence[str],
                 capacity: int, reduce_elements: int):
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.names = list(names)
        self.capacity = int(capacity)
        self.reduce_elements = int(reduce_elements)
        self.bounds = chunk_bounds(self.reduce_elements, self.world_size)
        self._shms = None
        self._views: Optional[List[np.ndarray]] = None

    def _ensure(self) -> List[np.ndarray]:
        if self._views is None:
            # Attaching re-registers the name with the (shared) resource
            # tracker — a set, so the entry stays the pool's single one.
            # Members never unlink and never disown: the pool's drain()
            # performs the one balancing unlink at driver exit.
            shms = [shared_memory.SharedMemory(name=n) for n in self.names]
            self._shms = shms
            self._views = [
                np.ndarray((self.capacity,), dtype=np.float32, buffer=s.buf)
                for s in shms]
        return self._views

    def close(self) -> None:
        views, self._views = self._views, None
        shms, self._shms = self._shms, None
        del views
        for s in shms or []:
            try:
                s.close()
            except BufferError:  # pragma: no cover - stray export
                pass

    # -- data plane -----------------------------------------------------------
    def write(self, vec: np.ndarray, offset: int = 0) -> None:
        """Write ``vec`` into this rank's block at ``offset``."""
        views = self._ensure()
        views[self.rank][offset:offset + len(vec)] = vec

    def read(self, rank: int, n: Optional[int] = None,
             offset: int = 0) -> np.ndarray:
        """A (zero-copy) view of ``rank``'s block — copy before holding."""
        views = self._ensure()
        n = self.reduce_elements if n is None else int(n)
        return views[rank][offset:offset + n]

    def sum_into(self, out: np.ndarray) -> np.ndarray:
        """Sum every rank's reduce region into ``out`` in rank order
        (``block 0 + block 1 + …``): the same inputs in the same order
        on every rank, so every rank gets the same bits."""
        views = self._ensure()
        n = self.reduce_elements
        np.copyto(out, views[0][:n])
        for view in views[1:]:
            np.add(out, view[:n], out=out)
        return out

    # -- ring schedule --------------------------------------------------------
    def reduce_step(self, step: int) -> None:
        views = self._ensure()
        c = ring_reduce_chunk(self.rank, step, self.world_size)
        lo, hi = self.bounds[c], self.bounds[c + 1]
        src = views[(self.rank - 1) % self.world_size]
        views[self.rank][lo:hi] += src[lo:hi]

    def gather_step(self, step: int) -> None:
        views = self._ensure()
        c = ring_gather_chunk(self.rank, step, self.world_size)
        lo, hi = self.bounds[c], self.bounds[c + 1]
        src = views[(self.rank - 1) % self.world_size]
        views[self.rank][lo:hi] = src[lo:hi]

    # -- tree schedule --------------------------------------------------------
    def tree_step(self, step: int) -> bool:
        """Absorb this step's partner block; False when idle."""
        partner = tree_partner(self.rank, step, self.world_size)
        if partner is None:
            return False
        views = self._ensure()
        n = self.reduce_elements
        views[self.rank][:n] += views[partner][:n]
        return True


def allreduce_steps(algorithm: str, world_size: int) -> List[str]:
    """The barriered step sequence for one all-reduce round, as method
    names on :class:`RingMember` paired with step indices — the driver
    iterates this to orchestrate the round."""
    if algorithm == "ring":
        steps = [("reduce_step", s) for s in range(ring_num_steps(world_size))]
        steps += [("gather_step", s)
                  for s in range(ring_num_steps(world_size))]
        return steps
    if algorithm == "tree":
        return [("tree_step", s) for s in range(tree_num_steps(world_size))]
    raise ValueError(f"Unknown all-reduce algorithm {algorithm!r} "
                     f"(expected 'ring' or 'tree')")
