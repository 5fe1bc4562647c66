"""Variables: named, mutable state usable from both backends.

In symbolic mode a variable is read via a ``read_var`` node and mutated
through side-effecting ``assign``/``scatter`` nodes that the Session
executes in control-dependency order — the TensorFlow-style semantics
RLgraph's memory components rely on (paper Fig. 2). In eager mode the
same Variable mutates its NumPy storage immediately and reads return a
grad-tracked :class:`~repro.backend.eager.ETensor` (for trainables) or
the raw array.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import context
from repro.backend.eager import ETensor
from repro.backend.graph import Node
from repro.backend.ops import OPS, apply_op, register_op
from repro.utils.errors import RLGraphError


# -- state-buffer registry ---------------------------------------------------
# Every array that backs live variable state registers here. The
# compiler's buffer-donation pass and the native codegen backend consult
# it before writing into (or caching a pointer to) a buffer: an array
# that IS — or views into — variable storage must never be donated as a
# scratch output, and native plans must refresh cached variable pointers
# when storage is repointed (ParamSlab coalescing).
_STATE_BUFFERS: "weakref.WeakValueDictionary[int, np.ndarray]" = \
    weakref.WeakValueDictionary()

# Bumped whenever an existing Variable's storage is REBOUND to a new
# array (not merely written in place). Native plans cache raw data
# pointers into variable storage and compare this epoch per run.
_STORAGE_EPOCH = 0


def register_state_buffer(arr: np.ndarray) -> None:
    if isinstance(arr, np.ndarray):
        _STATE_BUFFERS[id(arr)] = arr


def bump_storage_epoch() -> None:
    global _STORAGE_EPOCH
    _STORAGE_EPOCH += 1


def storage_epoch() -> int:
    return _STORAGE_EPOCH


def aliases_state(arr) -> bool:
    """True if ``arr`` is (or views into) a registered state buffer."""
    while isinstance(arr, np.ndarray):
        hit = _STATE_BUFFERS.get(id(arr))
        if hit is arr:
            return True
        arr = arr.base
    return False


# -- stateful op specs -------------------------------------------------------
def _read_var_fwd(i, a):
    return a["var"].value


def _assign_fwd(i, a):
    a["var"].set(i[0])
    return a["var"].value


def _assign_add_fwd(i, a):
    var = a["var"]
    var.value += np.asarray(i[0], dtype=var.value.dtype)
    return var.value


def _scatter_update_fwd(i, a):
    idx, values = i
    var = a["var"]
    var.value[np.asarray(idx).astype(np.int64)] = values
    return np.asarray(np.size(idx), dtype=np.int64)


def _scatter_add_fwd(i, a):
    idx, values = i
    var = a["var"]
    np.add.at(var.value, np.asarray(idx).astype(np.int64), values)
    return np.asarray(np.size(idx), dtype=np.int64)


# The writers copy their argument into variable storage (alias-safe as
# consumers) and are mutation barriers; the read returns live storage.
register_op("read_var", _read_var_fwd, None,
            shape_fn=lambda shapes, a: a["var"].shape,
            dtype_fn=lambda dtypes, a: a["var"].dtype, stateful=True,
            mutates=False)
register_op("assign", _assign_fwd, None,
            shape_fn=lambda shapes, a: a["var"].shape,
            dtype_fn=lambda dtypes, a: a["var"].dtype, stateful=True,
            alias_safe=True)
register_op("assign_add", _assign_add_fwd, None,
            shape_fn=lambda shapes, a: a["var"].shape,
            dtype_fn=lambda dtypes, a: a["var"].dtype, stateful=True,
            alias_safe=True)
register_op("scatter_update", _scatter_update_fwd, None,
            shape_fn=lambda shapes, a: (), stateful=True, alias_safe=True)
register_op("scatter_add", _scatter_add_fwd, None,
            shape_fn=lambda shapes, a: (), stateful=True, alias_safe=True)


class Variable:
    """Named mutable array with a fixed shape and dtype."""

    def __init__(self, name: str, initial_value, trainable: bool = True,
                 dtype=None, graph=None, device: Optional[str] = None):
        value = np.array(initial_value, dtype=dtype)
        if value.dtype == np.float64:
            value = value.astype(np.float32)
        self.name = name
        self.value = value
        register_state_buffer(value)
        self.trainable = bool(trainable)
        self.device = device or context.current_device()
        self.graph = graph
        self.slab: Optional["ParamSlab"] = None
        self._eager_tensor: Optional[ETensor] = None
        self._read_nodes = {}
        if graph is not None:
            graph.register_variable(self)

    @classmethod
    def from_buffer(cls, name: str, buffer: np.ndarray,
                    trainable: bool = False) -> "Variable":
        """Wrap an existing array as a Variable *without copying it* —
        the variable's storage IS ``buffer`` (used for slab handles)."""
        var = cls.__new__(cls)
        var.name = name
        var.value = buffer
        register_state_buffer(buffer)
        var.trainable = bool(trainable)
        var.device = context.current_device()
        var.graph = None
        var.slab = None
        var._eager_tensor = None
        var._read_nodes = {}
        return var

    # -- geometry ------------------------------------------------------------
    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    # -- raw access ------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        return self.value

    def set(self, new_value) -> None:
        """Overwrite in place (shape must match; dtype is cast)."""
        arr = np.asarray(new_value, dtype=self.value.dtype)
        if arr.shape != self.value.shape:
            raise RLGraphError(
                f"Variable {self.name}: shape {arr.shape} != {self.value.shape}")
        self.value[...] = arr
        # _eager_tensor wraps the same buffer, so it stays current.

    # -- handles -----------------------------------------------------------------
    def read(self):
        """Handle for use inside graph functions.

        Symbolic mode -> a ``read_var`` node (one per graph, cached);
        eager mode -> a shared grad-leaf ETensor for trainables, or the raw
        array for non-trainables (cheaper, no tape interaction).
        """
        if context.is_symbolic():
            graph = context.current_graph()
            node = self._read_nodes.get(id(graph))
            if node is None:
                node = apply_op(OPS["read_var"], [], {"var": self})
                node.name = f"read/{self.name}"
                self._read_nodes[id(graph)] = node
            return node
        if not self.trainable:
            return self.value
        if self._eager_tensor is None or self._eager_tensor.data is not self.value:
            self._eager_tensor = ETensor(self.value, requires_grad=True)
        return self._eager_tensor

    def assign(self, value):
        """Assign op (symbolic) or immediate in-place write (eager)."""
        if context.is_symbolic():
            return apply_op(OPS["assign"], [value], {"var": self})
        from repro.backend.eager import raw
        self.set(raw(value))
        return None

    def assign_add(self, delta):
        if context.is_symbolic():
            return apply_op(OPS["assign_add"], [delta], {"var": self})
        from repro.backend.eager import raw
        self.value += np.asarray(raw(delta), dtype=self.value.dtype)
        return None

    def scatter_update(self, indices, values):
        """Row-wise write: ``value[indices] = values``."""
        if context.is_symbolic():
            return apply_op(OPS["scatter_update"], [indices, values],
                            {"var": self})
        from repro.backend.eager import raw
        self.value[np.asarray(raw(indices)).astype(np.int64)] = raw(values)
        return None

    def scatter_add(self, indices, values):
        if context.is_symbolic():
            return apply_op(OPS["scatter_add"], [indices, values], {"var": self})
        from repro.backend.eager import raw
        np.add.at(self.value, np.asarray(raw(indices)).astype(np.int64),
                  raw(values))
        return None

    def grad(self) -> Optional[np.ndarray]:
        """Eager-mode gradient accumulated by the last backward pass."""
        if self._eager_tensor is None:
            return None
        return self._eager_tensor.grad

    def zero_grad(self):
        if self._eager_tensor is not None:
            self._eager_tensor.zero_grad()

    def __repr__(self):
        kind = "trainable" if self.trainable else "state"
        return (f"Variable({self.name}, shape={self.value.shape}, "
                f"dtype={self.value.dtype}, {kind})")


# ---------------------------------------------------------------------------
# Flat-parameter subsystem: coalesced slabs + storage-agnostic flat layouts
# ---------------------------------------------------------------------------
class ParamSlab:
    """One contiguous float32 buffer backing a set of Variables.

    Coalescing repoints each member Variable's ``value`` to a zero-copy
    view into the slab, so every existing access path — ``read_var``
    nodes, eager ETensors, ``set``/``assign_add`` in-place writes —
    keeps working unchanged while whole-model operations (fused
    optimizer updates, flat weight sync) become single kernels over
    ``self.flat``. The member order is the slab layout; a variable can
    belong to at most one slab.
    """

    def __init__(self, variables: Sequence[Variable], name: str = "param-slab"):
        members = list(variables)
        if not members:
            raise RLGraphError(f"ParamSlab {name!r}: empty variable list")
        seen = set()
        for var in members:
            if var.name in seen:
                raise RLGraphError(
                    f"ParamSlab {name!r}: duplicate variable {var.name!r}")
            seen.add(var.name)
            if var.slab is not None:
                raise RLGraphError(
                    f"ParamSlab {name!r}: {var.name!r} already belongs to "
                    f"slab {var.slab.name!r}")
            if var.dtype != np.float32:
                raise RLGraphError(
                    f"ParamSlab {name!r}: {var.name!r} has dtype "
                    f"{var.dtype}; only float32 variables coalesce")
        self.name = name
        self.members = members
        self.layout: List[Tuple[str, int, Tuple[int, ...]]] = []
        offset = 0
        for var in members:
            size = int(np.prod(var.shape)) if var.shape else 1
            self.layout.append((var.name, offset, tuple(var.shape)))
            offset += size
        self.size = offset
        self.flat = np.empty(self.size, dtype=np.float32)
        register_state_buffer(self.flat)
        self._offsets: Dict[str, int] = {}
        for var, (vname, off, shape) in zip(members, self.layout):
            size = int(np.prod(shape)) if shape else 1
            self.flat[off:off + size] = var.value.reshape(-1)
            var.value = self.flat[off:off + size].reshape(shape)
            var.slab = self
            self._offsets[vname] = off
        # Member storage was repointed: native plans holding raw data
        # pointers into the old buffers must re-resolve them.
        bump_storage_epoch()
        self._flat_var: Optional[Variable] = None

    @classmethod
    def ensure(cls, variables: Sequence[Variable],
               name: str = "param-slab") -> "ParamSlab":
        """Slab covering exactly ``variables`` (created sorted by name).

        If the set is already coalesced — by an optimizer, a
        synchronizer, or an explicit ``coalesce_variables()`` call —
        the existing slab is returned, so independent consumers of the
        same variable set agree on one layout.
        """
        members = sorted(variables, key=lambda v: v.name)
        slabs = {id(v.slab) for v in members}
        if len(slabs) == 1 and members and members[0].slab is not None:
            slab = members[0].slab
            if {v.name for v in slab.members} == {v.name for v in members}:
                return slab
            raise RLGraphError(
                f"ParamSlab {name!r}: variables are part of the larger slab "
                f"{slab.name!r}; cannot re-coalesce a subset")
        return cls(members, name=name)

    def flat_variable(self) -> Variable:
        """A (size,)-shaped Variable whose storage IS the slab buffer —
        the handle flat sync ops read/assign through."""
        if self._flat_var is None:
            self._flat_var = Variable.from_buffer(f"{self.name}/flat",
                                                  self.flat)
        return self._flat_var

    def view(self, name: str) -> np.ndarray:
        """The member variable's view into the slab, by variable name."""
        for var in self.members:
            if var.name == name:
                return var.value
        raise RLGraphError(f"ParamSlab {self.name!r}: no member {name!r}")

    def __repr__(self):
        return (f"ParamSlab({self.name}, members={len(self.members)}, "
                f"size={self.size})")


class FlatLayout:
    """Deterministic flat (name, offset, shape) table over a registry.

    Storage-agnostic counterpart to :class:`ParamSlab`: it does not
    claim variable buffers, it only fixes a sorted-by-name packing so
    two same-architecture agents (learner and actor processes) agree on
    the meaning of one flat weight vector. ``gather``/``scatter`` use a
    single memcpy per contiguous slab-backed run and fall back to
    per-variable copies for standalone variables.
    """

    def __init__(self, registry: Dict[str, Variable]):
        self.entries: List[Tuple[str, Variable, int, int, Tuple[int, ...]]] = []
        offset = 0
        for name in sorted(registry):
            var = registry[name]
            size = int(np.prod(var.shape)) if var.shape else 1
            self.entries.append((name, var, offset, size, tuple(var.shape)))
            offset += size
        self.total = offset
        self._runs = self._slab_runs()
        self._runs_sig = self._slab_sig()

    def _slab_sig(self):
        return tuple(id(var.slab) for _, var, _, _, _ in self.entries)

    def _current_runs(self):
        """Runs, rebuilt if slab membership changed since they were
        computed — a layout built before an optimizer coalesces its
        slab (eager backend) must still gain the memcpy fast path."""
        sig = self._slab_sig()
        if sig != self._runs_sig:
            self._runs = self._slab_runs()
            self._runs_sig = sig
        return self._runs

    def _slab_runs(self):
        """Maximal runs of layout entries that are consecutive segments
        of one slab — each run moves with a single memcpy."""
        runs = []
        idx = 0
        while idx < len(self.entries):
            name, var, offset, size, _ = self.entries[idx]
            slab = var.slab
            if slab is None:
                runs.append((None, var, offset, size))
                idx += 1
                continue
            start = slab._offsets.get(name)
            if start is None or not np.shares_memory(var.value, slab.flat):
                runs.append((None, var, offset, size))
                idx += 1
                continue
            stop = start + size
            end = idx + 1
            while end < len(self.entries):
                next_name, next_var, _, next_size, _ = self.entries[end]
                if next_var.slab is not slab \
                        or slab._offsets.get(next_name) != stop:
                    break
                stop += next_size
                end += 1
            runs.append((slab, (start, stop), offset, stop - start))
            idx = end
        return runs

    def gather(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Pack every variable into one float32 vector."""
        if out is None:
            out = np.empty(self.total, dtype=np.float32)
        for slab, src, offset, size in self._current_runs():
            if slab is None:
                out[offset:offset + size] = src.value.reshape(-1)
            else:
                start, stop = src
                out[offset:offset + size] = slab.flat[start:stop]
        return out

    def scatter(self, flat: np.ndarray) -> None:
        """Write a flat vector back into the variables, in place."""
        flat = np.asarray(flat)
        if flat.shape != (self.total,):
            raise RLGraphError(
                f"FlatLayout: expected a ({self.total},) vector, got shape "
                f"{flat.shape}")
        for slab, dst, offset, size in self._current_runs():
            if slab is None:
                dst.value.reshape(-1)[...] = flat[offset:offset + size]
            else:
                start, stop = dst
                slab.flat[start:stop] = flat[offset:offset + size]

    def to_dict(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a flat vector into a per-variable dict (checkpoints)."""
        flat = np.asarray(flat)
        return {name: flat[offset:offset + size].reshape(shape).copy()
                for name, _, offset, size, shape in self.entries}
