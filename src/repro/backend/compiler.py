"""Graph compiler for the symbolic backend.

The paper's premise is that expressing RL logic as a component graph lets
the backend *optimize* execution instead of replaying it op by op ("all
relevant operations into a single session call", §1). This module is that
optimizer: it turns a fetch-set's topological plan into a
:class:`CompiledPlan` through classic compiler passes and then executes
it with a flat slot-based executor instead of the per-node dict walk.

Pass pipeline (levels are cumulative):

``basic``
    1. **Constant folding** — stateless nodes whose inputs are all
       constants are evaluated once at compile time and become
       preloaded slab constants.
    2. **Common-subexpression elimination** — stateless nodes with
       identical ``(op, input-ids, attrs)`` signatures are merged.
    3. **Dead-node elimination** — nodes no longer reachable from the
       fetches (through data *or* control edges) after folding/CSE are
       dropped. Stateful nodes reachable from the fetches are always
       kept, in their original relative order.

``fused``
    4. **Elementwise fusion** — chains/trees of elementwise ops whose
       intermediates have a single consumer collapse into one fused
       kernel (:func:`repro.backend.kernels.build_fused_kernel`), so a
       whole arithmetic chain costs one executor step.

``native``
    Same passes as ``fused``; execution is then handed to the native C
    codegen backend (:mod:`repro.backend.native`), which compiles the
    whole slot-slab plan into C segments called with zero Python
    dispatch. Falls back to ``fused`` when no C toolchain is present.

All levels finish with:

    5. **Slot allocation** — every surviving value gets an index into a
       preallocated value slab; argument slot tuples are precomputed, and
       slots are reused once their last consumer has run (register
       allocation by liveness), keeping the slab small.
    6. **Memory planning (buffer donation)** — an elementwise (or fused)
       step one of whose inputs is a fresh, non-aliased buffer *dying at
       that step* writes its output in place into that buffer through
       the op's out-form (``OpSpec.out``) instead of allocating. Feeds,
       fetches, constants, and anything aliasing variable state are
       never donated; a runtime shape/dtype guard keeps the in-place
       write exact, so results stay bitwise identical to the interpreter.

Which ops may fold, fuse, donate or act as a mutation barrier is not
listed here: every pass reads the facts declared once per op on
:class:`repro.backend.ops.OpSpec`.

Correctness invariants:

* stateful ops (assigns, scatters, random draws, ``py_func``) are never
  folded, merged, or fused, and the surviving steps preserve the original
  topological order, so control-dependency semantics are unchanged;
* folding and fusion call the *registered* op forwards, so results are
  bitwise identical to the interpreter at every optimization level.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import kernels, variables
from repro.backend.graph import Node
from repro.backend.ops import OPS
from repro.utils.errors import RLGraphError

# Don't bake folded constants bigger than this into the plan (bytes).
_FOLD_SIZE_LIMIT = 1 << 20

OPTIMIZE_LEVELS = ("none", "basic", "fused", "native")


class CompileStats:
    """Per-plan pass counters, aggregated into SessionStats.

    ``buffers_donated`` counts the steps writing in place into a dying
    input buffer and ``bytes_saved`` the statically-known bytes of
    allocation that avoids per run (unknown-shape donations count 0).
    The ``native_*`` counters are filled in by backend/native.py at
    lowering.
    """

    __slots__ = ("nodes_total", "nodes_folded", "nodes_cse", "nodes_dead",
                 "nodes_fused", "fused_kernels", "num_steps", "slab_slots",
                 "slab_slots_saved", "buffers_donated", "bytes_saved",
                 "native_segments", "native_steps", "native_py_steps")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _freeze_attr(value) -> Any:
    """Hashable signature of one attr value (for the CSE key)."""
    if isinstance(value, np.ndarray):
        if value.size <= 256:
            return ("arr", value.tobytes(), str(value.dtype), value.shape)
        return ("obj", id(value))
    if isinstance(value, np.dtype):
        return ("dt", str(value))
    if isinstance(value, slice):
        return ("slice", _freeze_attr(value.start), _freeze_attr(value.stop),
                _freeze_attr(value.step))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_freeze_attr(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            (k, _freeze_attr(v)) for k, v in value.items()))
    if isinstance(value, type):
        return ("type", value.__module__, value.__qualname__)
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if value is Ellipsis:
        return ("ellipsis",)
    return ("obj", id(value))


def _cse_key(node: Node, input_ids: Sequence[int]) -> Optional[Tuple]:
    try:
        attr_key = tuple(sorted(
            (k, _freeze_attr(v)) for k, v in node.attrs.items()))
    except TypeError:
        return None
    return (node.op, tuple(input_ids), attr_key)


class _Step:
    """One executor step: precomputed forward + slot index arrays.

    For a fused group, ``instructions`` holds the member ops as
    ``(op, forward, attrs, refs)`` so the plan driver can inline them
    with local temporaries; ``forward`` is then the standalone fused
    kernel used by the non-codegen fallback path. ``op`` is the op name
    ("fused" for groups — the native backend reads member ops from
    ``instructions``). ``donate_slot``/``donate_fn`` carry the memory
    plan: when set, the driver writes the step result in place into the
    (dying) buffer at ``donate_slot`` via the out-form kernel.
    """

    __slots__ = ("op", "forward", "attrs", "arg_slots", "out_slot", "name",
                 "instructions", "donate_slot", "donate_fn")

    def __init__(self, op, forward, attrs, arg_slots, out_slot, name,
                 instructions=None, donate_slot=None, donate_fn=None):
        self.op = op
        self.forward = forward
        self.attrs = attrs
        self.arg_slots = arg_slots
        self.out_slot = out_slot
        self.name = name
        self.instructions = instructions
        self.donate_slot = donate_slot
        self.donate_fn = donate_fn


# Plans beyond this many steps fall back to the interpreted step loop
# instead of whole-plan codegen (keeps generated code bounded).
_DRIVER_STEP_LIMIT = 20_000


class CompiledPlan:
    """An optimized, slot-addressed execution plan for one fetch-set."""

    def __init__(self, steps: List[_Step], template: List[Any],
                 feed_slots: List[Tuple[Node, int]], fetch_slots: List[int],
                 stats: CompileStats):
        self._steps = [(s.forward, s.attrs, s.arg_slots, s.out_slot)
                       for s in steps]
        self._template = template
        self._feed_slots = feed_slots
        self._fetch_slots = fetch_slots
        self.steps = steps
        self.stats = stats
        self.codegen_source: Optional[str] = None
        self._driver = (self._build_driver()
                        if len(steps) <= _DRIVER_STEP_LIMIT else None)

    def _emit_call(self, lines, namespace, step, j, args, forward, attrs,
                   tag=""):
        """Emit one (possibly donation-guarded) step-result assignment.

        A donated step checks, per run, that the dying input buffer
        matches the shape/dtype the result had last run (recorded
        adaptively in the ``_g{j}`` guard cell) before writing in place;
        any mismatch — first run, changed batch size, non-array result —
        falls back to the allocating forward and re-records.
        """
        namespace[f"_f{j}{tag}"] = forward
        namespace[f"_a{j}{tag}"] = attrs
        out = step.out_slot
        if step.donate_fn is None:
            lines.append(f"    slab[{out}] = _f{j}{tag}([{args}], _a{j}{tag})")
            return
        namespace[f"_o{j}"] = step.donate_fn
        namespace[f"_g{j}"] = [None]
        lines.append(f"    _d = slab[{step.donate_slot}]")
        lines.append(f"    _e = _g{j}[0]")
        lines.append(f"    if _e is not None and _d.__class__ is _nd "
                     f"and _d.shape == _e[0] and _d.dtype == _e[1]:")
        lines.append(f"        slab[{out}] = _o{j}([{args}], _a{j}{tag}, _d)")
        lines.append("    else:")
        lines.append(f"        _r = _f{j}{tag}([{args}], _a{j}{tag})")
        lines.append("        if _r.__class__ is _nd:")
        lines.append(f"            _g{j}[0] = (_r.shape, _r.dtype)")
        lines.append(f"        slab[{out}] = _r")

    def _build_driver(self):
        """Generate one flat function executing every step against the
        slab — no step loop, no per-step argument-list comprehension."""
        namespace: Dict[str, Any] = {"_nd": np.ndarray}
        lines = ["def _driver(slab):"]
        for j, step in enumerate(self.steps):
            if step.instructions is not None:
                # Inline the fused group: intermediates live in locals
                # (LOAD/STORE_FAST), only the root value touches the slab.
                # Temp names t0..tN are shared across groups on purpose —
                # reassignment drops the previous group's arrays so the
                # allocator can recycle their buffers (refs never cross
                # groups).
                last = len(step.instructions) - 1
                for k, (_op, forward, attrs, refs) in enumerate(
                        step.instructions):
                    args = ", ".join(
                        f"slab[{step.arg_slots[r]}]" if kind == "arg"
                        else f"t{r}"
                        for kind, r in refs)
                    if k == last:
                        self._emit_call(lines, namespace, step, j, args,
                                        forward, attrs, tag=f"_{k}")
                    else:
                        namespace[f"_f{j}_{k}"] = forward
                        namespace[f"_a{j}_{k}"] = attrs
                        lines.append(
                            f"    t{k} = _f{j}_{k}([{args}], _a{j}_{k})")
                continue
            args = ", ".join(f"slab[{i}]" for i in step.arg_slots)
            self._emit_call(lines, namespace, step, j, args, step.forward,
                            step.attrs)
        lines.append("    return slab")
        self.codegen_source = "\n".join(lines)
        exec(compile(self.codegen_source, "<compiled-plan>", "exec"),
             namespace)
        return namespace["_driver"]

    def feed_slab(self, feed_values: Dict[int, Any]) -> List[Any]:
        """A fresh value slab with every live placeholder fed."""
        slab = self._template.copy()
        for ph, slot in self._feed_slots:
            try:
                slab[slot] = feed_values[ph.id]
            except KeyError:
                raise RLGraphError(
                    f"Placeholder {ph.name} was not fed (shape {ph.shape})")
        return slab

    def run(self, feed_values: Dict[int, Any]) -> List[Any]:
        """Execute against a ``{placeholder-id: value}`` feed map."""
        return self.run_slab(self.feed_slab(feed_values))

    def run_slab(self, slab: List[Any]) -> List[Any]:
        if self._driver is not None:
            self._driver(slab)
        else:
            for forward, attrs, arg_slots, out_slot in self._steps:
                slab[out_slot] = forward([slab[i] for i in arg_slots], attrs)
        # Fetches that alias live variable storage (a bare read_var, or a
        # view of one) are snapshot-copied: later in-place mutation —
        # assigns, donated buffers — must never rewrite a value already
        # handed to the caller.
        out = []
        for s in self._fetch_slots:
            v = slab[s]
            if isinstance(v, np.ndarray) and variables.aliases_state(v):
                v = v.copy()
            out.append(v)
        return out


def compile_plan(plan: Sequence[Node], fetches: Sequence[Node],
                 optimize: str = "fused") -> CompiledPlan:
    """Lower a topologically ordered node plan into a :class:`CompiledPlan`.

    ``optimize`` selects the pass set: ``"basic"`` runs folding + CSE +
    dead-node elimination, ``"fused"`` additionally fuses elementwise
    chains, ``"native"`` compiles with the ``"fused"`` passes (the
    native lowering itself lives in :mod:`repro.backend.native`, which
    wraps the plan this function returns). All compiled levels finish
    with the memory-planning pass (buffer donation). (``"none"`` never
    reaches this function — the Session keeps the plain interpreter.)
    """
    if optimize not in ("basic", "fused", "native"):
        raise RLGraphError(f"Unknown optimize level {optimize!r}")
    stats = CompileStats()
    stats.nodes_total = len(plan)

    # -- pass 0: state epochs ------------------------------------------------
    # epoch[id] counts the mutating stateful nodes scheduled before a node;
    # state_dep[id] marks nodes whose value transitively depends on mutable
    # state. A state-dependent node may only be merged with (CSE) or
    # delayed to (fusion) a position in the *same* epoch — otherwise it
    # would observe variable buffers after an in-place write the
    # interpreter would have sequenced after it.
    epoch: Dict[int, int] = {}
    state_dep: Dict[int, bool] = {}
    current_epoch = 0
    for node in plan:
        if node.op not in OPS and node.op not in ("const", "placeholder"):
            raise RLGraphError(
                f"Unknown op {node.op!r} for node {node.name}")
        state_dep[node.id] = bool(node.stateful) or any(
            state_dep[i.id] for i in node.inputs)
        epoch[node.id] = current_epoch
        if node.stateful and OPS[node.op].mutates:
            current_epoch += 1

    # -- pass 1+2: constant folding and CSE (single topo walk) -------------
    alias: Dict[int, int] = {}      # node id -> canonical node id (CSE)
    const_values: Dict[int, Any] = {}  # node id -> compile-time value
    nodes_by_id: Dict[int, Node] = {n.id: n for n in plan}

    def resolve(node_id: int) -> int:
        while node_id in alias:
            node_id = alias[node_id]
        return node_id

    cse_table: Dict[Tuple, int] = {}
    fetch_ids = {f.id for f in fetches}
    for node in plan:
        if node.op == "const":
            const_values[node.id] = node.attrs["value"]
            continue
        if (node.op == "placeholder" or node.stateful or node.control_inputs):
            continue
        spec = OPS[node.op]
        input_ids = [resolve(i.id) for i in node.inputs]
        if node.op == "anchor":
            # Pass-through whose extra inputs only thread a data
            # dependency (e.g. a memory's size read anchored on the
            # batch-size placeholder): alias to the carried value and
            # let DNE drop the now-unreferenced anchor inputs. A
            # state-DEPENDENT payload keeps its (copying) anchor node —
            # aliasing it would hand fetch consumers the live variable
            # buffer, which later in-place writes mutate retroactively.
            target = input_ids[0]
            if target in const_values:
                const_values[node.id] = const_values[target]
                stats.nodes_cse += 1
                continue
            if not state_dep.get(target, False):
                alias[node.id] = target
                stats.nodes_cse += 1
                continue
        if (node.inputs and spec.foldable
                and all(i in const_values for i in input_ids)):
            try:
                value = spec.forward([const_values[i] for i in input_ids],
                                     node.attrs)
            except Exception:
                value = None
            if (value is not None
                    and getattr(np.asarray(value), "nbytes", 0)
                    <= _FOLD_SIZE_LIMIT):
                const_values[node.id] = value
                stats.nodes_folded += 1
                continue
        key = _cse_key(node, input_ids)
        if key is not None:
            canonical = cse_table.get(key)
            if (canonical is not None and canonical not in const_values
                    and (not state_dep[node.id]
                         or epoch[node.id] == epoch[canonical])):
                alias[node.id] = canonical
                stats.nodes_cse += 1
                continue
            cse_table[key] = node.id

    # -- pass 3: dead-node elimination --------------------------------------
    live: set = set()
    frontier = [resolve(f.id) for f in fetches]
    while frontier:
        node_id = frontier.pop()
        if node_id in live:
            continue
        live.add(node_id)
        if node_id in const_values:
            continue  # folded: its inputs are no longer needed at runtime
        node = nodes_by_id[node_id]
        frontier.extend(resolve(i.id) for i in node.inputs)
        frontier.extend(resolve(c.id) for c in node.control_inputs)
    live_plan = [n for n in plan
                 if n.id in live and n.id not in alias
                 and n.id not in const_values
                 and n.op not in ("const", "placeholder")]
    num_meta = sum(1 for n in plan if n.op in ("const", "placeholder"))
    stats.nodes_dead = (len(plan) - num_meta - stats.nodes_folded
                        - stats.nodes_cse - len(live_plan))

    # Placeholders that survive (must be fed at run time).
    live_placeholders = [n for n in plan
                         if n.op == "placeholder" and n.id in live]

    # -- pass 4: elementwise fusion -----------------------------------------
    # members[root-id] = topo-ordered node list executing as one kernel.
    # Only pure, single-consumer intermediates fuse: nothing outside the
    # group reads them, so delaying them to the root's schedule position
    # can never violate an ordering constraint.
    members: Dict[int, List[Node]] = {}
    if optimize in ("fused", "native"):
        consumers: Dict[int, int] = {}
        for node in live_plan:
            for inp in node.inputs:
                iid = resolve(inp.id)
                consumers[iid] = consumers.get(iid, 0) + 1
            for ctrl in node.control_inputs:
                # A control-dep target must keep its own schedule position.
                consumers[resolve(ctrl.id)] = 2
        for fid in fetch_ids:
            rid = resolve(fid)
            consumers[rid] = consumers.get(rid, 0) + 2

        for node in live_plan:
            if (not OPS[node.op].elementwise or node.stateful
                    or node.control_inputs):
                continue
            # Visit order is topological, so any absorbable producer
            # already roots a (possibly singleton) group in ``members``.
            # Distinct producer groups are mutually independent (their
            # internals are single-consumer), so concatenation is a valid
            # topological order for the merged group.
            group = [node]
            for inp in node.inputs:
                iid = resolve(inp.id)
                if consumers.get(iid, 0) != 1 or iid in const_values:
                    continue
                sub = members.get(iid)
                # Delaying a state-dependent member to this root's
                # schedule position must not cross a mutation barrier.
                if sub is not None and all(
                        not state_dep[m.id] or epoch[m.id] == epoch[node.id]
                        for m in sub):
                    group = sub + group
                    del members[iid]
            members[node.id] = group
        for root_id in [r for r, ms in members.items() if len(ms) < 2]:
            del members[root_id]
        for ms in members.values():
            stats.nodes_fused += len(ms)
            stats.fused_kernels += 1

    # -- pass 5: slot allocation + step emission ----------------------------
    fused_internal = {m.id for ms in members.values()
                      for m in ms[:-1]}  # all but the root
    schedule = [n for n in live_plan if n.id not in fused_internal]

    slot_of: Dict[int, int] = {}
    template: List[Any] = []

    def new_persistent_slot(value) -> int:
        template.append(value)
        return len(template) - 1

    # Constants (original + folded) that are still referenced load into
    # persistent template slots.
    needed_ids: set = set()
    for node in schedule:
        if node.id in members:
            for member in members[node.id]:
                needed_ids.update(resolve(i.id) for i in member.inputs)
        else:
            needed_ids.update(resolve(i.id) for i in node.inputs)
    needed_ids.update(resolve(f.id) for f in fetches)
    for node_id, value in const_values.items():
        if node_id in needed_ids and node_id not in alias:
            slot_of[node_id] = new_persistent_slot(value)

    feed_slots: List[Tuple[Node, int]] = []
    for ph in live_placeholders:
        slot = new_persistent_slot(None)
        slot_of[ph.id] = slot
        feed_slots.append((ph, slot))

    persistent = set(slot_of.values())
    resolved_fetch_ids = {resolve(f.id) for f in fetches}
    base_slots = len(template)

    # Liveness: last schedule index at which each produced value is read.
    last_use: Dict[int, int] = {}
    for index, node in enumerate(schedule):
        sources = (members[node.id] if node.id in members else [node])
        for member in sources:
            for inp in member.inputs:
                last_use[resolve(inp.id)] = index

    # -- pass 6 prep: memory planning (buffer donation) ---------------------
    # alias_safe[value-id]: every consumer of the value is guaranteed not
    # to let an alias of its buffer outlive the consuming step. A fused
    # group leaks an argument alias only through its root (member temps
    # die inside the kernel), so the group is safe iff its root
    # allocates fresh.
    alias_safe: Dict[int, bool] = {}
    for node in schedule:
        if node.id in members:
            group = members[node.id]
            internal = {m.id for m in group}
            ok = OPS[group[-1].op].fresh
            arg_ids = [resolve(i.id) for m in group for i in m.inputs]
            arg_ids = [i for i in arg_ids if i not in internal]
        else:
            ok = OPS[node.op].alias_safe
            arg_ids = [resolve(i.id) for i in node.inputs]
        for iid in arg_ids:
            alias_safe[iid] = alias_safe.get(iid, True) and ok

    fresh_value: Dict[int, bool] = {}
    free_slots: List[int] = []
    steps: List[_Step] = []
    total_outputs = 0
    for index, node in enumerate(schedule):
        node_id = node.id
        if node.id in members:
            group = members[node.id]
            internal = {m.id for m in group}
            ext_ids: List[int] = []
            instructions = []
            local_of: Dict[int, int] = {}
            for j, member in enumerate(group):
                refs = []
                for inp in member.inputs:
                    iid = resolve(inp.id)
                    if iid in internal and iid in local_of:
                        refs.append(("local", local_of[iid]))
                    else:
                        if iid not in ext_ids:
                            ext_ids.append(iid)
                        refs.append(("arg", ext_ids.index(iid)))
                spec = OPS[member.op]
                instructions.append((member.op, spec.forward, member.attrs,
                                     refs))
                local_of[member.id] = j
            op = "fused"
            forward = kernels.build_fused_kernel(instructions)
            arg_slots = tuple(slot_of[i] for i in ext_ids)
            attrs: Dict[str, Any] = {}
            name = f"fused[{'+'.join(m.op for m in group)}]"
            fused_instructions = instructions
            result = OPS[group[-1].op]
            candidate_ids = ext_ids
        else:
            spec = OPS[node.op]
            op = node.op
            forward = spec.forward
            arg_slots = tuple(slot_of[resolve(i.id)] for i in node.inputs)
            attrs = node.attrs
            name = node.name
            fused_instructions = None
            result = spec
            candidate_ids = [resolve(i.id) for i in node.inputs]
        # Memory planning: donate a dying, fresh, alias-free input buffer
        # as the in-place output (runtime shape/dtype guard in the
        # driver keeps it exact across changing batch sizes).
        donate_slot = donate_fn = None
        if result.out is not None:
            for vid in candidate_ids:
                slot = slot_of.get(vid)
                if (slot is None or slot in persistent
                        or not fresh_value.get(vid)
                        or not alias_safe.get(vid, False)
                        or last_use.get(vid) != index):
                    continue
                donate_slot, donate_fn = slot, result.out
                stats.buffers_donated += 1
                src = nodes_by_id.get(vid)
                if (src is not None and src.dtype is not None
                        and src.shape is not None
                        and all(d is not None for d in src.shape)):
                    stats.bytes_saved += int(
                        np.prod(src.shape, dtype=np.int64)
                        * np.dtype(src.dtype).itemsize)
                break
        fresh_value[node_id] = result.fresh
        total_outputs += 1
        if free_slots:
            out_slot = free_slots.pop()
        else:
            template.append(None)
            out_slot = len(template) - 1
        slot_of[node_id] = out_slot
        if node_id in resolved_fetch_ids:
            persistent.add(out_slot)  # fetched values must survive the run
        steps.append(_Step(op, forward, attrs, arg_slots, out_slot, name,
                           instructions=fused_instructions,
                           donate_slot=donate_slot, donate_fn=donate_fn))
        # Free slots whose value was read for the last time at this step.
        for value_id, last in list(last_use.items()):
            if last == index:
                slot = slot_of.get(value_id)
                if slot is not None and slot not in persistent:
                    free_slots.append(slot)
                del last_use[value_id]

    fetch_slots = [slot_of[resolve(f.id)] for f in fetches]
    stats.num_steps = len(steps)
    stats.slab_slots = len(template)
    # Without liveness-based reuse every step output would get its own
    # slot; the difference is how much slab the allocator saved.
    stats.slab_slots_saved = total_outputs - (len(template) - base_slots)
    return CompiledPlan(steps, template, feed_slots, fetch_slots, stats)
