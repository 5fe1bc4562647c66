"""The abstract agent API (paper Listing 2) and the learner step.

Agents own a root component, build it through the GraphBuilder for the
chosen backend, and serve the general-purpose API (get_actions / observe /
update / weights / import / export) by dispatching to the built graph's
op registry — one executor call per API request.

The learner step is declared once per agent and everything else derives
from the declaration. In-graph, a :class:`LearnerRoot` subclass writes
its loss composition as one plain ``compose_loss`` method; the in-graph
step, ``compute_gradients`` and ``apply_gradients`` endpoints are
generated from its signature. Host-side, an :class:`Agent` subclass
declares its update feed (``UPDATE_FEED``) and :meth:`Agent.update` and
:meth:`Agent.get_gradients` marshal every batch through it.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import XGRAPH, functional as F
from repro.components.optimizers import OPTIMIZERS
from repro.components.preprocessing import PreprocessorStack
from repro.core import (
    BuiltGraph,
    Component,
    GraphBuilder,
    graph_fn,
    rlgraph_api,
)
from repro.spaces import FloatBox, Space
from repro.spaces.space_utils import space_from_spec
from repro.utils.errors import RLGraphError
from repro.utils.registry import Registry
from repro.utils.seeding import SeedStream

AGENTS = Registry("agent")


def api_like(compose_loss: Callable, name: str, body: Callable):
    """An API method ``name`` that takes exactly the named inputs of the
    ``compose_loss`` declaration (parameter names select the input
    spaces) and returns ``body(self, *inputs)``."""
    def method(self, *inputs):
        return body(self, *inputs)
    method.__name__ = name
    method.__signature__ = inspect.signature(compose_loss)
    return rlgraph_api(method)


class LearnerRoot(Component):
    """Root-component base: the loss is declared once, the learner
    endpoints derive from it.

    A subclass writes :meth:`compose_loss` — a plain method composing
    its sub-components' API methods, from *named* inputs to
    ``(total, *extras)`` — names its in-graph step endpoint in
    :attr:`STEP_API` and binds its optimizer with :meth:`add_optimizer`.
    ``total`` is the scalar the optimizer minimizes; for an optimizer
    over several variable groups it is a tuple with one scalar per
    group, reported as their sum. Generated per subclass, with the
    signature of ``compose_loss``:

    * ``<STEP_API>(*inputs)`` — :meth:`loss_and_step`:
      ``(total after the optimizer step, *extras)``;
    * ``compute_gradients(*inputs)`` — :meth:`loss_and_grads`: the same
      composition, but the optimizer only extracts the flat gradient
      slab: ``(flat_grads, total, *extras)``.

    ``apply_gradients(flat_grads)`` completes the triplet.
    """

    STEP_API = "update_from_external"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "compose_loss" in vars(cls):
            setattr(cls, cls.STEP_API, api_like(
                cls.compose_loss, cls.STEP_API,
                lambda self, *inputs: self.loss_and_step(*inputs)))
            cls.compute_gradients = api_like(
                cls.compose_loss, "compute_gradients",
                LearnerRoot.loss_and_grads)

    def add_optimizer(self, spec, *groups) -> None:
        """Build ``self.optimizer`` over the trainables of ``groups`` —
        each a component or a tuple of them, one variable group each."""
        groups = [g if isinstance(g, tuple) else (g,) for g in groups]
        self.optimizer = OPTIMIZERS.from_spec(spec)
        self.optimizer.set_variables_provider(*[
            lambda comps=comps: [v for c in comps
                                 for v in c.variable_registry().values()]
            for comps in groups])
        self.optimizer.build_dependencies = [c for g in groups for c in g]

    def compose_loss(self, *inputs):
        raise NotImplementedError

    def loss_and_step(self, *inputs):
        total, *extras = self.compose_loss(*inputs)
        step_op = self.optimizer.step(total)
        return (self._graph_fn_total(total, step_op), *extras)

    def loss_and_grads(self, *inputs):
        total, *extras = self.compose_loss(*inputs)
        flat_grads = self.optimizer.compute_flat_grads(total)
        if isinstance(total, tuple):
            total = self._graph_fn_total(total)
        return (flat_grads, total, *extras)

    @rlgraph_api
    def apply_gradients(self, flat_grads):
        return self.optimizer.apply_flat_grads(flat_grads)

    @graph_fn(requires_variables=False)
    def _graph_fn_total(self, total, *deps):
        """The reported loss (per-group objectives summed), sequenced
        after ``deps`` — the optimizer step, a priority update — so
        that fetching it is what runs them."""
        if isinstance(total, tuple):
            total = functools.reduce(F.add, total)
        deps = [d for d in deps if d is not None]
        return F.with_deps(total, *deps) if deps else total


def _to_host(outputs) -> Tuple:
    """Learner fetches on the host: loss scalars become floats,
    per-row extras (TD errors) stay arrays."""
    return tuple(float(x) if np.ndim(x) == 0 else np.asarray(x)
                 for x in outputs)


class Agent:
    """Base agent: spaces + root component + executor plumbing.

    Subclasses implement :meth:`build_root` (component composition) and
    :meth:`input_spaces` (spaces for the root API), declare their
    algorithm config (:attr:`DEFAULT_CONFIG`) and update feed
    (:attr:`UPDATE_FEED`), then expose their algorithm through the
    generic API below.

    ``optimize`` selects the graph-compiler level for every session the
    agent builds: ``"none"`` (paper-faithful interpreter), ``"basic"``
    (fold/CSE/DNE + slot executor + buffer donation), ``"fused"``
    (default; adds elementwise fusion), or ``"native"`` (lowers the
    fused plan to compiled C segments — falls back to ``"fused"`` with
    a one-time warning when no C toolchain is available).
    """

    #: Algorithm config keys with their defaults. Constructor keywords
    #: other than these and the agent-level ones below are rejected.
    DEFAULT_CONFIG: Dict[str, Any] = {}
    #: The update feed, declared once: ``(batch key, dtype)`` in the
    #: order of the root's ``compose_loss`` inputs (dtype ``None``: as given).
    UPDATE_FEED: Sequence[Tuple[str, Any]] = ()
    #: Root endpoint syncing the target networks every
    #: ``config["sync_interval"]`` updates (``None``: no targets).
    SYNC_API: Optional[str] = None

    def __init__(self, state_space, action_space, backend: str = XGRAPH,
                 discount: float = 0.99, observe_flush_size: int = 64,
                 seed: Optional[int] = None, auto_build: bool = True,
                 device_map: Optional[Dict[str, str]] = None,
                 optimize: str = "fused", **config):
        unknown = set(config) - set(self.DEFAULT_CONFIG)
        if unknown:
            raise RLGraphError(
                f"Unknown {type(self).__name__.removesuffix('Agent')} "
                f"config keys: {sorted(unknown)}")
        self.config = {**self.DEFAULT_CONFIG, **config}
        self.state_space: Space = space_from_spec(state_space)
        self.action_space: Space = space_from_spec(action_space)
        self.backend = backend
        self.optimize = optimize
        self.discount = float(discount)
        self.observe_flush_size = int(observe_flush_size)
        self.seeds = SeedStream(seed)
        self.device_map = device_map

        self.root: Optional[Component] = None
        self.graph: Optional[BuiltGraph] = None
        self._flat_layout = None
        self.timesteps = 0
        self.updates = 0

        # Per-environment observation buffers (python-side, flushed in
        # batches through the observe/insert API — a deliberate batching
        # choice the paper's throughput analysis highlights).
        self._buffers: Dict[str, Dict[str, List]] = defaultdict(
            lambda: {"states": [], "actions": [], "rewards": [],
                     "terminals": [], "next_states": []})
        self._buffered = 0

        if auto_build:
            self.build()

    # -- to be implemented by concrete agents --------------------------------
    def build_root(self) -> Component:
        raise NotImplementedError

    def input_spaces(self) -> Dict[str, Any]:
        raise NotImplementedError

    def preprocessed_space(self) -> Space:
        stack = PreprocessorStack(self.config["preprocessing_spec"])
        return stack.transformed_space(self.state_space)

    # -- build ------------------------------------------------------------------
    def build(self, options: Optional[Dict] = None) -> "Agent":
        """Build the component graph for the configured backend."""
        if self.graph is not None:
            raise RLGraphError("Agent already built")
        self.root = self.build_root()
        builder = GraphBuilder(backend=self.backend,
                               seed=self.seeds.spawn("graph"),
                               optimize=self.optimize)
        spaces = dict(self.input_spaces())
        if self.optimize != "none":
            # The apply_gradients endpoint needs the fused flat-slab
            # construction; omitting the space skips its assembly in
            # the per-variable ablation build.
            spaces["flat_grads"] = FloatBox(add_batch_rank=True)
        self.graph = builder.build(self.root, spaces,
                                   device_map=self.device_map)
        return self

    @property
    def build_stats(self):
        return self.graph.stats if self.graph else None

    def call_api(self, name: str, *args):
        if self.graph is None:
            raise RLGraphError("Agent not built; call build() first")
        return self.graph.execute(name, *args)

    # -- generic API (Listing 2) ---------------------------------------------------
    def get_actions(self, states, explore: bool = True,
                    preprocess: bool = True):
        raise NotImplementedError

    def _batch_states(self, states):
        """Normalize an act input to a batch: returns (batched, single).

        A single unbatched observation (serving's shape) is auto-expanded
        with a leading batch axis; callers squeeze the result when
        ``single`` is True.  Anything that is neither one observation nor
        a batch of them fails *here* with the shapes spelled out, instead
        of surfacing as a broadcasting error deep inside the graph.
        """
        states = np.asarray(states)
        expected = self.state_space.shape
        if states.shape == expected:
            return states[None], True
        if states.shape[1:] == expected and states.ndim == len(expected) + 1:
            return states, False
        raise RLGraphError(
            f"{type(self).__name__}.get_actions: observation of shape "
            f"{states.shape} matches neither one observation of the state "
            f"space (shape {expected}) nor a batch of them "
            f"(shape (N,{', '.join(str(d) for d in expected)}))")

    def serving_act_fn(self, explore: bool = False):
        """A batched act callable for the serving hot path.

        Returns ``fn(states) -> actions`` over an already-batched state
        array.  With ``explore=False`` (the serving default) the greedy
        endpoint executes through the cached compiled plumbing of
        :meth:`BuiltGraph.make_callable` — no per-call feed/fetch
        bookkeeping — so micro-batched inference amortizes to one
        session dispatch per batch.  Greedy serving is eval traffic,
        not experience: it does NOT advance :attr:`timesteps`, so
        exploration schedules and exported checkpoint counters only
        reflect training steps.  The explore variant keeps the training
        semantics (schedules advance per acted row).
        """
        if self.graph is None:
            raise RLGraphError("Agent not built; call build() first")
        if explore:
            def act(states):
                out = self.get_actions(states, explore=True)
                return np.asarray(out[0] if isinstance(out, tuple) else out)
            return act
        fn = self.graph.make_callable("get_greedy_actions")

        def act(states):
            out = fn(states, np.asarray(self.timesteps))
            actions = out[0] if isinstance(out, tuple) else out
            return np.asarray(actions)
        return act

    def act(self, vector_env, num_steps: int, explore: bool = True) -> Dict:
        """Batched acting loop over a vector-env engine (no learning).

        One ``get_actions`` call per step for the whole vector; stepping
        is dispatched through the engine's ``step_async``/``step_wait``
        split so on the threaded/async engines the environments run
        concurrently with the agent's Python-side dispatch.  Episode
        accounting accumulates on ``vector_env``.  Returns throughput
        stats (the acting-cost metric of paper Fig. 7a).
        """
        states = vector_env.reset_all()
        t0 = time.perf_counter()
        for _ in range(int(num_steps)):
            out = self.get_actions(states, explore=explore)
            actions = out[0] if isinstance(out, tuple) else out
            vector_env.step_async(actions)
            states, _, _ = vector_env.step_wait()
        wall = time.perf_counter() - t0
        frames = int(num_steps) * vector_env.num_envs
        return {
            "env_frames": frames,
            "wall_time": wall,
            "env_frames_per_second": frames / wall if wall else 0.0,
            "mean_return": vector_env.mean_finished_return(),
        }

    def observe(self, state, action, reward, terminal, next_state,
                env_id: str = "env0") -> None:
        """Buffer one transition; flush to the memory in batches."""
        buf = self._buffers[env_id]
        buf["states"].append(state)
        buf["actions"].append(action)
        buf["rewards"].append(reward)
        buf["terminals"].append(terminal)
        buf["next_states"].append(next_state)
        self._buffered += 1
        if self._buffered >= self.observe_flush_size:
            self.flush_observations()

    def observe_batch(self, states, actions, rewards, terminals,
                      next_states) -> None:
        """Insert a ready-made batch directly (vectorized workers)."""
        self._insert_records({
            "states": np.asarray(states),
            "actions": np.asarray(actions),
            "rewards": np.asarray(rewards, dtype=np.float32),
            "terminals": np.asarray(terminals, dtype=bool),
            "next_states": np.asarray(next_states),
        })

    def flush_observations(self) -> None:
        if self._buffered == 0:
            return
        merged = {k: [] for k in ["states", "actions", "rewards", "terminals",
                                  "next_states"]}
        for buf in self._buffers.values():
            for key in merged:
                merged[key].extend(buf[key])
            for key in buf:
                buf[key].clear()
        self._buffered = 0
        self._insert_records({
            "states": np.asarray(merged["states"]),
            "actions": np.asarray(merged["actions"]),
            "rewards": np.asarray(merged["rewards"], dtype=np.float32),
            "terminals": np.asarray(merged["terminals"], dtype=bool),
            "next_states": np.asarray(merged["next_states"]),
        })

    def _insert_records(self, records: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} has no memory to observe into")

    # -- the learner step (derived from UPDATE_FEED) -----------------------------
    def update_feed(self, batch: Dict) -> List[np.ndarray]:
        """Marshal an update batch into the positional feed of the
        root's ``compose_loss`` inputs — the one place batch keys, order and
        dtypes are written; every learner endpoint goes through it."""
        batch = self._prepare_batch(batch)
        return [np.asarray(batch[key], dtype)
                for key, dtype in self.UPDATE_FEED]

    def _prepare_batch(self, batch: Dict) -> Dict:
        """Fill in the feed keys a caller may leave out (defaults,
        noise, derived targets)."""
        return batch

    def _memory_feed(self) -> Sequence[np.ndarray]:
        """Feed of the root's ``update_from_memory`` endpoint."""
        raise RLGraphError(
            f"{type(self).__name__} has no replay memory; pass a batch "
            f"to update()")

    def update(self, batch: Optional[Dict] = None):
        """One training step from ``batch`` (the keys of
        :attr:`UPDATE_FEED`), or with ``batch=None`` from the agent's
        own replay memory. Returns the root's ``(total, *extras)``:
        loss scalars as floats, per-row TD errors as an array."""
        if batch is None:
            out = self.call_api("update_from_memory", *self._memory_feed())
        else:
            out = self.call_api(self.root.STEP_API, *self.update_feed(batch))
        self._count_update()
        return _to_host(out)

    def get_gradients(self, batch: Dict):
        """Run only the gradient half of the fused step on ``batch``:
        ``(flat_grads, stats)``, no variable touched.

        ``flat_grads`` is ONE contiguous float32 vector in the
        optimizer's ParamSlab order (sorted by name), ready for a
        shared-memory all-reduce; feeding the (averaged) vector back
        through :meth:`apply_gradients` reuses the exact fused lowering
        of the in-graph step, so extract-then-apply is
        bitwise-comparable to a plain :meth:`update`. ``stats`` carries
        the loss scalars (``stats["losses"]``, in the order
        :meth:`update` returns them) and, for TD-based agents, the
        per-row TD errors (``stats["td"]``).
        """
        flat_grads, *out = self.call_api("compute_gradients",
                                         *self.update_feed(batch))
        out = _to_host(out)
        stats: Dict[str, Any] = {
            "losses": tuple(x for x in out if isinstance(x, float))}
        for x in out:
            if not isinstance(x, float):
                stats["td"] = x
        return np.asarray(flat_grads), stats

    def apply_gradients(self, flat_grads: np.ndarray) -> bool:
        """Apply a flat gradient vector through the fused optimizer step.

        Advances :attr:`updates` exactly like :meth:`update`, target
        sync cadence included. Returns True when the apply crossed a
        target-sync boundary, so group drivers can mirror the sync on
        replicas.
        """
        self.call_api("apply_gradients",
                      np.ascontiguousarray(flat_grads, dtype=np.float32))
        return self._count_update()

    def _count_update(self) -> bool:
        """Advance the update counter; sync the targets on its cadence."""
        self.updates += 1
        if self.SYNC_API and self.config["sync_interval"] and \
                self.updates % self.config["sync_interval"] == 0:
            self.call_api(self.SYNC_API)
            return True
        return False

    def flat_grad_size(self) -> int:
        """Element count of the flat gradient vector (the optimizer's
        ParamSlab size — policy trainables only, smaller than the
        :meth:`flat_layout` weight vector whenever target networks
        exist)."""
        opt = getattr(self.root, "optimizer", None)
        if opt is None:
            raise RLGraphError(
                f"{type(self).__name__} has no optimizer component")
        return opt.flat_grad_size()

    def shard_spec(self):
        """How learner groups shard this agent's update batches:
        ``(default_axis, per_key_axis_overrides)`` as consumed by
        :func:`repro.components.common.batch_splitter.split_batch`.
        Row-major agents shard every key on axis 0; time-major agents
        (IMPALA) override this."""
        return 0, {}

    # -- weights -----------------------------------------------------------------
    def flat_layout(self):
        """The cached flat packing of this agent's trainable variables —
        identical across same-architecture agents, so a flat vector from
        a learner scatters correctly into an actor's variables."""
        if self._flat_layout is None:
            if self.root is None:
                raise RLGraphError("Agent not built; call build() first")
            self._flat_layout = self.root.flat_layout()
        return self._flat_layout

    def get_weights(self, flat: bool = False):
        """All trainable weights: a per-variable dict (default; used by
        checkpoints), or with ``flat=True`` ONE float32 vector in the
        deterministic :meth:`flat_layout` order — the zero-copy sync
        path executors ship as a single shared-memory block."""
        if flat:
            return self.flat_layout().gather()
        return self.root.get_weights()

    def set_weights(self, weights) -> None:
        """Accepts a per-variable dict or a flat vector from
        :meth:`get_weights(flat=True) <get_weights>`."""
        if isinstance(weights, np.ndarray) and weights.ndim == 1:
            self.flat_layout().scatter(weights)
            return
        self.root.set_weights(weights)

    # -- full state (checkpoint/resume) --------------------------------------
    _RANDOM_OPS = ("random_uniform", "random_normal")

    def full_state(self) -> Dict[str, Any]:
        """Capture the agent's COMPLETE mutable state for checkpointing.

        Unlike :meth:`export_model` (trainable weights + counters — an
        inference artifact), this snapshot restores mid-run training
        exactly: every variable including optimizer slot slabs, target
        networks, in-graph replay buffers and their index/size cursors
        (``trainable_only=False`` reaches all of them), plus the
        un-flushed observe buffers and the backend RNG states — the
        per-node generators of the symbolic graph's random ops and the
        eager seed counter.  ``restore_full_state`` of this payload into
        a same-config agent continues bitwise-identically to a run that
        was never interrupted.
        """
        if self.graph is None:
            raise RLGraphError("Agent not built; call build() first")
        variables = {
            name: np.array(var.value, copy=True)
            for name, var in self.root.variable_registry(
                trainable_only=False).items()}
        buffers = {env_id: {key: list(vals) for key, vals in buf.items()}
                   for env_id, buf in self._buffers.items()}
        return {
            "variables": variables,
            "timesteps": self.timesteps,
            "updates": self.updates,
            "buffers": buffers,
            "buffered": self._buffered,
            "rng": self._rng_state(),
        }

    def restore_full_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`full_state` snapshot (same-config agent).

        Variable values are written in place, so the flat-layout slab
        aliasing (PR 4) survives the restore.
        """
        if self.graph is None:
            raise RLGraphError("Agent not built; call build() first")
        registry = self.root.variable_registry(trainable_only=False)
        missing = set(state["variables"]) - set(registry)
        if missing:
            raise RLGraphError(
                f"Checkpoint variables not in this agent (config "
                f"mismatch?): {sorted(missing)[:5]}")
        for name, value in state["variables"].items():
            registry[name].set(value)
        self.timesteps = int(state["timesteps"])
        self.updates = int(state["updates"])
        self._buffers.clear()
        for env_id, buf in state["buffers"].items():
            target = self._buffers[env_id]
            for key, vals in buf.items():
                target[key] = list(vals)
        self._buffered = int(state["buffered"])
        self._restore_rng(state["rng"])

    def _rng_state(self) -> Dict[str, Any]:
        from repro.backend import functional
        state: Dict[str, Any] = {
            "eager_seed_counter": functional._eager_seed_counter[0]}
        graph = self.graph.graph
        if graph is not None:
            node_states = {}
            for node in graph.nodes:
                if node.op in self._RANDOM_OPS:
                    rng = node.attrs.get("_rng")
                    if rng is not None:
                        node_states[node.id] = rng.bit_generator.state
            state["graph_rng"] = node_states
        return state

    def _restore_rng(self, state: Dict[str, Any]) -> None:
        from repro.backend import functional
        functional._eager_seed_counter[0] = int(state["eager_seed_counter"])
        graph = self.graph.graph
        if graph is None:
            return
        node_states = state.get("graph_rng", {})
        for node in graph.nodes:
            if node.op in self._RANDOM_OPS:
                saved = node_states.get(node.id)
                if saved is None:
                    # Never drawn at capture time: drop any generator so
                    # it is lazily re-seeded exactly as on a fresh run.
                    node.attrs.pop("_rng", None)
                else:
                    rng = np.random.default_rng()
                    rng.bit_generator.state = saved
                    # Compiled session plans hold node.attrs by
                    # reference for stateful ops, so writing here
                    # reaches live plans without a rebuild.
                    node.attrs["_rng"] = rng

    def export_model(self, path: str) -> None:
        """Serialize weights (+ counters) to ``path``."""
        payload = {"weights": self.get_weights(),
                   "timesteps": self.timesteps, "updates": self.updates}
        with open(path, "wb") as f:
            pickle.dump(payload, f)

    def import_model(self, path: str) -> None:
        with open(path, "rb") as f:
            payload = pickle.load(f)
        self.set_weights(payload["weights"])
        self.timesteps = payload.get("timesteps", 0)
        self.updates = payload.get("updates", 0)

    def __repr__(self):
        return (f"{type(self).__name__}(backend={self.backend}, "
                f"t={self.timesteps}, updates={self.updates})")
