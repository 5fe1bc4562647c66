"""Session: executes symbolic-graph fetches with placeholder feeds.

The Session is the runtime half of the static-graph backend. It computes
and caches a topological *execution plan* per fetch-set (the paper's graph
executor batches "all relevant operations into a single session call", §1)
and, by default, lowers that plan through the graph compiler
(:mod:`repro.backend.compiler`): constant folding, CSE, dead-node
elimination, elementwise fusion, and a flat slot-based executor replace
the per-node dict walk. ``optimize="none"`` keeps the plain interpreter —
the paper-faithful ablation baseline. Control dependencies order
side-effecting nodes (assigns, scatters) relative to reads at every level.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.compiler import (OPTIMIZE_LEVELS, CompiledPlan,
                                    CompileStats, compile_plan)
from repro.backend.graph import Graph, Node, Placeholder
from repro.backend.ops import OPS
from repro.utils.errors import RLGraphError


class SessionStats:
    """Lightweight profiling counters (run calls, wall time, plan cache,
    compiler pass results)."""

    def __init__(self):
        self.run_calls = 0
        self.total_time = 0.0
        self.plan_builds = 0
        self.nodes_executed = 0
        # ``compile_time`` covers the graph-compiler passes only; the
        # native backend's C emit+compile wall time (and its disk-cache
        # hits) is tracked separately so the breakdown stays honest.
        self.compile_time = 0.0
        self.plans_compiled = 0
        self.native_compile_time = 0.0
        self.native_cache_hits = 0
        self.plans_native = 0
        # Every CompileStats counter, summed over all compiled plans (the
        # native_* ones at each plan's first run: the probe needs feeds).
        for name in CompileStats.__slots__:
            setattr(self, name, 0)

    def add_plan(self, compile_stats: CompileStats) -> None:
        for name in CompileStats.__slots__:
            setattr(self, name,
                    getattr(self, name) + getattr(compile_stats, name))

    def as_dict(self):
        return dict(vars(self))

    def reset(self):
        self.__init__()


class Session:
    """Evaluates fetches against a :class:`~repro.backend.graph.Graph`.

    Args:
        graph: the graph to execute.
        cache_plans: keep the (compiled) plan per fetch-set. Disabling
            this is the E-ablation showing per-call planning cost.
        optimize: ``"none"`` replays the topological plan node by node
            (the seed behavior and the paper-faithful executor ablation),
            ``"basic"`` adds constant folding + CSE + dead-node
            elimination with the slot executor plus buffer donation,
            ``"fused"`` (default) additionally fuses elementwise chains
            into single kernels, ``"native"`` lowers the fused plan to C
            segments (:mod:`repro.backend.native`) executed with zero
            Python dispatch — degrading gracefully to ``"fused"`` with a
            one-time warning when no C toolchain is present.
    """

    def __init__(self, graph: Graph, cache_plans: bool = True,
                 optimize: str = "fused"):
        if optimize not in OPTIMIZE_LEVELS:
            raise RLGraphError(
                f"Unknown optimize level {optimize!r}; use one of "
                f"{OPTIMIZE_LEVELS}")
        self.graph = graph
        self.cache_plans = cache_plans
        self.optimize = optimize
        self._plans: Dict[Tuple[int, ...], List[Node]] = {}
        self._compiled: Dict[Tuple[int, ...], CompiledPlan] = {}
        self.stats = SessionStats()

    # -- plan construction --------------------------------------------------
    def _build_plan(self, fetches: Sequence[Node]) -> List[Node]:
        """Topological order over data + control dependencies."""
        order: List[Node] = []
        state: Dict[int, int] = {}  # 0=visiting, 1=done

        def visit(node: Node):
            st = state.get(node.id)
            if st == 1:
                return
            if st == 0:
                raise RLGraphError(f"Cycle detected at node {node.name}")
            state[node.id] = 0
            for dep in node.inputs:
                visit(dep)
            for dep in node.control_inputs:
                visit(dep)
            state[node.id] = 1
            order.append(node)

        for f in fetches:
            visit(f)
        self.stats.plan_builds += 1
        return order

    def _get_plan(self, fetches: Sequence[Node]) -> List[Node]:
        if not self.cache_plans:
            return self._build_plan(fetches)
        key = tuple(f.id for f in fetches)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(fetches)
            self._plans[key] = plan
        return plan

    def _get_compiled(self, fetches: Sequence[Node]) -> CompiledPlan:
        key = tuple(f.id for f in fetches)
        compiled = self._compiled.get(key) if self.cache_plans else None
        if compiled is None:
            plan = self._get_plan(fetches)
            t0 = time.perf_counter()
            compiled = compile_plan(plan, fetches, optimize=self.optimize)
            self.stats.compile_time += time.perf_counter() - t0
            self.stats.plans_compiled += 1
            self.stats.add_plan(compiled.stats)
            if self.optimize == "native":
                from repro.backend import native
                if native.toolchain_available():
                    compiled = native.NativePlan(compiled,
                                                 session_stats=self.stats)
                else:
                    native.warn_degraded("toolchain")
            if self.cache_plans:
                self._compiled[key] = compiled
        return compiled

    # -- execution ------------------------------------------------------------
    def run(self, fetches, feed_dict: Optional[Dict[Node, Any]] = None):
        """Evaluate ``fetches`` (a Node or a list/tuple of Nodes).

        Returns a single value for a single fetch, else a list of values.
        """
        t0 = time.perf_counter()
        single = isinstance(fetches, Node)
        fetch_list: List[Node] = [fetches] if single else list(fetches)
        for f in fetch_list:
            if not isinstance(f, Node):
                raise RLGraphError(f"Fetch {f!r} is not a graph Node")

        values: Dict[int, Any] = {}
        if feed_dict:
            for ph, val in feed_dict.items():
                if not isinstance(ph, Placeholder):
                    raise RLGraphError(f"feed_dict key {ph!r} is not a Placeholder")
                arr = np.asarray(val)
                if ph.dtype is not None and arr.dtype != ph.dtype:
                    arr = arr.astype(ph.dtype)
                values[ph.id] = arr

        if self.optimize == "none":
            plan = self._get_plan(fetch_list)
            for node in plan:
                if node.id in values:
                    continue
                self._execute_node(node, values)
            results = [values[f.id] for f in fetch_list]
            self.stats.nodes_executed += len(plan)
        else:
            compiled = self._get_compiled(fetch_list)
            results = compiled.run(values)
            self.stats.nodes_executed += compiled.stats.num_steps

        self.stats.run_calls += 1
        self.stats.total_time += time.perf_counter() - t0
        return results[0] if single else results

    def _execute_node(self, node: Node, values: Dict[int, Any]):
        op = node.op
        if op == "placeholder":
            raise RLGraphError(
                f"Placeholder {node.name} was not fed (shape {node.shape})")
        if op == "const":
            values[node.id] = node.attrs["value"]
            return
        spec = OPS.get(op)
        if spec is None:
            raise RLGraphError(f"Unknown op {op!r} for node {node.name}")
        args = [values[i.id] for i in node.inputs]
        values[node.id] = spec.forward(args, node.attrs)

    # -- convenience -------------------------------------------------------------
    def warm_up(self, fetches, feed_dict=None):
        """Build (and cache) the plan — and its compiled form — without
        counting it as a run."""
        fetch_list = [fetches] if isinstance(fetches, Node) else list(fetches)
        self._get_plan(fetch_list)
        if self.optimize != "none":
            self._get_compiled(fetch_list)

    def plan_size(self, fetches) -> int:
        plan = self._get_plan([fetches] if isinstance(fetches, Node)
                              else list(fetches))
        return len(plan)

    def compiled_plan(self, fetches) -> Optional[CompiledPlan]:
        """The compiled plan for a fetch-set (None at ``optimize='none'``)."""
        if self.optimize == "none":
            return None
        return self._get_compiled([fetches] if isinstance(fetches, Node)
                                  else list(fetches))
