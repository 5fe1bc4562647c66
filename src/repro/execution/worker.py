"""Vectorized sample-collection worker (the paper's RayWorker, §5.1).

One worker drives a vector of environments with *batched* inference (one
executor call per step for the whole vector) and — critically for the
Fig. 6/7a results — *batched* post-processing: n-step adjustment and
worker-side prioritization run once per collected batch as vectorized
NumPy, instead of the per-sample/multiple-session-call pattern the
RLlib-like baseline uses. ``batched_postprocessing=False`` switches this
worker to the incremental mode for the ablation.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.environments.vector_env import VectorEnv, vector_env_from_spec
from repro.utils.errors import RLGraphError


class WorkerStats:
    """Accumulated throughput / episode statistics."""

    def __init__(self):
        self.env_frames = 0
        self.sample_steps = 0
        self.wall_time = 0.0
        self.episode_returns: List[float] = []

    @property
    def frames_per_second(self) -> float:
        return self.env_frames / self.wall_time if self.wall_time else 0.0

    def mean_return(self, last_n: int = 100) -> Optional[float]:
        if not self.episode_returns:
            return None
        return float(np.mean(self.episode_returns[-last_n:]))


class NStepAccumulator:
    """Streaming n-step transition builder for one environment slot.

    Emits (s_t, a_t, sum_k gamma^k r_{t+k}, terminal_within_window,
    s_{t+n}) once the window fills; flushes shortened windows on terminal.
    """

    def __init__(self, n_step: int, discount: float):
        if n_step < 1:
            raise RLGraphError("n_step must be >= 1")
        self.n_step = int(n_step)
        self.discount = float(discount)
        self._window: deque = deque()

    def push(self, state, action, reward, terminal, next_state) -> List[tuple]:
        """Add one raw transition; returns ready n-step samples."""
        self._window.append((state, action, float(reward), bool(terminal),
                             next_state))
        out = []
        if terminal:
            while self._window:
                out.append(self._fold())
        elif len(self._window) == self.n_step:
            out.append(self._fold())
        return out

    def _fold(self) -> tuple:
        state, action = self._window[0][0], self._window[0][1]
        reward = 0.0
        terminal = False
        next_state = self._window[-1][4]
        for k, (_, _, r, t, ns) in enumerate(self._window):
            reward += (self.discount ** k) * r
            if t:
                terminal = True
                next_state = ns
                break
        self._window.popleft()
        return state, action, reward, terminal, next_state


def batched_n_step(states, actions, rewards, terminals, next_states,
                   n_step: int, discount: float):
    """Vectorized n-step over a (T, num_envs, ...) rollout block.

    Samples whose window crosses the block end are truncated to the
    available horizon (bootstrapping handled by the target network).
    Returns flat arrays over (T * num_envs).
    """
    t_steps, num_envs = rewards.shape
    n_rewards = rewards.astype(np.float32).copy()
    n_terminals = terminals.copy()
    n_next = np.array(next_states, copy=True)
    # Extend each window one offset at a time, vectorized over (t, env):
    # at iteration k, n_terminals marks windows that already hit a
    # terminal within offsets [0, k-1] and must not extend further.
    for k in range(1, n_step):
        can_extend = ~n_terminals
        can_extend[t_steps - k:] = False  # window would cross block end
        idx_t, idx_e = np.nonzero(can_extend)
        if idx_t.size == 0:
            break
        n_rewards[idx_t, idx_e] += (discount ** k) * rewards[idx_t + k, idx_e]
        n_next[idx_t, idx_e] = next_states[idx_t + k, idx_e]
        n_terminals[idx_t, idx_e] |= terminals[idx_t + k, idx_e]
    flat = lambda arr: arr.reshape((-1,) + arr.shape[2:])
    return (flat(states), flat(actions), flat(n_rewards), flat(n_terminals),
            flat(n_next))


def _spec_engine_name(spec) -> Optional[str]:
    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict):
        return spec.get("type")
    return None


def build_vector_env(env_factory: Callable, num_envs: int, base_seed: int,
                     vector_env_spec=None, parallel_spec=None) -> VectorEnv:
    """Build an actor's env vector honoring both spec layers.

    ``env_factory(seed)`` constructs one environment.  ``parallel_spec``
    (see :mod:`repro.execution.parallel`) supplies the engine *default*
    via ``env_backend`` — an explicit ``vector_env_spec`` always wins.
    For process engines (``"subproc"``) the factory calls are deferred
    as ``env_fns`` so environments are constructed **inside** the worker
    processes; thread engines build them eagerly on this thread, which
    keeps per-engine seeding byte-identical.
    """
    from repro.execution.parallel import resolve_parallel_spec
    spec = resolve_parallel_spec(parallel_spec).vector_env_spec_default(
        vector_env_spec)
    seeds = [base_seed + i for i in range(num_envs)]
    if _spec_engine_name(spec) == "subproc":
        env_fns = [functools.partial(env_factory, seed) for seed in seeds]
        return vector_env_from_spec(spec, env_fns=env_fns)
    return vector_env_from_spec(spec, envs=[env_factory(s) for s in seeds])


def snapshot_fn(vector_env):
    """Identity unless ``vector_env`` hands out live zero-copy buffers.

    With ``copy_output=False`` engines, identity-preprocessing agents
    return the engine's shared states buffer as "preprocessed"; any
    consumer that retains those arrays across steps must snapshot them
    or the next ``step_async`` rewrites the whole rollout in place.
    """
    if getattr(vector_env, "copy_output", True):
        return lambda arr: arr
    return lambda arr: np.array(arr, copy=True)


class SingleThreadedWorker:
    """Acts on a vector of environments and post-processes samples.

    Args:
        agent: a built agent with ``get_actions`` returning
            (actions, preprocessed [, ...]) — DQN-family signature.
        vector_env: any :class:`~repro.environments.vector_env.VectorEnv`
            engine.  The batched collection path uses the engine's
            ``step_async``/``step_wait`` split, so rollout bookkeeping
            overlaps environment stepping on the threaded/async engines.
        n_step: n-step reward adjustment (Ape-X uses 3).
        worker_side_prioritization: compute initial priorities (|td|)
            before shipping samples (Ape-X heuristic).
        batched_postprocessing: vectorized batch-level post-processing
            (RLgraph mode) vs per-step per-env incremental mode
            (the RLlib-like pattern; ablation switch).
    """

    def __init__(self, agent, vector_env: VectorEnv,
                 n_step: int = 1, discount: float = 0.99,
                 worker_side_prioritization: bool = False,
                 batched_postprocessing: bool = True):
        self.agent = agent
        self.vector_env = vector_env
        self.n_step = int(n_step)
        self.discount = float(discount)
        self.worker_side_prioritization = worker_side_prioritization
        self.batched_postprocessing = batched_postprocessing
        self.stats = WorkerStats()
        self._snap = snapshot_fn(vector_env)
        self._states = vector_env.reset_all()
        self._accumulators = [NStepAccumulator(n_step, discount)
                              for _ in range(vector_env.num_envs)]

    # ------------------------------------------------------------------
    def collect_samples(self, num_samples: int) -> Dict[str, np.ndarray]:
        """Collect ~num_samples post-processed transitions.

        Returns a batch dict (states/actions/rewards/terminals/
        next_states [+ priorities]).
        """
        t0 = time.perf_counter()
        num_envs = self.vector_env.num_envs
        steps = max(num_samples // num_envs, 1)
        if self.batched_postprocessing:
            batch = self._collect_batched(steps)
        else:
            batch = self._collect_incremental(steps)
        self.stats.wall_time += time.perf_counter() - t0
        self.stats.env_frames += steps * num_envs
        self.stats.sample_steps += len(batch["rewards"])
        self.stats.episode_returns = \
            self.vector_env.finished_episode_returns
        return batch

    # -- RLgraph mode: batched inference + batched post-processing ---------
    def _collect_batched(self, steps: int) -> Dict[str, np.ndarray]:
        num_envs = self.vector_env.num_envs
        states_buf, pre_buf, action_buf = [], [], []
        reward_buf, terminal_buf, next_pre_buf = [], [], []
        preprocessed = None
        for _ in range(steps):
            out = self.agent.get_actions(self._states)
            # Snapshot before dispatch: in zero-copy mode the buffer that
            # "preprocessed" aliases is rewritten as soon as envs step.
            actions, preprocessed = out[0], self._snap(out[-1])
            # Dispatch stepping, then do rollout bookkeeping while the
            # envs run (a no-op overlap on the sequential engine).
            self.vector_env.step_async(actions)
            pre_buf.append(preprocessed)
            action_buf.append(actions)
            next_states, rewards, terminals = self.vector_env.step_wait()
            reward_buf.append(rewards)
            terminal_buf.append(terminals)
            self._states = next_states
        # Next-state preprocessing: one extra batched call on the final
        # frontier; intermediate next-states are the following row.
        out = self.agent.get_actions(self._states)
        frontier_pre = out[-1]
        pre_arr = np.asarray(pre_buf)                      # (T, E, ...)
        next_pre_arr = np.concatenate([pre_arr[1:], frontier_pre[None]], axis=0)
        actions_arr = np.asarray(action_buf)
        rewards_arr = np.asarray(reward_buf, dtype=np.float32)
        terminals_arr = np.asarray(terminal_buf, dtype=bool)

        s, a, r, t, ns = batched_n_step(pre_arr, actions_arr, rewards_arr,
                                        terminals_arr, next_pre_arr,
                                        self.n_step, self.discount)
        batch = {"states": s, "actions": a, "rewards": r, "terminals": t,
                 "next_states": ns}
        if self.worker_side_prioritization:
            td = self._td_errors(batch)
            batch["priorities"] = np.abs(td) + 1e-6
        return batch

    # -- RLlib-like mode: per-step, per-env incremental post-processing ------
    def _collect_incremental(self, steps: int) -> Dict[str, np.ndarray]:
        num_envs = self.vector_env.num_envs
        samples = {k: [] for k in ["states", "actions", "rewards",
                                   "terminals", "next_states"]}
        priorities = []
        for _ in range(steps):
            out = self.agent.get_actions(self._states)
            actions, preprocessed = out[0], out[-1]
            preprocessed = self._snap(preprocessed)
            next_states, rewards, terminals = self.vector_env.step(actions)
            out_next = self.agent.get_actions(next_states)
            next_pre = self._snap(out_next[-1])
            # Per-env accumulation (python-loop accounting).
            for e in range(num_envs):
                ready = self._accumulators[e].push(
                    preprocessed[e], actions[e], rewards[e], terminals[e],
                    next_pre[e])
                for (s, a, r, t, ns) in ready:
                    samples["states"].append(s)
                    samples["actions"].append(a)
                    samples["rewards"].append(r)
                    samples["terminals"].append(t)
                    samples["next_states"].append(ns)
                    if self.worker_side_prioritization:
                        # One executor call *per sample* — the pattern the
                        # paper identifies as RLlib's bottleneck.
                        td = self._td_errors({
                            "states": np.asarray([s]),
                            "actions": np.asarray([a]),
                            "rewards": np.asarray([r], np.float32),
                            "terminals": np.asarray([t], bool),
                            "next_states": np.asarray([ns]),
                        })
                        priorities.append(abs(float(td[0])) + 1e-6)
            self._states = next_states
        batch = {k: np.asarray(v) for k, v in samples.items()}
        batch["rewards"] = batch["rewards"].astype(np.float32)
        if self.worker_side_prioritization:
            batch["priorities"] = np.asarray(priorities, np.float32)
        return batch

    def _td_errors(self, batch) -> np.ndarray:
        return np.asarray(self.agent.call_api(
            "get_td_errors", *self.agent.update_feed(batch)))

    # ------------------------------------------------------------------
    def execute_timesteps(self, num_timesteps: int, update_interval: int = 4,
                          update_after: int = 200) -> WorkerStats:
        """Local training loop: act, observe into agent memory, update."""
        t0 = time.perf_counter()
        num_envs = self.vector_env.num_envs
        steps = max(num_timesteps // num_envs, 1)
        prev_pre = None
        prev_actions = None
        prev_rewards = None
        prev_terminals = None
        for i in range(steps):
            out = self.agent.get_actions(self._states)
            actions, preprocessed = out[0], self._snap(out[-1])
            # Overlap: memory insertion and the learner update run while
            # the envs step in the background (threaded/async engines).
            self.vector_env.step_async(actions)
            if prev_pre is not None:
                self.agent.observe_batch(prev_pre, prev_actions, prev_rewards,
                                         prev_terminals, preprocessed)
            total = (i + 1) * num_envs
            if total > update_after and i % update_interval == 0:
                self.agent.update()
            next_states, rewards, terminals = self.vector_env.step_wait()
            prev_pre, prev_actions = preprocessed, actions
            prev_rewards, prev_terminals = rewards, terminals
            self._states = next_states
        self.stats.wall_time += time.perf_counter() - t0
        self.stats.env_frames += steps * num_envs
        self.stats.episode_returns = self.vector_env.finished_episode_returns
        return self.stats
