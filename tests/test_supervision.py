"""Supervision-layer tests: backoff properties (bounded, jitterless,
deterministic under a seeded clock), Supervisor restart semantics with
fake handles, the one supervised call path (slot handles + pump /
broadcast / gather / retrying) as a deterministic matrix of scripted
deaths, one pump's wait over plain refs, the Ape-X termination
contract and replay ratio, spec resolution, factory picklability, and
the raylite liveness
signal the supervisor is built on (SIGKILLed process actors flip
``is_alive()`` and fire death callbacks; deliberate kills do not).
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.execution.parallel import resolve_parallel_spec
from repro.execution.ray import ApexExecutor
from repro.execution.ray import apex_executor
from repro.execution.supervision import (
    BackoffPolicy,
    Pump,
    ReplicaFactory,
    RestartEvent,
    SlotHandle,
    SupervisionError,
    SupervisionSpec,
    Supervisor,
    broadcast,
    gather,
    resolve_supervision_spec,
)
from repro.utils.errors import RLGraphError


# ---------------------------------------------------------------------------
# Fakes: deterministic clock + in-memory actor handles
# ---------------------------------------------------------------------------
class FakeClock:
    """Manual time source; ``sleep`` advances it and records the call."""

    def __init__(self, start=0.0):
        self.now = float(start)
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds

    def advance(self, seconds):
        self.now += float(seconds)


class _FakeMethod:
    def __init__(self, handle, name):
        self.handle, self.name = handle, name

    def remote(self, *args):
        return self.handle.submit(self.name, args)


class FakeHandle:
    """Scriptable stand-in for a raylite actor handle.  Tasks are real
    ``ObjectRef`` futures the test settles by hand: ``finish`` answers
    the oldest pending task, ``die`` kills the actor and fails them."""

    def __init__(self, alive=True, log=None, script=None):
        self.alive = alive
        self.log = log if log is not None else []
        self.pending = []            # [(method, args, ref)]
        self.submit_error = None     # raised by the next submit
        self.die_on_submit = False   # the kill lands inside .remote()
        self.script = script         # script(handle) after each submit

    def is_alive(self):
        return self.alive

    def num_pending(self):
        return len(self.pending)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return _FakeMethod(self, name)

    def submit(self, method, args):
        if self.submit_error is not None:
            error, self.submit_error = self.submit_error, None
            raise error
        if self.die_on_submit:
            self.alive = False
        if not self.alive:
            raise raylite.RayliteError("Actor fake is stopped")
        ref = raylite.ObjectRef()
        self.pending.append((method, args, ref))
        self.log.append(("submit", self, method))
        if self.script is not None:
            self.script(self)
        return ref

    def finish(self, value=None, error=None):
        _, _, ref = self.pending.pop(0)
        if error is not None:
            ref._fail(error)
        else:
            ref._resolve(value)

    def die(self):
        self.alive = False
        while self.pending:
            self.finish(error=raylite.RayliteError("actor fake died"))


class FakeFactory:
    """Builds FakeHandles; scriptable to fail or produce dead ones."""

    def __init__(self, fail_first=0, dead_first=0, log=None, script=None):
        self.built = []
        self.fail_first = fail_first
        self.dead_first = dead_first
        self.calls = 0
        self.log = log
        self.script = script

    def __call__(self):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError("factory down")
        handle = FakeHandle(alive=self.calls > self.fail_first
                            + self.dead_first, log=self.log,
                            script=self.script)
        self.built.append(handle)
        return handle


def _supervisor(clock=None, **backoff_kwargs):
    clock = clock or FakeClock()
    spec = SupervisionSpec(backoff=BackoffPolicy(**backoff_kwargs))
    return Supervisor(spec, clock=clock, sleep=clock.sleep), clock


# ---------------------------------------------------------------------------
# BackoffPolicy properties
# ---------------------------------------------------------------------------
class TestBackoffPolicy:
    def test_schedule_is_exponential_and_capped(self):
        policy = BackoffPolicy(base_delay=0.1, factor=2.0, max_delay=0.5,
                               max_restarts=6)
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_schedule_is_deterministic(self):
        # Jitterless by design: two policies with the same knobs produce
        # byte-identical schedules (the seeded-clock reproducibility
        # contract the chaos tests rely on).
        a = BackoffPolicy(base_delay=0.05, factor=3.0, max_delay=2.0)
        b = BackoffPolicy(base_delay=0.05, factor=3.0, max_delay=2.0)
        assert a.delays() == b.delays()

    def test_bounded_by_max_restarts(self):
        assert len(BackoffPolicy(max_restarts=3).delays()) == 3
        assert BackoffPolicy(max_restarts=0).delays() == []

    def test_validation(self):
        with pytest.raises(RLGraphError):
            BackoffPolicy(base_delay=-0.1)
        with pytest.raises(RLGraphError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(RLGraphError):
            BackoffPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(RLGraphError):
            BackoffPolicy(max_restarts=-1)
        with pytest.raises(RLGraphError):
            BackoffPolicy().delay(-1)


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------
class TestSpecResolution:
    def test_none_and_false_disable(self):
        assert resolve_supervision_spec(None).enabled is False
        assert resolve_supervision_spec(False).enabled is False

    def test_true_and_on_enable_defaults(self):
        for value in (True, "on"):
            spec = resolve_supervision_spec(value)
            assert spec.enabled is True
            assert spec.backoff.max_restarts == 5

    def test_dict_sets_backoff_knobs(self):
        spec = resolve_supervision_spec(
            {"base_delay": 0.01, "factor": 4.0, "max_delay": 1.0,
             "max_restarts": 2, "probe_interval": 0.1, "reset_after": 9.0})
        assert spec.enabled is True
        assert spec.backoff.delays() == [0.01, 0.04]
        assert spec.probe_interval == 0.1
        assert spec.reset_after == 9.0

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(RLGraphError, match="jitter"):
            resolve_supervision_spec({"jitter": 0.5})

    def test_instance_passthrough(self):
        spec = SupervisionSpec(enabled=False)
        assert resolve_supervision_spec(spec) is spec

    def test_bad_type_rejected(self):
        with pytest.raises(RLGraphError):
            resolve_supervision_spec(42)

    def test_spec_validation(self):
        with pytest.raises(RLGraphError):
            SupervisionSpec(probe_interval=0)
        with pytest.raises(RLGraphError):
            SupervisionSpec(reset_after=-1)


# ---------------------------------------------------------------------------
# Supervisor restart semantics (fake handles, seeded clock)
# ---------------------------------------------------------------------------
class TestSupervisor:
    def test_alive_handle_passes_through(self):
        sup, clock = _supervisor()
        handle = FakeHandle()
        slot = sup.register("a", handle, FakeFactory())
        assert isinstance(slot, SlotHandle)
        assert sup.ensure_alive("a") is handle
        assert sup.total_restarts == 0
        assert clock.slept == []

    def test_dead_handle_restarts_with_weight_resync(self):
        sup, _ = _supervisor()
        factory = FakeFactory()
        handle = FakeHandle(alive=False)
        synced = []
        sup.register("a", handle, factory, on_restart=synced.append)
        replacement = sup.ensure_alive("a")
        assert replacement is factory.built[0]
        assert replacement.is_alive()
        assert synced == [replacement]  # hook saw the NEW (raw) handle
        assert sup.total_restarts == 1
        assert sup.handle("a") is replacement

    def test_restart_timeline_is_deterministic(self):
        # Two supervisors with the same seeded clock replay the exact
        # same sleep sequence — the jitterless-backoff property.
        timelines = []
        for _ in range(2):
            sup, clock = _supervisor(base_delay=0.1, factor=2.0,
                                     max_delay=5.0, max_restarts=5)
            factory = FakeFactory(fail_first=3)
            handle = FakeHandle(alive=False)
            sup.register("a", handle, factory)
            sup.ensure_alive("a")
            timelines.append(list(clock.slept))
        assert timelines[0] == timelines[1] == [0.1, 0.2, 0.4, 0.8]

    def test_budget_exhaustion_raises_with_history(self):
        sup, _ = _supervisor(max_restarts=3)
        factory = FakeFactory(fail_first=99)  # never recovers
        handle = FakeHandle(alive=False)
        sup.register("flaky", handle, factory)
        with pytest.raises(SupervisionError) as excinfo:
            sup.ensure_alive("flaky")
        err = excinfo.value
        assert err.actor_name == "flaky"
        assert len(err.history) == 3
        assert all(isinstance(e, RestartEvent) for e in err.history)
        assert [e.attempt for e in err.history] == [0, 1, 2]
        assert "factory down" in str(err)
        # The budget stays spent: the next attempt fails immediately.
        with pytest.raises(SupervisionError):
            sup.ensure_alive("flaky")

    def test_dead_on_arrival_replacement_burns_attempt(self):
        sup, _ = _supervisor(max_restarts=2)
        factory = FakeFactory(dead_first=1)
        handle = FakeHandle(alive=False)
        sup.register("a", handle, factory)
        replacement = sup.ensure_alive("a")
        assert replacement.is_alive()
        history = sup.restart_history
        assert len(history) == 2
        assert history[0].reason == "replacement dead on arrival"

    def test_failing_restart_hook_burns_attempt_then_recovers(self):
        sup, _ = _supervisor(max_restarts=3)
        factory = FakeFactory()
        handle = FakeHandle(alive=False)
        calls = []

        def hook(new_handle):
            calls.append(new_handle)
            if len(calls) == 1:
                raise RuntimeError("died during weight push")

        sup.register("a", handle, factory, on_restart=hook)
        replacement = sup.ensure_alive("a")
        assert replacement is factory.built[1]
        assert len(calls) == 2
        assert "on_restart failed" in sup.restart_history[0].reason

    def test_no_double_restart_for_one_death(self):
        # Two recoveries triggered by the same dead incarnation (two of
        # its refs failing, say) must find the slot's CURRENT handle,
        # not restart a second time.
        sup, _ = _supervisor()
        factory = FakeFactory()
        slot = sup.register("a", FakeHandle(alive=False), factory)
        replacement = sup.ensure_alive("a")
        assert sup.ensure_alive("a") is replacement
        slot.ping.remote()                       # the submit path agrees
        assert replacement.num_pending() == 1
        assert sup.total_restarts == 1

    def test_unknown_slot_raises_keyerror(self):
        sup, _ = _supervisor()
        with pytest.raises(KeyError):
            sup.ensure_alive("nobody")

    def test_disabled_supervisor_hands_out_raw_handles(self):
        sup = Supervisor(None)
        handle = FakeHandle(alive=False)
        assert sup.register("a", handle, FakeFactory()) is handle
        factory = FakeFactory()
        assert sup.spawn({"b": factory}) == factory.built
        assert sup.names() == [] and sup.probe() == []
        assert sup.retire(handle) is handle

    def test_retired_slot_keeps_its_history_and_stays_dead(self):
        sup, _ = _supervisor()
        slot = sup.register("a", FakeHandle(alive=False), FakeFactory())
        current = sup.ensure_alive("a")
        assert sup.retire(slot) is current
        current.alive = False                    # the caller's kill
        assert sup.names() == [] and sup.probe() == []
        assert sup.total_restarts == 1           # never forgotten
        # A straggler still holding the slot handle cannot resurrect it.
        with pytest.raises(raylite.RayliteError):
            slot.ping.remote()
        assert sup.total_restarts == 1 and not slot.is_alive()
        assert sup.retire(slot) is current       # idempotent
        assert sup.total_restarts == 1

    def test_duplicate_slot_name_rejected(self):
        sup, _ = _supervisor()
        sup.register("a", FakeHandle(), FakeFactory())
        with pytest.raises(RLGraphError):
            sup.register("a", FakeHandle(), FakeFactory())

    def test_probe_restarts_only_dead_slots(self):
        sup, _ = _supervisor()
        live = FakeHandle()
        dead = FakeHandle(alive=False)
        sup.register("live", live, FakeFactory())
        sup.register("dead", dead, FakeFactory())
        assert sup.probe() == ["dead"]
        assert sup.handle("live") is live
        assert sup.handle("dead").is_alive()
        assert sup.probe() == []  # everyone healthy now

    def test_healthy_time_earns_budget_back(self):
        clock = FakeClock()
        spec = SupervisionSpec(backoff=BackoffPolicy(max_restarts=1),
                               reset_after=10.0)
        sup = Supervisor(spec, clock=clock, sleep=clock.sleep)
        factory = FakeFactory()
        handle = FakeHandle(alive=False)
        sup.register("a", handle, factory)
        first = sup.ensure_alive("a")           # spends the whole budget
        clock.advance(11.0)                     # healthy past reset_after
        assert sup.ensure_alive("a") is first   # probe resets attempts
        first.alive = False
        second = sup.ensure_alive("a")          # budget earned back
        assert second.is_alive()
        assert sup.total_restarts == 2

    def test_restart_history_ordered_across_slots(self):
        sup, clock = _supervisor()
        a, b = FakeHandle(alive=False), FakeHandle(alive=False)
        sup.register("a", a, FakeFactory())
        sup.register("b", b, FakeFactory())
        sup.ensure_alive("a")
        clock.advance(1.0)
        sup.ensure_alive("b")
        assert [e.name for e in sup.restart_history] == ["a", "b"]


# ---------------------------------------------------------------------------
# The one supervised call path: scripted deaths x {pump, broadcast, gather}
# ---------------------------------------------------------------------------
def answer(value):
    """Handle script: every submitted task is answered at once."""
    return lambda handle: handle.finish(value)


def die_after_submit(handle):
    """Handle script: the task is accepted, then the actor dies."""
    handle.die()


class Rig:
    """Two fake slots under one seeded-clock supervisor.  ``log`` holds
    ``("hook", raw)`` and ``("submit", raw, method)`` in event order."""

    def __init__(self, enabled=True, max_restarts=3, script=None,
                 **factory_kwargs):
        self.clock = FakeClock()
        self.log = []
        self.policy = BackoffPolicy(base_delay=0.1, factor=2.0,
                                    max_delay=5.0,
                                    max_restarts=max_restarts)
        self.sup = Supervisor(
            SupervisionSpec(enabled=enabled, backoff=self.policy),
            clock=self.clock, sleep=self.clock.sleep)
        self.first = [FakeHandle(log=self.log, script=script)
                      for _ in range(2)]
        self.factories = [FakeFactory(log=self.log, script=script,
                                      **factory_kwargs) for _ in range(2)]
        self.handles = [
            self.sup.register(f"s{i}", first, factory,
                              on_restart=lambda h: self.log.append(
                                  ("hook", h)))
            for i, (first, factory)
            in enumerate(zip(self.first, self.factories))]

    def incarnations(self, i):
        return [self.first[i]] + self.factories[i].built

    def in_flight(self, i):
        return sum(h.num_pending() for h in self.incarnations(i))

    def hooks(self):
        return [entry[1] for entry in self.log if entry[0] == "hook"]

    def assert_one_recovery(self, i, restarts=1):
        """Slot ``i`` died once and was replaced by a live actor after
        ``restarts`` attempts; nobody else was touched."""
        replacement = self.sup.handle(f"s{i}")
        assert replacement is self.factories[i].built[-1]
        assert replacement.is_alive()
        assert self.sup.total_restarts == restarts
        assert self.factories[1 - i].calls == 0
        assert self.clock.slept == self.policy.delays()[:restarts]
        # The hook ran once, on the live replacement, before any task.
        assert self.hooks() == [replacement]
        submits = [k for k, entry in enumerate(self.log)
                   if entry[:2] == ("submit", replacement)]
        assert self.log.index(("hook", replacement)) < min(submits)
        return replacement


def run_pump(handles):
    pump = Pump()
    for handle in handles:
        pump.arm(handle, "work", 5)
    return pump


def run_broadcast(handles):
    return broadcast(handles, "work", 5)


def run_gather(handles):
    return gather(handles, "work", 5)


SHAPES = pytest.mark.parametrize(
    "shape", [run_pump, run_broadcast, run_gather],
    ids=["pump", "broadcast", "gather"])


class TestOneCallPath:
    @SHAPES
    @pytest.mark.parametrize("window", ["dead_before", "dies_in_remote"])
    def test_death_at_submit(self, shape, window):
        rig = Rig(script=answer(9) if shape is run_gather else None)
        if window == "dead_before":
            rig.first[0].alive = False
        else:
            rig.first[0].die_on_submit = True
        out = shape(rig.handles)
        replacement = rig.assert_one_recovery(0)
        assert [e for e in rig.log if e[0] == "submit"] == [
            ("submit", replacement, "work"),
            ("submit", rig.first[1], "work")]
        if shape is run_gather:
            assert out == [9, 9]
        else:
            assert rig.in_flight(0) == rig.in_flight(1) == 1
            assert replacement.pending[0][:2] == ("work", (5,))

    def test_pump_death_at_result_rearms_on_replacement(self):
        rig = Rig()
        pump = run_pump(rig.handles)
        rig.first[0].die()
        rig.first[1].finish(42)
        assert list(pump.reap(timeout=0)) == [(rig.handles[1], 42)]
        replacement = rig.assert_one_recovery(0)
        assert replacement.pending[0][:2] == ("work", (5,))
        assert rig.in_flight(0) == 1 and len(pump) == 1
        pump.arm(rig.handles[1], "work", 5)
        # The re-armed task completes like any other.
        replacement.finish(7)
        rig.first[1].finish(8)
        assert sorted(r for _, r in pump.reap(timeout=0)) == [7, 8]
        assert len(pump) == 0 and rig.sup.total_restarts == 1

    def test_pump_two_lost_tasks_one_restart_each(self):
        rig = Rig()
        pump = run_pump(rig.handles)
        rig.first[0].die()
        rig.first[1].die()
        assert list(pump.reap(timeout=0)) == []
        assert rig.sup.total_restarts == 2
        assert rig.in_flight(0) == rig.in_flight(1) == 1 and len(pump) == 2
        assert len(rig.hooks()) == 2

    def test_pump_slot_with_two_tasks_dies_one_restart_both_rearmed(self):
        rig = Rig()
        pump = Pump()
        pump.arm(rig.handles[0], "work", 1)
        pump.arm(rig.handles[0], "work", 2)     # double-buffered slot
        rig.first[0].die()
        assert list(pump.reap(timeout=0)) == []
        replacement = rig.assert_one_recovery(0)
        assert [task[:2] for task in replacement.pending] == [
            ("work", (1,)), ("work", (2,))]
        assert len(pump) == 2

    def test_death_mid_broadcast_is_synced_by_the_restart_hook(self):
        rig = Rig(script=None)
        pairs = run_broadcast(rig.handles)
        rig.first[0].die()                       # the push is lost
        with pytest.raises(raylite.RayliteError):
            pairs[0][1].result(0)
        assert rig.sup.total_restarts == 0       # recovery is pulled
        assert rig.sup.probe() == ["s0"]
        assert rig.hooks() == [rig.sup.handle("s0")]
        assert rig.clock.slept == rig.policy.delays()[:1]

    def test_death_mid_gather_skips_the_slot_then_heals_it(self):
        rig = Rig(script=answer(3))
        rig.first[0].script = die_after_submit
        assert run_gather(rig.handles) == [3]    # the survivor's answer
        assert rig.sup.total_restarts == 0
        assert run_gather(rig.handles) == [3, 3]
        rig.assert_one_recovery(0)

    def test_gather_timeout_on_a_slot_is_a_skip(self):
        rig = Rig()
        rig.first[1].script = answer(1)
        assert gather(rig.handles, "work", timeout=0) == [1]
        assert rig.sup.total_restarts == 0

    @SHAPES
    def test_replacement_dead_on_arrival(self, shape):
        rig = Rig(dead_first=1,
                  script=answer(9) if shape is run_gather else None)
        rig.first[0].alive = False
        shape(rig.handles)
        rig.assert_one_recovery(0, restarts=2)   # scripted deaths: 2
        assert [e.reason for e in rig.sup.restart_history] == [
            "replacement dead on arrival", "dead"]
        assert rig.factories[0].built[0].num_pending() == 0

    @SHAPES
    def test_budget_exhausted_at_submit(self, shape):
        rig = Rig(fail_first=99)
        rig.first[0].alive = False
        with pytest.raises(SupervisionError) as excinfo:
            shape(rig.handles)
        assert excinfo.value.actor_name == "s0"
        assert rig.clock.slept == rig.policy.delays()
        assert rig.sup.total_restarts == rig.policy.max_restarts
        assert rig.hooks() == []

    def test_budget_exhausted_at_result_disarms_the_task(self):
        rig = Rig(fail_first=99)
        pump = run_pump(rig.handles)
        rig.first[0].die()
        with pytest.raises(SupervisionError):
            list(pump.reap(timeout=0))
        assert rig.clock.slept == rig.policy.delays()
        assert len(pump) == 1                    # only s1 is still armed
        rig.first[1].finish(1)
        assert list(pump.reap(timeout=0)) == [(rig.handles[1], 1)]

    # -- unsupervised: the original exception object, nothing restarted ----
    @SHAPES
    def test_unsupervised_submit_failure_is_reraised(self, shape):
        rig = Rig(enabled=False)
        assert rig.handles == rig.first          # raw handles
        boom = raylite.RayliteError("Actor fake is stopped")
        rig.first[0].submit_error = boom
        with pytest.raises(raylite.RayliteError) as excinfo:
            shape(rig.handles)
        assert excinfo.value is boom
        assert rig.sup.total_restarts == 0 and rig.factories[0].calls == 0

    def test_unsupervised_result_failure_is_reraised(self):
        boom = raylite.RayliteError("actor fake died")
        rig = Rig(enabled=False)
        pump = run_pump(rig.handles)
        rig.first[0].finish(error=boom)
        rig.first[1].finish(2)
        with pytest.raises(raylite.RayliteError) as excinfo:
            list(pump.reap(timeout=0))
        assert excinfo.value is boom
        assert len(pump) == 1                    # the live task stays armed
        assert list(pump.reap(timeout=0)) == [(rig.first[1], 2)]
        rig = Rig(enabled=False,
                  script=lambda handle: handle.finish(error=boom))
        with pytest.raises(raylite.RayliteError) as excinfo:
            run_gather(rig.handles)
        assert excinfo.value is boom
        assert rig.factories[0].calls == 0

    # -- Ctrl-C is not a dead actor ------------------------------------------
    @SHAPES
    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_at_submit_propagates(self, shape, interrupt):
        rig = Rig()
        rig.first[0].submit_error = interrupt()
        with pytest.raises(interrupt):
            shape(rig.handles)
        assert rig.sup.total_restarts == 0 and rig.clock.slept == []

    def test_interrupt_at_result_propagates(self):
        rig = Rig()
        pump = run_pump(rig.handles)
        rig.first[0].finish(error=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            list(pump.reap(timeout=0))
        rig.first[0].script = lambda h: h.finish(error=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_gather(rig.handles)
        assert rig.sup.total_restarts == 0 and rig.clock.slept == []

    # -- whole-round retry (LearnerGroup.update) -----------------------------
    def test_retrying_reruns_the_round_after_restarting_the_dead(self):
        rig = Rig(script=answer(1))
        rig.first[1].script = die_after_submit
        rounds = []

        def round_fn():
            rounds.append(len(rounds))
            return [ref.result(0) for _, ref in run_broadcast(rig.handles)]

        assert rig.sup.retrying(round_fn) == [1, 1]
        assert rounds == [0, 1]
        rig.assert_one_recovery(1)

    def test_retrying_is_bounded_and_passes_interrupts_through(self):
        rig = Rig(max_restarts=2)
        calls = []

        def always_fails():
            calls.append(1)
            raise ValueError("bad batch")

        with pytest.raises(ValueError):
            rig.sup.retrying(always_fails)
        assert len(calls) == 3                   # 1 + max_restarts re-runs
        assert rig.sup.total_restarts == 0       # nobody was dead

        def interrupted():
            calls.append(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            rig.sup.retrying(interrupted)
        assert len(calls) == 4

        boom = ValueError("bad batch")

        def fails_once():
            raise boom

        with pytest.raises(ValueError) as excinfo:
            Supervisor(None).retrying(fails_once)
        assert excinfo.value is boom             # nothing supervised


# ---------------------------------------------------------------------------
# Ape-X termination contract on fake workers and shards
# ---------------------------------------------------------------------------
class _StubLearner:
    def __init__(self):
        self.updates = 0

    def update(self, batch):
        self.updates += 1
        return 0.0, np.zeros(len(batch["rewards"]))

    def get_weights(self, flat=False):
        return np.zeros(1, np.float32)


def worker_script(rows):
    """Handle script: a worker answering ``collect`` with ``rows``
    transitions and ``get_stats`` / ``set_weights`` at once."""
    replies = {"collect": lambda _: {"rewards": np.zeros(rows)},
               "get_stats": lambda: {"env_frames": 0,
                                     "episode_returns": []},
               "set_weights": lambda *_: None}

    def script(handle):
        method, args, ref = handle.pending.pop()
        ref._resolve(replies[method](*args))
    return script


def timed_worker_script(rows, delay):
    """:func:`worker_script`, but ``collect`` answers from a timer
    ``delay`` seconds after its submit."""
    answer = worker_script(rows)

    def script(handle):
        method, _, ref = handle.pending[-1]
        if method != "collect":
            return answer(handle)
        handle.pending.pop()
        timer = threading.Timer(delay, ref._resolve,
                                ({"rewards": np.zeros(rows)},))
        timer.daemon = True
        timer.start()
    return script


class ShardScript:
    """Handle script: a replay shard counting inserted rows; ``sample``
    answers None while under ``batch_size`` rows, and is left pending
    for the test to answer when ``late``."""

    def __init__(self, late=False):
        self.rows = 0
        self.late = late
        self.samples = 0

    def __call__(self, handle):
        method, args, ref = handle.pending[-1]
        if method == "sample":
            self.samples += 1
            if self.late:
                return
        handle.pending.pop()
        if method == "insert":
            self.rows += len(args[0]["rewards"])
        ref._resolve(self.reply(method, *args))

    def reply(self, method, *args):
        if method != "sample":
            return None
        (n,) = args
        if self.rows < n:
            return None
        return {"rewards": np.zeros(n)}, np.arange(n), np.ones(n)


class TestApexTermination:
    """``execute_workload`` drains the armed sample and runs the update
    it pays for; once ``learning_starts`` is reached and a shard holds
    ``>= batch_size`` rows it returns with >= 1 update."""

    def _executor(self, worker_rows, shards, **kwargs):
        executor = ApexExecutor(
            learner_agent=_StubLearner(), agent_factory=None,
            env_factory=None, num_workers=0, num_replay_shards=0,
            batch_size=16, learning_starts=1, **kwargs)
        executor.workers = [FakeHandle(script=worker_script(rows))
                            for rows in worker_rows]
        executor.shards = [FakeHandle(script=shard) for shard in shards]
        return executor

    def test_late_sample_reply_is_drained_into_an_update(self):
        shards = [ShardScript(late=True), ShardScript()]
        executor = self._executor([40, 40], shards)
        shard0 = executor.shards[0]

        def answer_late():
            _, args, ref = shard0.pending.pop(0)
            ref._resolve(shards[0].reply("sample", *args))

        # The loop ends (80 samples) with shard 0's sample in flight.
        timer = threading.Timer(0.1, answer_late)
        timer.start()
        result = executor.execute_workload(num_samples=80)
        timer.join()
        assert result.learner_updates == 1
        assert executor.learner.updates == 1
        assert shards[0].samples == 1 and shards[1].samples == 0
        assert shard0.log[-1] == ("submit", shard0, "update_priorities")

    def test_underfilled_shard_retries_the_others_once(self):
        # Worker 0's 4 rows go to shard 0, worker 1's 40 to shard 1.  The
        # 44 rows pay for 0.25 * 44 = 11 < 16 sampled rows, so the loop
        # arms no sample; the retry asks shard 0 (None), then shard 1.
        shards = [ShardScript(), ShardScript()]
        executor = self._executor([4, 40], shards)
        result = executor.execute_workload(num_samples=44)
        assert result.learner_updates == 1
        assert [s.samples for s in shards] == [1, 1]

    def test_no_shard_holds_a_batch_returns_without_update(self):
        shards = [ShardScript(), ShardScript()]
        executor = self._executor([4, 4], shards)
        result = executor.execute_workload(num_samples=8)
        assert result.learner_updates == 0
        assert [s.samples for s in shards] == [1, 1]

    def test_updates_disabled_never_samples(self):
        shards = [ShardScript(), ShardScript()]
        executor = self._executor([40, 40], shards)
        result = executor.execute_workload(num_samples=80,
                                           updates_enabled=False)
        assert result.learner_updates == 0
        assert [s.samples for s in shards] == [0, 0]

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("worker_rows", [
        [40, 40], [7, 130, 64], [200], [16, 3, 90, 41]])
    def test_replay_ratio_bounds_the_learner(self, monkeypatch,
                                             worker_rows, ratio):
        sampling = [0, 0]  # in flight, peak

        class PeakPump(Pump):
            def arm(self, handle, method, *args):
                super().arm(handle, method, *args)
                if method == "sample":
                    sampling[0] += 1
                    sampling[1] = max(sampling)

            def reap(self, timeout):
                for handle, reply in super().reap(timeout):
                    if handle in executor.shards:
                        sampling[0] -= 1
                    yield handle, reply

        monkeypatch.setattr(apex_executor, "Pump", PeakPump)
        monkeypatch.setattr(apex_executor, "SAMPLES_PER_INSERT", ratio)
        shards = [ShardScript(), ShardScript()]
        executor = self._executor(worker_rows, shards)
        log = []
        for handle in executor.shards:
            handle.log = log
        result = executor.execute_workload(num_samples=1000)
        inserted = sum(s.rows for s in shards)
        assert result.rows_inserted == inserted >= 1000
        assert result.learner_updates >= 1
        assert result.rows_sampled == 16 * result.learner_updates
        # Only the termination retry may go past the ratio, by one batch.
        assert result.rows_sampled <= ratio * inserted + 16
        assert result.replay_ratio == result.rows_sampled / inserted
        assert 1 <= sampling[1] <= apex_executor.SAMPLES_IN_FLIGHT == 2
        targets = [handle for _, handle, method in log if method == "sample"]
        assert targets == [executor.shards[i % 2]
                           for i in range(len(targets))]

    def test_underfilled_replay_does_not_spin_the_learner(self,
                                                          monkeypatch):
        # Every sample comes back None while collects land every 10 ms:
        # a None holds sampling until the next insert, so the shards
        # see at most SAMPLES_IN_FLIGHT requests per insert.
        class EmptyShard(ShardScript):
            def reply(self, method, *args):
                return None

        monkeypatch.setattr(apex_executor, "SAMPLES_PER_INSERT", 1.0)
        shards = [EmptyShard(), EmptyShard()]
        executor = self._executor([], shards)
        executor.workers = [FakeHandle(script=timed_worker_script(40, 0.01))]
        result = executor.execute_workload(duration=0.3)
        inserts = result.rows_inserted // 40
        assert inserts >= 1 and result.learner_updates == 0
        # + 2: the termination retry asks each shard once more.
        assert sum(s.samples for s in shards) <= 2 * inserts + 2


# ---------------------------------------------------------------------------
# The loop's one wait: a pump holding two streams (plain refs, no actors)
# ---------------------------------------------------------------------------
@pytest.mark.mp_timeout(30)
class TestPumpWait:
    def _pump(self):
        handles = [FakeHandle(), FakeHandle()]
        pump = Pump()
        pump.arm(handles[0], "collect")
        pump.arm(handles[1], "sample")
        return handles, pump

    @pytest.mark.parametrize("first", [0, 1])
    def test_wakes_on_first_completion_of_either_stream(self, first):
        handles, pump = self._pump()
        timer = threading.Timer(0.05, handles[first].finish, ("done",))
        timer.start()
        assert list(pump.reap(timeout=10.0)) == [(handles[first], "done")]
        timer.join()
        assert len(pump) == 1
        assert list(pump.reap(timeout=0)) == []

    def test_wakes_on_a_failed_ref(self):
        handles, pump = self._pump()
        timer = threading.Timer(0.05, handles[1].die)
        timer.start()
        start = time.monotonic()
        with pytest.raises(raylite.RayliteError):  # raw handle: re-raise
            list(pump.reap(timeout=10.0))
        timer.join()
        assert time.monotonic() - start < 5.0
        assert len(pump) == 1

    def test_returns_at_its_timeout(self):
        _, pump = self._pump()
        start = time.monotonic()
        assert list(pump.reap(timeout=0.1)) == []
        assert 0.09 <= time.monotonic() - start < 5.0
        assert len(pump) == 2

    def test_leaves_no_callback_on_pending_refs(self):
        handles, pump = self._pump()
        refs = [ref for handle in handles for _, _, ref in handle.pending]
        assert list(pump.reap(timeout=0.01)) == []
        handles[0].finish("done")
        assert list(pump.reap(timeout=10.0)) == [(handles[0], "done")]
        assert refs[1]._callbacks == []

    def test_returns_at_once_when_nothing_is_armed(self):
        start = time.monotonic()
        assert list(Pump().reap(timeout=None)) == []
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# ReplicaFactory
# ---------------------------------------------------------------------------
class _PickleProbe:
    def __init__(self, x, y=2):
        self.x, self.y = x, y


class TestReplicaFactory:
    def test_is_picklable(self):
        # Process restarts ship the recipe to a fresh worker process;
        # the factory (spec + class + args) must survive pickling.
        factory = ReplicaFactory(resolve_parallel_spec("process"),
                                 _PickleProbe, 1, y=3)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.cls is _PickleProbe
        assert clone.args == (1,)
        assert clone.kwargs == {"y": 3}
        assert clone.parallel.is_process

    def test_builds_thread_actor(self):
        factory = ReplicaFactory(resolve_parallel_spec(None), _PickleProbe, 5)
        handle = factory()
        try:
            assert handle.is_alive()
        finally:
            raylite.kill(handle)


# ---------------------------------------------------------------------------
# The liveness signal on real raylite actors
# ---------------------------------------------------------------------------
class _Idler:
    """Spawn-safe actor fixture (module-level by design)."""

    def __init__(self, start=0):
        self.value = start

    def ping(self):
        return self.value


def _idler_factory():
    return raylite.remote(_Idler).options(backend="process").remote()


@pytest.mark.mp_timeout(120)
class TestProcessLiveness:
    def test_sigkill_flips_is_alive_and_fires_callback(self):
        handle = _idler_factory()
        try:
            assert handle.is_alive()
            died = threading.Event()
            handle.add_death_callback(lambda h: died.set())
            os.kill(handle.pid, signal.SIGKILL)
            assert died.wait(timeout=10.0)
            assert not handle.is_alive()
        finally:
            raylite.shutdown()

    def test_deliberate_kill_does_not_fire_callback(self):
        handle = _idler_factory()
        try:
            died = threading.Event()
            handle.add_death_callback(lambda h: died.set())
            raylite.kill(handle)
            assert not died.wait(timeout=0.5)
            assert not handle.is_alive()
        finally:
            raylite.shutdown()

    def test_supervisor_restarts_sigkilled_process_actor(self):
        spec = resolve_supervision_spec(
            {"base_delay": 0.01, "max_delay": 0.1, "max_restarts": 3})
        sup = Supervisor(spec)
        handle = _idler_factory()
        try:
            slot = sup.register("idler", handle, _idler_factory)
            assert slot.pid == handle.pid
            os.kill(slot.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while slot.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            # The submit finds the slot dead, restarts it, and lands on
            # the replacement: the caller's handle never changes.
            assert raylite.get(slot.ping.remote(), timeout=10.0) == 0
            assert sup.handle("idler") is not handle
            assert slot.is_alive() and slot.pid != handle.pid
            assert sup.total_restarts == 1
        finally:
            raylite.shutdown()
