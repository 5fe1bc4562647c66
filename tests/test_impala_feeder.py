"""IMPALA's coordination loop and driver pool width, on fake actors.

``IMPALARunner.run`` is driven against in-memory stand-ins for raylite
actors: a FIFO mailbox the test (or a worker thread) runs one task at a
time, so mailbox order, weight pushes and versions are observable
without spawning a process; a scripted actor whose replies are settled
the moment they are submitted, so every turn of the loop is
deterministic; or a raylite thread actor around a core that rolls out
instantly.  A runner built with ``num_actors=0`` spawns nothing; the
fakes are installed as its ``actor_handles``.
"""

import collections
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.execution import impala_runner
from repro.execution.impala_runner import ROLLOUTS_IN_FLIGHT, IMPALARunner
from repro.execution.supervision import Pump
from repro.utils.procutil import native_thread_pools, usable_cores


def _rollout(version):
    t, e = 2, 1
    return {"states": np.zeros((t, e, 3), np.float32),
            "actions": np.zeros((t, e), np.int64),
            "behaviour_log_probs": np.zeros((t, e), np.float32),
            "rewards": np.zeros((t, e), np.float32),
            "terminals": np.zeros((t, e), bool),
            "bootstrap_states": np.zeros((e, 3), np.float32),
            "episode_returns": [],
            "weights_version": version}


def _widths():
    return [get() for _, _, get in native_thread_pools()]


class StubLearner:
    """Learner stand-in: one flat weight, records the driver's native
    pool widths at every update; ``fail`` makes the update raise."""

    def __init__(self, fail=False):
        self.fail = fail
        self.widths_seen = []

    def get_weights(self, flat=False):
        return np.zeros(1, np.float32)

    def update(self, batch):
        self.widths_seen.append(_widths())
        if self.fail:
            raise RuntimeError("learner blew up")
        return 0.0, None, None


class _Method:
    def __init__(self, actor, name):
        self.actor, self.name = actor, name

    def remote(self, *args):
        return self.actor.submit(self.name, args)


class MailboxActor:
    """A process actor's observable surface: FIFO mailbox, one task at a
    time (:meth:`step`), rollouts stamped with the version the last
    ``set_weights`` delivered."""

    def __init__(self):
        self.mailbox = collections.deque()   # [(method, args, ref)]
        self.cond = threading.Condition()
        self.version = 0
        self.env_frames = 0
        self.replies = []      # per rollout reply: methods still queued
        self.pushes = []       # per set_weights submit: (version, ahead)
        self.acted_with = []   # per rollout reply: version acted with
        self.stopped = False

    def is_alive(self):
        return not self.stopped

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return _Method(self, name)

    def submit(self, method, args):
        ref = raylite.ObjectRef()
        with self.cond:
            if method == "set_weights":
                ahead = sum(m == "rollout" for m, _, _ in self.mailbox)
                self.pushes.append((args[1], ahead))
            self.mailbox.append((method, args, ref))
            self.cond.notify_all()
        return ref

    def queued(self, method):
        with self.cond:
            return sum(m == method for m, _, _ in self.mailbox)

    def step(self):
        """Run the task at the head of the mailbox; returns its method."""
        with self.cond:
            method, args, ref = self.mailbox.popleft()
            queued = [m for m, _, _ in self.mailbox]
        if method == "set_weights":
            self.version = args[1]
            ref._resolve(0)
        elif method == "rollout":
            self.replies.append(queued)
            self.acted_with.append(self.version)
            self.env_frames += 2
            ref._resolve(_rollout(self.version))
        else:  # get_stats
            ref._resolve({"env_frames": self.env_frames,
                          "rollouts_produced": len(self.replies)})
        return method

    def serve(self):
        """Worker-thread loop: run tasks as they arrive until stopped."""
        while True:
            with self.cond:
                while not self.mailbox and not self.stopped:
                    self.cond.wait()
                if self.stopped:
                    return
            self.step()
            time.sleep(0.002)

    def _stop(self):  # raylite.kill
        with self.cond:
            self.stopped = True
            self.cond.notify_all()

    def die(self):
        """Crash: every queued task fails."""
        with self.cond:
            self.stopped = True
            dead, self.mailbox = self.mailbox, collections.deque()
            self.cond.notify_all()
        for _, _, ref in dead:
            ref._fail(raylite.RayliteError("actor died"))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def _runner(learner=None, parallel_spec="process", batch_size=1):
    return IMPALARunner(learner or StubLearner(), agent_factory=None,
                        env_factory=None, num_actors=0,
                        batch_size=batch_size, parallel_spec=parallel_spec)


class TestFeederMailbox:
    """Two rollouts in flight; a new version pushed once per reply,
    before the re-arm, landing behind exactly one queued rollout."""

    @staticmethod
    def _drive(replies, publish_before=()):
        """Run the loop on a thread against one mailbox actor for
        ``replies`` rollouts, with updates off so only the test
        publishes; ``publish_before`` lists, per publish, the reply it
        precedes.  The actor then crashes, which ends the run."""
        runner = _runner()
        actor = MailboxActor()
        runner.actor_handles = [actor]
        loop = threading.Thread(
            target=runner.run, kwargs={"duration": 60.0,
                                       "updates_enabled": False},
            daemon=True)
        loop.start()
        try:
            wait_until(lambda: actor.queued("rollout") == ROLLOUTS_IN_FLIGHT)
            for k in range(replies):
                for _ in range(list(publish_before).count(k)):
                    runner.publish()
                while actor.step() != "rollout":
                    pass  # weight pushes queued ahead of the rollout
                # The loop took the reply: it re-armed the actor.
                wait_until(lambda: actor.queued("rollout")
                           == ROLLOUTS_IN_FLIGHT)
        finally:
            actor.die()
            loop.join(timeout=5.0)
        assert not loop.is_alive()
        return runner, actor

    def test_every_reply_finds_the_next_rollout_queued(self):
        _, actor = self._drive(8)
        assert ROLLOUTS_IN_FLIGHT == 2
        assert len(actor.replies) == 8
        assert all("rollout" in queued for queued in actor.replies)
        assert actor.pushes == []     # version 0 is the actors' own init

    def test_newer_version_pushed_once_per_reply_one_rollout_behind(self):
        # Publish before replies 1, 2 and 3; twice before reply 5 (the
        # push coalesces to the latest); nothing before 4, 6 and 7.
        runner, actor = self._drive(8, publish_before=[1, 2, 3, 5, 5])
        # One push per reply that saw a newer version, each queued
        # behind exactly the one rollout already in flight ...
        assert actor.pushes == [(1, 1), (2, 1), (3, 1), (5, 1)]
        # ... so a rollout acts with the version out at the reply two
        # rollouts before it: never more than one rollout behind.
        assert actor.acted_with == [0, 0, 0, 1, 2, 3, 3, 5]
        assert runner._weights_version == 5

    def test_restart_hook_pushes_the_current_version(self):
        runner = _runner()
        for _ in range(3):
            runner.publish()
        actor = MailboxActor()
        runner._sync_restarted(actor)
        assert actor.pushes == [(3, 0)]
        actor.step()
        assert actor.version == 3


class _InstantCore:
    """What an ``IMPALAActorCore`` answers, at no acting cost."""

    def __init__(self):
        self.version = 0
        self.env_frames = 0

    def rollout(self):
        time.sleep(0.002)
        self.env_frames += 2
        return _rollout(self.version)

    def set_weights(self, weights, version=None):
        if version is not None:
            self.version = version
        return 0

    def get_stats(self):
        return {"env_frames": self.env_frames}


def _thread_actor():
    """A raylite thread actor, as thread mode runs."""
    return raylite.remote(_InstantCore).options(backend="thread").remote()


@pytest.fixture
def pools():
    """The driver's native pool widths before the test."""
    np.ones((8, 8)) @ np.ones((8, 8))  # make sure BLAS is mapped
    before = _widths()
    if not before:
        pytest.skip("no BLAS/OpenMP library located in this process")
    return before


class TestDriverPoolWidth:
    """In process mode ``run()`` sizes the driver's native pools to
    ``max(1, cores - actors)`` and restores them however it ends; a
    thread-mode run never touches them."""

    def _process_run(self, learner, num_actors=1):
        runner = _runner(learner)
        actors = [MailboxActor() for _ in range(num_actors)]
        runner.actor_handles = list(actors)
        threads = [threading.Thread(target=a.serve, daemon=True)
                   for a in actors]
        for thread in threads:
            thread.start()
        try:
            return runner.run(duration=0.3)
        finally:
            for actor in actors:
                actor._stop()
            for thread in threads:
                thread.join(timeout=5.0)

    @pytest.mark.parametrize("num_actors", [1, 2])
    def test_process_run_uses_the_cores_its_actors_leave(self, pools,
                                                         num_actors):
        learner = StubLearner()
        result = self._process_run(learner, num_actors)
        width = max(1, usable_cores() - num_actors)
        assert learner.widths_seen
        assert all(seen == [width] * len(pools)
                   for seen in learner.widths_seen)
        assert result["learner_updates"] == len(learner.widths_seen)
        assert _widths() == pools

    def test_widths_restored_when_run_raises(self, pools):
        learner = StubLearner(fail=True)
        with pytest.raises(RuntimeError, match="learner blew up"):
            self._process_run(learner)
        assert learner.widths_seen == [
            [max(1, usable_cores() - 1)] * len(pools)]
        assert _widths() == pools

    def test_thread_run_never_touches_them(self, pools, monkeypatch):
        def forbidden(*args):
            raise AssertionError("thread mode resized the driver pools")

        monkeypatch.setattr(impala_runner, "native_threads_beside",
                            forbidden)
        learner = StubLearner()
        runner = _runner(learner, parallel_spec=None)
        runner.actor_handles = [_thread_actor()]
        result = runner.run(duration=0.3)
        assert result["learner_updates"] > 0
        assert all(seen == pools for seen in learner.widths_seen)


class ScriptedActor:
    """An actor whose every reply is settled the moment it is submitted:
    the ``rollout`` replies follow ``script`` (the versions acted with),
    then the actor either dies (every later task fails) or stalls (its
    rollouts never reply).  ``rollout_ids`` stamp each rollout's
    rewards so a test can tell which ones trained."""

    def __init__(self, script, then="die", rollout_ids=None):
        self.script = list(script)
        self.ids = list(rollout_ids or range(1, len(self.script) + 1))
        self.then = then
        self.served = 0

    def is_alive(self):
        return self.served < len(self.script) or self.then == "stall"

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return _Method(self, name)

    def submit(self, method, args):
        ref = raylite.ObjectRef()
        if method == "set_weights":
            ref._resolve(0)
        elif method == "get_stats":
            ref._resolve({"env_frames": 2 * self.served})
        elif self.served < len(self.script):
            item = _rollout(self.script[self.served])
            item["rewards"][:] = self.ids[self.served]
            self.served += 1
            ref._resolve(item)
        elif self.then == "die":
            ref._fail(raylite.RayliteError("actor died"))
        return ref  # a stalled rollout never settles

    def _stop(self):  # raylite.kill
        pass


def _recording(learner):
    """Wrap ``learner.update`` to record which rollouts each batch held
    (by their reward stamp)."""
    trained, update = [], learner.update

    def recording_update(batch):
        trained.append([int(r) for r in batch["rewards"][0]])
        return update(batch)

    learner.update = recording_update
    return trained


class TestPolicyLag:
    def test_lag_counts_versions_between_acting_and_training(self):
        learner = StubLearner()
        trained = _recording(learner)
        runner = _runner(learner, parallel_spec=None, batch_size=2)
        runner.actor_handles = [ScriptedActor([0, 0, 1, 0])]
        result = runner.run(duration=60.0)
        assert trained == [[1, 2], [3, 4]]
        assert result["learner_updates"] == 2
        # The first batch (acted with 0, 0) trains at learner version
        # 0: lags 0, 0.  The second (acted with 1, 0) at version 1:
        # lags 0, 1.
        assert result["policy_lag_mean"] == pytest.approx(0.25)
        assert result["policy_lag_max"] == 1

    def test_every_batch_trains_once_the_last_included(self):
        learner = StubLearner()
        trained = _recording(learner)
        runner = _runner(learner, parallel_spec=None)
        runner.actor_handles = [ScriptedActor([0, 0, 1, 1])]
        result = runner.run(duration=60.0)
        assert trained == [[1], [2], [3], [4]]
        assert result["learner_updates"] == 4
        # Updates run at learner versions 0, 1, 2, 3 on rollouts acted
        # with versions 0, 0, 1, 1: lags 0, 1, 1, 2.
        assert result["policy_lag_mean"] == pytest.approx(1.0)
        assert result["policy_lag_max"] == 2

    def test_no_training_no_lag(self):
        runner = _runner(StubLearner(), parallel_spec=None)
        runner.actor_handles = [_thread_actor()]
        result = runner.run(duration=0.2, updates_enabled=False)
        assert result["policy_lag_mean"] is None
        assert result["policy_lag_max"] is None


class TestOneLoop:
    """The loop blocks once per turn, in ``reap``, and ends on
    ``duration`` or when no actor is left."""

    def test_stalled_actors_return_within_one_reap_of_duration(
            self, monkeypatch):
        waits, wait = [], raylite.wait

        def recording_wait(refs, num_returns=1, timeout=None):
            waits.append(timeout)
            return wait(refs, num_returns=num_returns, timeout=timeout)

        monkeypatch.setattr(raylite, "wait", recording_wait)
        runner = _runner(parallel_spec=None)
        runner.actor_handles = [ScriptedActor([], then="stall")
                                for _ in range(2)]
        start = time.perf_counter()
        result = runner.run(duration=0.3)
        # One wait, for the whole duration: no poll.
        assert len(waits) == 1
        assert 0.25 < waits[0] <= 0.3
        assert time.perf_counter() - start < 0.3 + 0.25
        assert result["learner_updates"] == 0

    def test_only_actor_dying_ends_the_run_early(self):
        learner = StubLearner()
        trained = _recording(learner)
        runner = _runner(learner, parallel_spec=None, batch_size=2)
        runner.actor_handles = [ScriptedActor([0] * 5)]
        result = runner.run(duration=60.0)
        assert result["wall_time"] < 5.0
        # Five rollouts: two batches train, the fifth stays in hand.
        assert trained == [[1, 2], [3, 4]]
        assert result["learner_updates"] == 2
        assert result["supervision_failures"] == []

    def test_in_hand_and_armed_after_every_turn(self, monkeypatch):
        learner = StubLearner()
        trained = _recording(learner)
        turns, yielded = [], []

        class RecordingPump(Pump):
            def reap(self, timeout):
                # A turn has ended when the next one starts to wait.
                turns.append((len(self), len(yielded), len(trained)))
                for pair in super().reap(timeout):
                    yielded.append(pair)
                    yield pair

        monkeypatch.setattr(impala_runner, "Pump", RecordingPump)
        batch_size = 3
        runner = _runner(learner, parallel_spec=None, batch_size=batch_size)
        actors = [ScriptedActor([0] * 9, then="stall",
                                rollout_ids=range(10 * i + 1, 10 * i + 10))
                  for i in range(2)]
        runner.actor_handles = list(actors)
        result = runner.run(duration=0.3)
        turns.append((None, len(yielded), len(trained)))  # the last turn
        # All 18 rollouts arrive, 4 per turn (both actors' two in
        # flight), and 6 batches of 3 train; the last turn waits out
        # the duration on the stalled rollouts.
        assert len(yielded) == 18
        assert result["learner_updates"] == 6
        assert [armed for armed, _, _ in turns[:-1]] == [
            ROLLOUTS_IN_FLIGHT * len(actors)] * (len(turns) - 1)
        in_hand = [got - batch_size * updates for _, got, updates in turns]
        assert all(0 <= n < batch_size for n in in_hand)
        assert in_hand[1:] == [1, 2, 0, 1, 0, 0]
        # Oldest first: a batch never trains a rollout that arrived
        # after one left in hand.
        assert trained[:2] == [[1, 11, 2], [12, 3, 13]]
