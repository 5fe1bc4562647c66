"""IMPALA process-mode feeder and driver pool width, on fake actors.

The feeder (``IMPALARunner._feed_from_handles``) is driven against
in-memory stand-ins for raylite process actors: a FIFO mailbox the test
(or a worker thread) runs one task at a time, so mailbox order, weight
pushes and versions are observable without spawning a process.  A
runner built with ``num_actors=0`` spawns nothing; the fakes are
installed as its ``actor_handles`` / ``actors``.
"""

import collections
import threading
import time

import numpy as np
import pytest

from repro import raylite
from repro.execution import impala_runner
from repro.execution.impala_runner import ROLLOUTS_IN_FLIGHT, IMPALARunner
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
        """Run the feeder against one mailbox actor for ``replies``
        rollouts; ``publish_before`` lists, per publish, the reply it
        precedes."""
        runner = _runner()
        actor = MailboxActor()
        runner.actor_handles = [actor]
        feeder = threading.Thread(target=runner._feed_from_handles,
                                  daemon=True)
        feeder.start()
        try:
            wait_until(lambda: actor.queued("rollout") == ROLLOUTS_IN_FLIGHT)
            for k in range(replies):
                for _ in range(list(publish_before).count(k)):
                    runner._publish_weights()
                while actor.step() != "rollout":
                    pass  # weight pushes queued ahead of the rollout
                wait_until(lambda: runner.rollout_queue.qsize() == k + 1
                           and actor.queued("rollout")
                           == ROLLOUTS_IN_FLIGHT)
        finally:
            runner.stop_event.set()
            feeder.join(timeout=5.0)
        assert not feeder.is_alive()
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
            runner._publish_weights()
        actor = MailboxActor()
        runner._sync_restarted_actor(actor)
        assert actor.pushes == [(3, 0)]
        actor.step()
        assert actor.version == 3


class _ThreadActor(threading.Thread):
    """Thread-mode actor stand-in: fills the queue until stopped."""

    def __init__(self, rollout_queue, stop_event):
        super().__init__(daemon=True)
        self.rollout_queue, self.stop_event = rollout_queue, stop_event
        self.env_frames = 0

    def run(self):
        while not self.stop_event.is_set():
            self.rollout_queue.put(_rollout(0))
            self.env_frames += 2
            time.sleep(0.002)


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
        runner.actors = [_ThreadActor(runner.rollout_queue,
                                      runner.stop_event)]
        result = runner.run(duration=0.3)
        assert result["learner_updates"] > 0
        assert all(seen == pools for seen in learner.widths_seen)


class TestPolicyLag:
    def test_lag_counts_versions_between_acting_and_training(self):
        runner = _runner(StubLearner(), parallel_spec=None, batch_size=2)
        for version in (0, 0, 1, 0):   # the versions actors acted with
            runner.rollout_queue.put(_rollout(version))
        dequeue, batches = runner._dequeue_batch, []

        def two_batches():
            if len(batches) == 2:
                return None
            batches.append(dequeue())
            return batches[-1]

        runner._dequeue_batch = two_batches
        result = runner.run(duration=0.2)
        assert result["learner_updates"] == 2
        # Update 1 (learner at version 0) trains the fresh first batch:
        # lags 0, 0.  Update 2 (at version 1) trains the staged first
        # batch again: lags 1, 1.
        assert result["policy_lag_mean"] == pytest.approx(0.5)
        assert result["policy_lag_max"] == 1

    def test_no_training_no_lag(self):
        runner = _runner(StubLearner(), parallel_spec=None)
        runner.actors = [_ThreadActor(runner.rollout_queue,
                                      runner.stop_event)]
        result = runner.run(duration=0.2, updates_enabled=False)
        assert result["policy_lag_mean"] is None
        assert result["policy_lag_max"] is None
