"""Units for the two new subsystems: FaultPlan and RetryPolicy.

The plan must be deterministic (same seed, same faults) and honest
(every fired fault is recorded); the policy must respect idempotency,
deadlines, and the typed-error taxonomy.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client.errors import (
    ClientError,
    FatalError,
    RetryExhaustedError,
    TransientError,
    is_transient,
)
from repro.client.ftp import FtpError
from repro.client.retry import NO_RETRY, RetryPolicy
from repro.faults import (
    FaultAction,
    FaultInjected,
    FaultPlan,
    FaultRule,
)
from repro.protocols.common import ProtocolError


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------
class TestFaultPlanWiring:
    def test_each_wrap_consumes_one_ordinal(self):
        plan = FaultPlan()
        a, b = socket.socketpair()
        try:
            w1 = plan.wrap_socket(a)
            w2 = plan.wrap_socket(b)
            assert (w1.conn, w2.conn) == (1, 2)
        finally:
            a.close()
            b.close()

    def test_reset_fires_on_matching_connection_only(self):
        plan = FaultPlan.reset_once(connection=2, op="write")
        pairs = [socket.socketpair() for _ in range(2)]
        try:
            first = plan.wrap_socket(pairs[0][0])
            second = plan.wrap_socket(pairs[1][0])
            first.sendall(b"fine")  # connection 1: untouched
            with pytest.raises(FaultInjected):
                second.sendall(b"doomed")
            assert [e.conn for e in plan.events] == [2]
            assert plan.fired(FaultAction.RESET) == 1
        finally:
            for x, y in pairs:
                x.close()
                y.close()

    def test_reset_is_a_real_connection_reset_error(self):
        assert issubclass(FaultInjected, ConnectionResetError)

    def test_short_read_forces_clean_eof_after_threshold(self):
        plan = FaultPlan([FaultRule(op="write", action=FaultAction.SHORT,
                                    after_bytes=4)])
        a, b = socket.socketpair()
        try:
            writer = plan.wrap_socket(a)
            writer.sendall(b"data")  # 4 bytes through
            with pytest.raises(FaultInjected):
                writer.sendall(b"more")  # writer learns the stream died
            # The peer sees a short stream ending in clean EOF.
            b.settimeout(5)
            assert b.recv(100) == b"data"
            assert b.recv(100) == b""
        finally:
            b.close()

    def test_after_bytes_threshold_counts_stream_writes(self):
        plan = FaultPlan([FaultRule(op="write", action=FaultAction.RESET,
                                    after_bytes=10)])
        a, b = socket.socketpair()
        try:
            stream = plan.wrap_socket(a).makefile("wb")
            stream.write(b"12345")  # 5 moved: below threshold
            stream.write(b"67890")  # 10 moved: still below before this
            with pytest.raises(FaultInjected):
                stream.write(b"x")  # moved >= 10: fires
        finally:
            a.close()
            b.close()

    def test_readinto_is_guarded_and_accounted_like_read(self):
        """The pooled pump reads wrapped streams through ``readinto``:
        same guard, same byte accounting, so a threshold that falls in
        the middle of a buffer fires on the next call -- at the offset
        ``read`` reports -- and a SHORT reads as EOF."""
        def third_pull(action, pull):
            plan = FaultPlan([FaultRule(op="read", action=action,
                                        after_bytes=10)])
            a, b = socket.socketpair()
            try:
                b.sendall(b"0123456789abcdef")
                fsock = plan.wrap_socket(a)
                stream = fsock.makefile("rb")
                assert pull(stream) == b"01234567"  # 8 moved
                assert pull(stream) == b"89abcdef"  # threshold mid-buffer
                assert plan.events == []
                try:
                    last = pull(stream)             # 16 >= 10: fires
                except FaultInjected:
                    last = "reset"
                assert fsock._moved["read"] == 16
                return last, [(e.op, e.action, e.at_bytes)
                              for e in plan.events]
            finally:
                a.close()
                b.close()

        def readinto(stream):
            buf = bytearray(8)
            return bytes(buf[:stream.readinto(buf)])

        def read(stream):
            return stream.read(8)

        for action, last in ((FaultAction.RESET, "reset"),
                             (FaultAction.SHORT, b"")):
            expected = (last, [("read", action, 16)])
            assert third_pull(action, readinto) == expected
            assert third_pull(action, read) == expected

    def test_accept_fault_closes_socket_and_returns_none(self):
        plan = FaultPlan.fail_accept(count=1)
        a, b = socket.socketpair()
        try:
            assert plan.wrap_accept(a) is None
            assert a.fileno() == -1  # closed by the plan
            wrapped = plan.wrap_accept(b)
            assert wrapped is not None and wrapped.conn == 2
        finally:
            b.close()

    def test_connect_fault_raises_without_dialling(self):
        plan = FaultPlan.fail_connect(count=1)
        dialled = []

        def dial():
            dialled.append(True)

        with pytest.raises(FaultInjected):
            plan.wrap_connect(dial)
        assert dialled == []  # the dial itself never ran

    def test_stall_sleeps_then_proceeds(self):
        naps = []
        plan = FaultPlan([FaultRule(op="write", action=FaultAction.STALL,
                                    stall_seconds=3.5)],
                         sleep=naps.append)
        a, b = socket.socketpair()
        try:
            plan.wrap_socket(a).sendall(b"after the stall")
            assert naps == [3.5]
            assert plan.fired(FaultAction.STALL) == 1
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("end", ["close", "shutdown"])
    def test_closing_the_socket_ends_a_stall_in_progress(self, end):
        """A handler frozen by a STALL used to sleep it out in full
        after its socket was force-closed, holding a drain for the
        whole stall."""
        plan = FaultPlan.stall(seconds=30.0, op="write")
        a, b = socket.socketpair()
        stalled = plan.wrap_socket(a)

        def victim():
            try:
                stalled.sendall(b"after the stall")
            except OSError:
                pass  # the write may meet the dead socket

        thread = threading.Thread(target=victim, daemon=True)
        try:
            thread.start()
            deadline = time.monotonic() + 5.0
            while not plan.fired(FaultAction.STALL):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            began = time.monotonic()
            if end == "close":
                stalled.close()
            else:
                stalled.shutdown(socket.SHUT_RDWR)
            thread.join(5.0)
            assert not thread.is_alive()
            assert time.monotonic() - began < 0.2
        finally:
            a.close()
            b.close()

    def test_probabilistic_rules_are_reproducible_per_seed(self):
        def run(seed: int) -> list[int]:
            plan = FaultPlan([FaultRule(op="write",
                                        action=FaultAction.RESET,
                                        probability=0.5, times=None)],
                             seed=seed)
            outcomes = []
            for _ in range(8):
                a, b = socket.socketpair()
                try:
                    wrapped = plan.wrap_socket(a)
                    try:
                        wrapped.sendall(b"x")
                        outcomes.append(0)
                    except FaultInjected:
                        outcomes.append(1)
                finally:
                    a.close()
                    b.close()
            return outcomes

        assert run(7) == run(7)
        assert 0 < sum(run(7)) < 8  # the coin actually flips

    def test_describe_is_json_able_summary(self):
        plan = FaultPlan.reset_once(after_bytes=100)
        info = plan.describe()
        assert info["seed"] == 0 and info["events"] == 0
        assert info["rules"][0]["action"] == FaultAction.RESET
        assert info["rules"][0]["after_bytes"] == 100

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(op="teleport", action=FaultAction.RESET)
        with pytest.raises(ValueError):
            FaultRule(op="read", action="explode")


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_wire_failures_are_transient(self):
        for exc in (ConnectionResetError(), socket.timeout(), EOFError(),
                    ProtocolError("eof"), OSError("unreachable"),
                    TransientError("x")):
            assert is_transient(exc), exc

    def test_server_refusals_are_fatal(self):
        assert not is_transient(FatalError("no"))
        assert not is_transient(ValueError("bug"))

    def test_ftp_codes_split_transient_and_permanent(self):
        assert is_transient(FtpError(426, "connection closed"))
        assert is_transient(FtpError(450, "try again"))
        assert not is_transient(FtpError(550, "no such file"))
        assert not is_transient(FtpError(530, "not logged in"))

    def test_retry_exhausted_is_itself_transient_and_typed(self):
        exc = RetryExhaustedError("gone", attempts=3, last=OSError())
        assert isinstance(exc, TransientError)
        assert isinstance(exc, ClientError)
        assert exc.attempts == 3


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def _policy(self, **kw) -> RetryPolicy:
        naps = []
        kwargs = dict(max_attempts=3, base_delay=0.1, multiplier=2.0,
                      max_delay=10.0, jitter=0.0, deadline=None,
                      sleep=naps.append)
        kwargs.update(kw)
        policy = RetryPolicy(**kwargs)
        policy.naps = naps  # type: ignore[attr-defined]
        return policy

    def test_transient_failures_retry_then_succeed(self):
        policy = self._policy()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionResetError("blip")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert policy.naps == [0.1, 0.2]  # geometric, unjittered

    def test_reset_runs_between_attempts(self):
        policy = self._policy(max_attempts=2)
        resets = []

        def failing():
            raise ConnectionResetError()

        with pytest.raises(RetryExhaustedError) as info:
            policy.call(failing, reset=lambda: resets.append(1))
        assert len(resets) == 2  # torn down after every failed attempt
        assert info.value.attempts == 2
        assert isinstance(info.value.last, ConnectionResetError)

    def test_fatal_errors_never_retry(self):
        policy = self._policy()
        attempts = []

        def refused():
            attempts.append(1)
            raise FatalError("permission denied")

        with pytest.raises(FatalError):
            policy.call(refused)
        assert len(attempts) == 1

    def test_non_idempotent_transient_raises_typed_immediately(self):
        policy = self._policy()
        attempts = []

        def append_op():
            attempts.append(1)
            raise ConnectionResetError()

        with pytest.raises(TransientError, match="not idempotent"):
            policy.call(append_op, idempotent=False)
        assert len(attempts) == 1
        assert policy.naps == []

    def test_retry_non_idempotent_opt_in(self):
        policy = self._policy(retry_non_idempotent=True)
        attempts = []

        def append_op():
            attempts.append(1)
            if len(attempts) < 2:
                raise ConnectionResetError()
            return "applied"

        assert policy.call(append_op, idempotent=False) == "applied"
        assert len(attempts) == 2

    def test_deadline_cuts_the_schedule_short(self):
        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            clock["now"] += seconds

        policy = RetryPolicy(max_attempts=100, base_delay=1.0,
                             multiplier=1.0, jitter=0.0, deadline=2.5,
                             clock=fake_clock, sleep=fake_sleep)

        def failing():
            raise ConnectionResetError()

        with pytest.raises(RetryExhaustedError, match="deadline"):
            policy.call(failing)
        assert clock["now"] <= 2.5  # never slept past the deadline

    def test_backoff_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=3, jitter=0.5)
        b = RetryPolicy(seed=3, jitter=0.5)
        assert [a.backoff(i) for i in range(1, 5)] == \
               [b.backoff(i) for i in range(1, 5)]

    def test_backoff_caps_at_max_delay(self):
        policy = self._policy(jitter=0.0, base_delay=1.0, max_delay=3.0)
        assert policy.backoff(10) == 3.0

    def test_no_retry_policy_is_single_shot(self):
        attempts = []

        def failing():
            attempts.append(1)
            raise ConnectionResetError()

        with pytest.raises(RetryExhaustedError):
            NO_RETRY.call(failing)
        assert len(attempts) == 1

    def test_keyboard_interrupt_passes_through(self):
        policy = self._policy()

        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            policy.call(interrupted)
