"""The door, socket-birth, one-accept-loop, shares-no-manager,
one-periodic-loop, one-journal-write-site, one-commit-site,
closed-environment, no-closure-per-event, sleep-without-an-event and
one-undo-site rules of ``scripts/lint_datapath.py``."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "lint_datapath", REPO / "scripts" / "lint_datapath.py")
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


def test_handlers_touch_the_data_path_only_through_the_door():
    handlers = REPO / "src" / "repro" / lint.HANDLERS
    assert lint._door_violations(handlers) == []


def test_a_handler_growing_its_own_copy_is_flagged(tmp_path):
    source = tmp_path / "handlers.py"
    source.write_text('''
class ConnectionHandler:
    def send(self, ticket):
        with ticket:
            self.server.transfers.submit(ticket.stream, self.wfile, 1, "x")
        self.server.graybox.observe_read(ticket.path, 0, 1)

    def finish(self):
        self.ticket.settle(0)


class FtpHandler(ConnectionHandler):
    def cmd_retr(self, arg):
        moved = self.server.transfers.submit(a, b, 1, protocol="ftp").wait()
        self.server.graybox.observe_read(arg, 0, moved)

    def send(self, ticket):  # the door is the base class's, not any send()
        ticket.settle(0)
''')
    flagged = [line.split(": ")[1].split(" ")[0]
               for line in lint._door_violations(source)]
    assert sorted(flagged) == [".observe_read", ".settle", ".settle",
                               ".submit"]


def test_sessions_and_jbos_have_no_door_of_their_own(tmp_path):
    root = REPO / "src" / "repro"
    checked = [path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))
               if path.relative_to(root).as_posix().startswith(lint.DOORLESS)]
    assert {"protocols/ftp.py", "jbos/base.py"} <= set(checked)
    assert [v for rel in checked
            for v in lint._door_violations(root / rel,
                                           lint.DOORS.get(rel))] == []
    # A session that settles its own ticket has no door to hide behind.
    source = tmp_path / "ftp.py"
    source.write_text('''
class FtpSession:
    def cmd_retr(self, arg):
        ticket = self.files.approve_get(self.user, arg)
        self.wfile.write(ticket.stream.read(ticket.size))
        ticket.settle(ticket.size)

    def send(self, ticket):  # a session is not the door either
        ticket.settle(0)
''')
    flagged = [int(line.split(":")[1])
               for line in lint._door_violations(source, None)]
    assert flagged == [6, 9]


def test_jbos_imports_no_nest_manager(tmp_path):
    jbos = REPO / "src" / "repro" / "jbos"
    assert [v for path in sorted(jbos.glob("*.py"))
            for v in lint._manager_imports(path)] == []
    source = tmp_path / "newd.py"
    source.write_text('''
import repro.nest.transfer                      # flagged
from repro.nest import auth, scheduling         # flagged: scheduling
from repro.nest.storage import StorageManager   # flagged
from repro.nest.auth import GSIContext
from repro.protocols.common import StorageError
''')
    flagged = [(int(line.split(":")[1]), line.split("imports ")[1].split()[0])
               for line in lint._manager_imports(source)]
    assert flagged == [(2, "repro.nest.transfer"),
                       (3, "repro.nest.scheduling"),
                       (4, "repro.nest.storage")]


def test_every_socket_in_src_is_tuned_at_birth():
    root = REPO / "src" / "repro"
    assert [v for path in sorted(root.rglob("*.py"))
            for v in lint._socket_violations(
                path, path.relative_to(root).as_posix())] == []
    # Only the runtime may name TCP_NODELAY: the same helper anywhere
    # else (the request interface included) is a second tuning site.
    tuner = root / lint.TUNER_FILE
    assert [line.split(": ")[1].split(" ")[0]
            for line in lint._socket_violations(
                tuner, "protocols/common.py")] == ["TCP_NODELAY"]


def test_an_untuned_listener_or_a_second_nodelay_site_is_flagged(tmp_path):
    source = tmp_path / "newd.py"
    source.write_text('''
import socket
from repro.protocols.runtime import tuned


def accept_loop(listener):
    conn, addr = listener.accept()          # flagged: never tuned
    return conn


def dial(host, port):
    def inner():
        return socket.create_connection((host, port))  # flagged
    return tuned(inner())                   # the wrong function tunes


def good_accept(listener, gsi):
    conn, _ = listener.accept()
    gsi.accept(b"cert", b"challenge", b"response")  # not a socket
    return tuned(conn)


def good_dial(address):
    return tuned(socket.create_connection(address, timeout=5))


def own_tuning(sock):
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # flagged
''')
    flagged = [(int(line.split(":")[1]), line.split(": ")[1].split(" ")[0])
               for line in lint._socket_violations(source, "newd.py")]
    assert flagged == [(7, "accept()"), (13, "create_connection()"),
                       (28, "TCP_NODELAY")]


def test_src_has_one_accept_loop():
    root = REPO / "src" / "repro"
    assert [v for path in sorted(root.rglob("*.py"))
            for v in lint._listener_violations(
                path, path.relative_to(root).as_posix())] == []
    # Acceptor.listen is exempt in the runtime only.
    runtime = root / "protocols" / "runtime.py"
    assert [line.split(": ")[1].split(" ")[0]
            for line in lint._listener_violations(
                runtime, "protocols/common.py")] == ["create_server()"]


def test_a_second_listener_or_a_polled_accept_is_flagged(tmp_path):
    source = tmp_path / "newd.py"
    source.write_text('''
import socket
from repro.protocols.runtime import Acceptor, tuned


class Daemon:
    def start(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(32)                 # flagged: its own listener
        listener.settimeout(0.2)
        self.listener = listener

    def loop(self):
        while self.running:
            try:
                conn, _ = self.listener.accept()    # flagged: polls a flag
            except socket.timeout:
                continue
            tuned(conn)

    def also_start(self):
        self.listener = socket.create_server(("127.0.0.1", 0))  # flagged

    def good_start(self):
        self.acceptor = Acceptor("newd")
        self.port = self.acceptor.listen("127.0.0.1", 0, self.serve)

    def accept_once(self, listener):
        listener.settimeout(5.0)
        try:
            conn, _ = listener.accept()     # one shot: a timeout ends it
        except TimeoutError:
            return None
        return tuned(conn)
''')
    flagged = sorted(
        (int(line.split(":")[1]), line.split(": ")[1].split(" ")[0])
        for line in lint._listener_violations(source, "newd.py"))
    assert flagged == [(10, "listen()"), (17, "accept()"),
                       (23, "create_server()")]


def test_src_has_one_periodic_loop():
    root = REPO / "src" / "repro"
    assert [v for path in sorted(root.rglob("*.py"))
            for v in lint._loop_violations(
                path, path.relative_to(root).as_posix())] == []
    runtime = root / lint.LOOP_FILE
    assert lint._loop_violations(runtime, "periodic.py")  # the one, moved
    # The request interface is not the runtime: back in common.py the
    # loop would be flagged too.
    assert lint._loop_violations(runtime, "protocols/common.py")


def test_a_second_periodic_loop_is_flagged(tmp_path):
    source = tmp_path / "scanner.py"
    source.write_text('''
import threading
from repro.protocols.runtime import Periodic


class Scanner:
    def start(self):
        def loop():
            while not self._stop.wait(self.interval):   # flagged
                self.scan_once()
        threading.Thread(target=loop, daemon=True).start()

    def beat(self, stop):
        while not stop.wait(1.0):                       # flagged
            self.publish()

    def good_start(self):
        self.loop = Periodic("scanner", 30.0, self.scan_once).start()

    def drain(self, done):
        while not done.is_set():                        # not a wait
            done.wait()


class Periodic:
    def _run(self, wake, interval):
        while not wake.wait(interval):                  # wrong file
            self._fn()
''')
    flagged = [int(line.split(":")[1])
               for line in lint._loop_violations(source, "scanner.py")]
    assert sorted(flagged) == [9, 14, 27]


def test_the_journal_file_has_one_write_site():
    root = REPO / "src" / "repro"
    journal = root / lint.JOURNAL_FILE
    assert lint._journal_violations(journal, lint.JOURNAL_FILE) == []


def test_a_second_journal_write_path_is_flagged(tmp_path):
    source = tmp_path / "journal.py"
    source.write_text('''
import os


class MetadataJournal:
    def append(self, rtype, fields):
        line = self._frame(rtype, fields)
        self._file.write(line)                          # flagged
        self._do_fsync()                                # flagged

    def _flush_batch(self, batch):
        self._file.write(b"".join(batch))
        self._do_fsync()

    def _faulty_write(self, rule, line):
        self._file.write(line[:1])
        self._do_fsync()

    def _do_fsync(self):
        os.fsync(self._file.fileno())


class Replayer:
    def _flush_batch(self, batch):
        self._file.write(batch)                         # wrong class
''')
    flagged = sorted(
        int(line.split(":")[1])
        for line in lint._journal_violations(source, lint.JOURNAL_FILE))
    assert flagged == [8, 9, 25]
    assert lint._journal_violations(source, "durability/snapshot.py") == []


def test_each_journaled_component_has_one_commit_site():
    root = REPO / "src" / "repro"
    for rel in lint.COMMIT_SITES:
        assert lint._commit_violations(root / rel, rel) == []


def test_a_second_commit_site_is_flagged(tmp_path):
    storage = tmp_path / "storage.py"
    storage.write_text('''
class StorageManager:
    def set_journal(self, journal):
        self.lots.journal = self._emit                  # not a call

    def _reclaim_file(self, path):
        try:
            self._commit("file_reclaim", path=path)
        except StorageError:
            self._emit("file_reclaim", path=path)       # flagged

    def _commit(self, rtype, **fields):
        self.apply_record({"type": rtype, **fields})
        self._emit(rtype, **fields)
''')
    tier = tmp_path / "store.py"
    tier.write_text('''
class TieredStore:
    def _set_state(self, path, state):
        if self.journal is not None:
            self.journal("tier_state", path=path, state=state)  # flagged
        self.residency[path] = state

    def _commit(self, rtype, **fields):
        self.apply_record({"type": rtype, **fields})
        if self.journal is not None:
            self.journal(rtype, **fields)


class Mirror:
    def _commit(self, rtype, **fields):
        self.journal(rtype, **fields)                   # wrong class
''')
    flagged = [
        (rel, int(line.split(":")[1]))
        for source, rel in ((storage, "nest/storage.py"),
                            (tier, "tier/store.py"))
        for line in lint._commit_violations(source, rel)]
    assert sorted(flagged) == [("nest/storage.py", 10),
                               ("tier/store.py", 5), ("tier/store.py", 16)]
    assert lint._commit_violations(tier, "tier/demo.py") == []


def test_every_environment_in_src_is_closed_by_a_with():
    root = REPO / "src" / "repro"
    checked = [path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))]
    assert {"bench/fig6.py", "simnest/workload.py"} <= set(checked)
    assert [v for rel in checked
            for v in lint._environment_violations(root / rel, rel)] == []


def test_a_bare_environment_is_flagged(tmp_path):
    source = tmp_path / "figx.py"
    source.write_text('''
from repro import sim
from repro.sim.core import Environment


def measure():
    env = Environment()                                 # flagged
    return run(env)


def measure_twice():
    with Environment() as env, sim.Environment() as other:
        return run(env) + run(other)


def helper():
    return run(sim.Environment(initial_time=5.0))       # flagged
''')
    flagged = [int(line.split(":")[1])
               for line in lint._environment_violations(source, "bench/figx.py")]
    assert flagged == [7, 17]
    assert lint._environment_violations(source, "sim/core.py") == []


def test_snapshots_are_taken_only_at_op_exit_close_and_recovery():
    root = REPO / "src" / "repro"
    for rel in ("durability/manager.py", "durability/recovery.py",
                "nest/storage.py"):
        assert lint._snapshot_violations(root / rel, rel) == []


def test_a_snapshot_inside_wait_durable_is_flagged(tmp_path):
    source = tmp_path / "manager.py"
    source.write_text('''
class DurabilityManager:
    def wait_durable(self, seq):
        self.journal.wait_durable(seq)
        if self._since_snapshot >= self.snapshot_every:
            self.snapshot()                             # flagged

    def after_op(self):
        self.snapshot()

    def close(self, *, snapshot=True):
        if snapshot:
            self.snapshot()

    def recover_into(self, storage):
        self.snapshot()
''')
    flagged = [int(line.split(":")[1]) for line in
               lint._snapshot_violations(source, "durability/manager.py")]
    assert flagged == [6]
    assert lint._snapshot_violations(source, "nest/storage.py") != []
    assert lint._snapshot_violations(source, "tier/store.py") == []


def test_the_simulator_appends_no_closure_per_event():
    root = REPO / "src" / "repro"
    checked = [path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))]
    assert {"models/network.py", "simnest/gate.py"} <= set(checked)
    assert [v for rel in checked
            for v in lint._callback_violations(root / rel, rel)] == []


def test_a_lambda_callback_is_flagged(tmp_path):
    source = tmp_path / "link.py"
    source.write_text('''
class Link:
    def arm(self, env, generation):
        wake = env.timeout(1.0)
        wake.callbacks.append(lambda _ev: self.wake(generation))   # flagged
        other = env.timeout(2.0)
        other.callbacks.append(self.wake)

    def grant(self, env, ev):
        delay = env.timeout(1.0)
        delay.callbacks.append(lambda _e, target=ev: target.succeed())  # flagged
        env.schedule(ev, env.now + 1.0)
''')
    flagged = [int(line.split(":")[1])
               for line in lint._callback_violations(source, "models/link.py")]
    assert flagged == [5, 11]
    assert lint._callback_violations(source, "simnest/link.py") != []
    assert lint._callback_violations(source, "nest/link.py") == []


def test_the_simulator_processes_sleep_without_an_event():
    root = REPO / "src" / "repro"
    checked = [path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))]
    assert {"models/disk.py", "simnest/server.py"} <= set(checked)
    assert [v for rel in checked
            for v in lint._sleep_violations(root / rel, rel)] == []


def test_a_yielded_timeout_is_flagged(tmp_path):
    source = tmp_path / "disk.py"
    source.write_text('''
class Disk:
    def io(self, env, nbytes):
        yield env.timeout(self.seek)                          # flagged
        yield self.env.timeout_chain((self.seek, nbytes))     # flagged
        yield (
            self.env.timeout(nbytes / self.bw))               # flagged
        yield self.seek
        yield (self.seek, nbytes / self.bw)
        wake = env.timeout(1.0)
        wake.callbacks.append(self.on_wake)
        yield wake
''')
    flagged = [int(line.split(":")[1])
               for line in lint._sleep_violations(source, "models/disk.py")]
    assert flagged == [4, 5, 6]
    assert lint._sleep_violations(source, "simnest/disk.py") != []
    assert lint._sleep_violations(source, "sim/disk.py") == []
    assert lint._sleep_violations(source, "nest/disk.py") == []


def test_a_failed_flush_is_undone_in_one_place():
    root = REPO / "src" / "repro"
    for rel in lint.UNDO_FILES:
        assert lint._undo_violations(root / rel, rel) == []


def test_a_hand_written_undo_is_flagged(tmp_path):
    source = tmp_path / "storage.py"
    source.write_text('''
class StorageManager:
    def delete(self, user, path):
        try:
            self._commit("delete", path=path)           # flagged
            self._await_durable()                       # flagged
        except StorageError:
            self.lots.set_charges(path, charges)
            raise

    def rename(self, user, path, new_path):
        try:
            self._await_durable()                       # flagged
        except (OSError, errors.StorageError):
            raise

    def _settle_put(self, path, staged):
        try:
            self._commit_put(path, staged)
        except StorageError:
            self.store.delete(staged)
            raise
        try:
            self._commit("mkdir", path=path)
        except AclError:
            raise
''')
    flagged = [int(line.split(":")[1])
               for line in lint._undo_violations(source, "nest/storage.py")]
    assert flagged == [5, 6, 13]
    assert lint._undo_violations(source, "nest/backends.py") == []
