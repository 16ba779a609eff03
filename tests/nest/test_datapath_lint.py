"""The door, socket-birth, one-accept-loop and shares-no-manager rules
of ``scripts/lint_datapath.py``."""

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


def test_an_untuned_listener_or_a_second_nodelay_site_is_flagged(tmp_path):
    source = tmp_path / "newd.py"
    source.write_text('''
import socket
from repro.protocols.common import tuned


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


def test_a_second_listener_or_a_polled_accept_is_flagged(tmp_path):
    source = tmp_path / "newd.py"
    source.write_text('''
import socket
from repro.protocols.common import Acceptor, tuned


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
