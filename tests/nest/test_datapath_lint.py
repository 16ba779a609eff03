"""The door rule of ``scripts/lint_datapath.py``."""

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
