"""Hostile peers on the hub wire: malformed, truncated and over-long
lines, a peer that never reads its replies, and a disconnect during
``cont``.  Through all of it other connections keep getting answers, the
session survives and re-attaches by sid, and closing the hub leaves no
thread or session behind."""

import json
import select
import socket
import threading
import time

import repro
from repro.hub import DebugHub, HubClient
from repro.hub.server import MAX_REQUEST_LINE
from tests.helpers import Counter, line_of

HELLO = b'{"id": 1, "method": "hello", "params": {}}\n'


def _replies(sock, lines: list[bytes]) -> list[dict]:
    """Send each line and read its one reply."""
    with sock.makefile("rb") as f:
        out = []
        for line in lines:
            sock.sendall(line)
            reply = f.readline()
            assert reply, f"connection closed after {line!r}"
            out.append(json.loads(reply))
        return out


def _flood_until_stalled(sock, seconds: float = 20.0) -> bool:
    """Send requests without reading a reply until the hub stops reading
    them (its thread is blocked writing replies nobody reads)."""
    sock.setblocking(False)
    burst = HELLO * 256
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            sock.send(burst)
        except BlockingIOError:
            if not select.select([], [sock], [], 0.5)[1]:
                return True
    return False


def _closed_while_sending(sock, total: int = 16 << 20) -> bool:
    """Send one line with no newline, up to ``total`` bytes: True once
    the hub has closed the connection, False if it keeps it open."""
    chunk = b"x" * (64 << 10)
    try:
        for _ in range(total // len(chunk)):
            sock.sendall(chunk)
        sock.recv(1 << 16)  # the error reply, the end of the stream, or a reset
    except TimeoutError:
        return False  # the hub neither reads nor answers
    except ConnectionError:
        pass  # a reset: the hub closed with the rest of the line unread
    return True


def _until(predicate, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_hostile_peers_leave_the_hub_serving():
    before = set(threading.enumerate())
    design = repro.compile(Counter())
    _f, line = line_of(design, "count")
    hub = DebugHub(design)
    host, port = hub.serve_background()
    good = HubClient(host, port, timeout=5)
    raw = []

    def connect(buffer: int | None = None) -> socket.socket:
        sock = socket.socket()
        if buffer is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer)
        sock.settimeout(5)
        sock.connect((host, port))
        raw.append(sock)
        return sock

    try:
        session = good.attach(name="survivor")
        session.poke("en", 1)
        session.reset(1)
        bp = session.add_breakpoint("helpers.py", line)[0]
        stop = session.run(10**9)
        assert stop.reason == "breakpoint"

        # Malformed lines: each is answered with an error, and the
        # connection keeps serving.
        bad = [
            b"{not json\n",
            b"\xff\xfe\x00\n",
            b"[1, 2, 3]\n",
            b"\n",
            b'{"id": 5, "method": "attach", "params": [1]}\n',
            b'{"id": 6, "method": "attach", "params": {"protocol": 2, '
            b'"bogus": 1}}\n',
            b'{"id": 7, "method": "s.cont", "params": {}}\n',
            b'{"id": {"__type__": "Nope"}}\n',
        ]
        replies = _replies(connect(), [*bad, HELLO])
        assert all("error" in r for r in replies[:-1])
        assert [r["id"] for r in replies[4:7]] == [5, 6, 7]
        assert replies[-1]["result"]["sessions"] == 1
        assert good.hello()["sessions"] == 1

        # Truncated lines: a half-closed request is answered as malformed
        # and the stream ends; an abrupt close mid-line costs nothing.
        cut = connect()
        cut.sendall(HELLO[:20])
        cut.shutdown(socket.SHUT_WR)
        with cut.makefile("rb") as f:
            assert json.loads(f.readline())["id"] is None
            assert f.readline() == b""
        connect().sendall(b'{"id": 9, "method": "s.ru')
        raw.pop().close()
        assert good.hello()["sessions"] == 1

        # An over-long line: the hub reads no more of it than the cap,
        # answers one error with a null id and closes the connection,
        # whether the peer stops past the cap or keeps sending.
        long = connect()
        long.sendall(b"x" * (MAX_REQUEST_LINE + 1))
        with long.makefile("rb") as f:
            reply = json.loads(f.readline())
            assert (reply["id"], reply["kind"]) == (None, "HubError")
            assert f.readline() == b""
        assert _closed_while_sending(connect())
        assert good.hello()["sessions"] == 1

        # A peer that sends requests but never reads its replies stalls
        # only its own connection.
        flood = connect(buffer=4096)
        assert _flood_until_stalled(flood)
        assert session.get_time() == stop.time
        assert good.hello()["sessions"] == 1

        # A disconnect during cont: the run goes on without its client, a
        # new connection re-attaches by sid and stops it, and the session
        # steps on from there.
        session.remove_breakpoint(bp["id"])
        quitter = connect()
        attach = {"protocol": 2, "sid": session.sid}
        quitter.sendall(
            json.dumps({"id": 1, "method": "attach", "params": attach}).encode()
            + b"\n"
        )
        quitter.sendall(b'{"id": 2, "method": "s.cont", "params": {}}\n')
        _until(lambda: hub.list_sessions()[0]["state"] == "running")
        raw.remove(quitter)
        quitter.close()
        with HubClient(host, port, timeout=5) as rescuer:
            again = rescuer.attach(sid=session.sid)
            assert again.name == "survivor"
            t0 = again.get_time()
            _until(lambda: again.get_time() > t0)
            again.pause()
            _until(lambda: hub.list_sessions()[0]["state"] == "stopped")
            paused = again.get_time()
            stepped = again.step()
            assert stepped.reason == "breakpoint"
            assert stepped.time >= paused
        assert good.hello()["sessions"] == 1

        closer = threading.Thread(target=hub.close)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "hub.close() took over 10 s"
    finally:
        for sock in raw:
            sock.close()
        good.close()
        hub.close()
    assert hub.session_count == 0
    _until(lambda: set(threading.enumerate()) <= before, seconds=5)
