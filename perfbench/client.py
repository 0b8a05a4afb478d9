"""HTTP/1.1 client for the serve daemon: one-off requests and an open loop.

The daemon answers every request with ``Connection: close``, so each
request uses a fresh connection; the open loop keeps at most
``connections`` of them in flight.  Everything runs on one thread with a
``select`` loop (microsecond timeouts, unlike epoll's milliseconds), so
the generator adds no threads that compete with the daemon for the CPU.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

HOST = "127.0.0.1"


def encode(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def split_response(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(None, 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def request(port: int, method: str, path: str, body: bytes = b"", timeout: float = 30.0) -> tuple[int, bytes]:
    """One blocking request; returns ``(status, body)``."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(encode(method, path, body))
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return split_response(b"".join(chunks))


#: Nice value of the generator while it sends: ahead of the daemon, so it
#: wakes on time; where raising priority is not permitted it runs at 0.
GENERATOR_NICE = -5


@contextlib.contextmanager
def generator_priority():
    """Raise the generator's priority and pause the cyclic GC while it sends."""
    before = os.getpriority(os.PRIO_PROCESS, 0)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        os.setpriority(os.PRIO_PROCESS, 0, GENERATOR_NICE)
    except PermissionError:
        pass
    try:
        yield
    finally:
        os.setpriority(os.PRIO_PROCESS, 0, before)
        if gc_was_enabled:
            gc.enable()


@dataclass
class Stream:
    """Per-request timings (seconds from the stream's zero) and responses."""

    due: list
    noticed: list = field(default_factory=list)
    sent: list = field(default_factory=list)
    done: list = field(default_factory=list)
    status: list = field(default_factory=list)
    body: list = field(default_factory=list)
    #: requests never sent because the backlog exceeded its cap
    dropped: int = 0
    #: wall seconds from the stream's zero to its last completion
    elapsed: float = 0.0
    #: what the sampler returned, once per ``sample_every`` seconds
    samples: list = field(default_factory=list)

    @property
    def completed(self) -> list:
        """Indices of requests that were sent and answered."""
        return [i for i, d in enumerate(self.done) if d is not None]


def open_loop(
    port: int, due, payloads, *, connections: int = 2, max_backlog: int | None = None,
    sampler=None, sample_every: float = 0.01,
) -> Stream:
    """Send ``payloads[i]`` at ``due[i]`` seconds from now, open loop.

    A request waits in the generator's backlog while all connections are
    busy; its latency still counts from its due time.  Once the backlog
    exceeds ``max_backlog`` the rest of the schedule is dropped (never
    sent), so an overloaded rung ends quickly instead of queueing for
    minutes.  ``sampler``, when given, is called every ``sample_every``
    seconds between socket events and its results kept in ``samples``.
    """
    n = len(due)
    out = Stream(due=list(due))
    out.noticed = [None] * n
    out.sent = [None] * n
    out.done = [None] * n
    out.status = [None] * n
    out.body = [None] * n
    sel = selectors.SelectSelector()
    backlog: deque = deque()
    active = 0
    nxt = 0
    addr = (HOST, port)
    t0 = time.perf_counter() + 0.002

    def start(i: int) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex(addr)
        if err not in (0, errno.EINPROGRESS):
            sock.close()
            raise OSError(err, "connect failed")
        out.sent[i] = time.perf_counter() - t0
        sel.register(sock, selectors.EVENT_WRITE, [i, memoryview(payloads[i]), []])

    try:
        with generator_priority():
            t0 = time.perf_counter() + 0.002
            next_sample = 0.0
            while nxt < n or backlog or active:
                now = time.perf_counter() - t0
                if sampler is not None and now >= next_sample:
                    out.samples.append(sampler())
                    next_sample = now + sample_every
                while nxt < n and due[nxt] <= now:
                    out.noticed[nxt] = now
                    backlog.append(nxt)
                    nxt += 1
                if max_backlog is not None and len(backlog) > max_backlog:
                    out.dropped += len(backlog) + (n - nxt)
                    backlog.clear()
                    nxt = n
                while backlog and active < connections:
                    start(backlog.popleft())
                    active += 1
                if nxt < n:
                    timeout = max(0.0, due[nxt] - (time.perf_counter() - t0))
                else:
                    timeout = None
                if sampler is not None:
                    wake = max(0.0, next_sample - (time.perf_counter() - t0))
                    timeout = wake if timeout is None else min(timeout, wake)
                if not active:
                    if timeout:
                        time.sleep(timeout)
                    continue
                for key, _mask in sel.select(timeout):
                    sock, state = key.fileobj, key.data
                    i, pending, chunks = state
                    if pending is not None:
                        try:
                            sent = sock.send(pending)
                        except BlockingIOError:
                            continue
                        except ConnectionError:
                            sent, chunks[:] = len(pending), []
                        state[1] = pending[sent:] if sent < len(pending) else None
                        if state[1] is None:
                            sel.modify(sock, selectors.EVENT_READ, state)
                        continue
                    try:
                        data = sock.recv(65536)
                    except ConnectionError:
                        data, chunks[:] = b"", []  # answered as status 0: a failure
                    if data:
                        chunks.append(data)
                        continue
                    out.done[i] = time.perf_counter() - t0
                    sel.unregister(sock)
                    sock.close()
                    active -= 1
                    out.status[i], out.body[i] = split_response(b"".join(chunks))
            out.elapsed = time.perf_counter() - t0
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    return out
