"""Ownership of every process the benchmark starts.

Each daemon runs in its own session (so its whole process group can be
signalled) and is stopped in a fixed order: ``POST /shutdown``, a bounded
wait, then SIGTERM and finally SIGKILL to the process group.  An
:class:`Owner` holds every live child; :meth:`Owner.close` runs that
sequence for each of them and is called from ``finally`` on normal exit,
on exceptions, and on SIGINT/SIGTERM (both are turned into exceptions by
:func:`install_signal_handlers`).
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time

from perfbench import client

#: How long a daemon gets to drain after ``POST /shutdown``.
SHUTDOWN_WAIT_S = 5.0
#: How long a process group gets after SIGTERM before SIGKILL.
TERM_WAIT_S = 2.0


_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child before exec: SIGKILL it when the benchmark dies.

    Covers the one exit no ``finally`` sees, the benchmark itself being
    killed with SIGKILL.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


class BenchError(Exception):
    """The run cannot produce a valid result (exit non-zero, no result)."""


class Interrupted(Exception):
    """SIGTERM or SIGINT arrived; unwinding runs every cleanup."""


def install_signal_handlers() -> None:
    def handler(signum, _frame):
        raise Interrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


class Child:
    """One started process (its own session and process group)."""

    def __init__(self, argv, *, env, log_path, stdout=subprocess.DEVNULL):
        self.log = open(log_path, "ab")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=self.log,
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        self.pid = self.proc.pid
        self.port: int | None = None

    def alive(self) -> bool:
        return self.proc.poll() is None

    def _killpg(self, sig) -> None:
        try:
            os.killpg(self.pid, sig)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        """Shutdown request, bounded wait, SIGTERM, SIGKILL; always reaps."""
        try:
            if self.alive() and self.port is not None:
                try:
                    client.request(self.port, "POST", "/shutdown", timeout=2.0)
                except OSError:
                    pass
                try:
                    self.proc.wait(SHUTDOWN_WAIT_S)
                except subprocess.TimeoutExpired:
                    pass
            # The group may hold more than the leader; signal it even when
            # the leader already exited.
            self._killpg(signal.SIGTERM)
            try:
                self.proc.wait(TERM_WAIT_S)
            except subprocess.TimeoutExpired:
                pass
            self._killpg(signal.SIGKILL)
            self.proc.wait()
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()


class Owner:
    """Every child of one benchmark run; ``close`` stops them all."""

    def __init__(self, workdir: str, *, fresh: bool = True) -> None:
        self.workdir = workdir
        self.children: list[Child] = []
        # Pids of every child ever started, for the ownership check;
        # ``fresh`` starts a new record, otherwise it is appended to.
        self.pid_log = os.path.join(workdir, "children.pids")
        if fresh:
            open(self.pid_log, "w").close()

    def spawn(self, argv, *, env, name: str, stdout=subprocess.DEVNULL) -> Child:
        child = Child(
            argv, env=env, log_path=os.path.join(self.workdir, f"{name}.log"),
            stdout=stdout,
        )
        self.children.append(child)
        with open(self.pid_log, "a") as fh:
            fh.write(f"{child.pid}\n")
        return child

    def stop(self, child: Child) -> None:
        child.stop()
        self.children.remove(child)

    def close(self) -> None:
        # Signals arriving mid-cleanup must not abandon the remaining
        # children, so they are ignored until every child is reaped.
        previous = {
            s: signal.signal(s, signal.SIG_IGN) for s in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            while self.children:
                child = self.children.pop()
                try:
                    child.stop()
                except Exception as exc:  # noqa: BLE001 - keep stopping the rest
                    print(f"perfbench: stopping pid {child.pid}: {exc}", file=sys.stderr)
        finally:
            for s, h in previous.items():
                signal.signal(s, h)


def spawn_daemon(owner: Owner, argv, *, env, name: str, ready_timeout: float = 60.0) -> tuple[Child, float]:
    """Start a serve daemon; returns it and seconds from spawn to ``/readyz`` 200.

    The daemon prints ``serving on http://HOST:PORT`` once bound; the
    port is read from that line, then ``/readyz`` is polled.
    """
    child = owner.spawn(argv, env=env, name=name, stdout=subprocess.PIPE)
    readable, _, _ = select.select([child.proc.stdout], [], [], ready_timeout)
    line = child.proc.stdout.readline().decode() if readable else ""
    if not line.startswith("serving on"):
        raise BenchError(f"daemon {name} did not start (see {name}.log): {line!r}")
    child.port = int(line.rsplit(":", 1)[1])
    limit = child.t_spawn + ready_timeout
    while True:
        try:
            status, _ = client.request(child.port, "GET", "/readyz", timeout=2.0)
        except OSError:
            status = None
        if status == 200:
            return child, time.perf_counter() - child.t_spawn
        if not child.alive() or time.perf_counter() > limit:
            raise BenchError(f"daemon {name} never became ready (see {name}.log)")
        time.sleep(0.005)
