"""Child processes forked from this one, each joined to it by two pipes.

run_scenario's sweep workers and evolve's fitness helper share this one
lifecycle. A child is a plain os.fork: it starts with this process's
imports and data instead of importing qvpn again, and qvpn runs no threads
that a fork could cut off. Messages are pickles, written one after another
to a pipe each way. This process flushes stdout and stderr before each
fork; a child flushes its own and leaves through os._exit, so no exit
handler and no inherited buffer runs twice. A child exits with code 0 when
its target returns and 1 when it raises (its traceback goes to stderr);
one killed by a signal is reported, as by multiprocessing, with minus the
signal's number.
"""

from __future__ import annotations

import os
import pickle
import sys

_in_child = False  # set in every child this module forks


def can_fork() -> bool:
    """Whether this process may fork children: the platform has os.fork,
    and this process is neither a child of this module nor a
    multiprocessing child, so that forks never nest (a sweep worker runs
    its GA serially). multiprocessing is only asked if it is loaded."""
    mp = sys.modules.get("multiprocessing")
    return (hasattr(os, "fork") and not _in_child
            and (mp is None or mp.parent_process() is None))


class Channel:
    """One end of a two-way link: pickles out through one pipe, in
    through another."""

    def __init__(self, read_fd: int, write_fd: int):
        self._in = os.fdopen(read_fd, "rb")
        self._out = os.fdopen(write_fd, "wb")

    def send(self, obj) -> None:
        pickle.dump(obj, self._out, pickle.HIGHEST_PROTOCOL)
        self._out.flush()

    def recv(self):
        return pickle.load(self._in)

    def close(self) -> None:
        self._in.close()
        try:
            self._out.close()
        except BrokenPipeError:
            pass  # the reader is gone, and with it what a failed send left buffered


class Child:
    """One forked child and this process's end of its link."""

    def __init__(self, name: str, pid: int, channel: Channel):
        self.name = name
        self.pid = pid
        self.channel = channel
        self.exitcode = None  # set once the child is reaped

    def send(self, obj) -> None:
        try:
            self.channel.send(obj)
        except BrokenPipeError:
            raise self._died() from None

    def recv(self):
        try:
            return self.channel.recv()
        except (EOFError, pickle.UnpicklingError):  # none or part of a reply
            raise self._died() from None

    def wait(self) -> int:
        """The child's exit code, once it has ended."""
        if self.exitcode is None:
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exitcode

    def _died(self):
        return RuntimeError(f"{self.name} exited with code {self.wait()} before replying")


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _run_child(target, args) -> None:
    """A child's whole life: target(*args), then os._exit."""
    global _in_child
    _in_child = True
    code = 1
    try:
        target(*args)
        code = 0
    except BaseException:  # the child ends below, whatever it raised
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            _flush_std_streams()
        finally:  # even if stdout is a broken pipe, the child must not return
            os._exit(code)


class Forks:
    """A with block that no child started through it outlives.

    On an exception every child still unreaped is sent SIGTERM; on any exit
    the links are closed and every child is reaped. A child that ends
    before it replies makes send or recv raise a RuntimeError naming its
    exit code.
    """

    def __init__(self):
        self._children = []

    def start(self, name, target, *args) -> Child:
        """Fork a child that runs target(*args, conn), conn being its
        Channel to this process."""
        down_read, down_write = os.pipe()
        up_read, up_write = os.pipe()
        _flush_std_streams()
        try:
            pid = os.fork()
        except OSError:
            for fd in (down_read, down_write, up_read, up_write):
                os.close(fd)
            raise
        if pid == 0:
            os.close(down_write)
            os.close(up_read)
            _run_child(target, (*args, Channel(down_read, up_write)))
        # this process's copies of the child's ends must go before the next
        # fork, or a child that dies would leave its pipe open
        os.close(down_read)
        os.close(up_write)
        child = Child(name, pid, Channel(up_read, down_write))
        self._children.append(child)
        return child

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            import signal  # here, so that a run that raises nothing does not load it
            for child in self._children:
                if child.exitcode is None:
                    os.kill(child.pid, signal.SIGTERM)
        for child in self._children:
            child.channel.close()
            child.wait()
        return False
