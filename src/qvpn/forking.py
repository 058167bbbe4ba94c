"""Child processes forked from this one, each joined to it by a pipe.

run_scenario's sweep workers and evolve's fitness helper share this one
lifecycle. Fork, not spawn: a child starts with this process's imports and
data instead of importing qvpn again, and qvpn runs no threads that a fork
could cut off. Callers import this module only when they may fork, so
that serial runs do not pay for importing multiprocessing.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


def can_fork() -> bool:
    """Whether this process may fork children: the platform has the fork
    start method, and this process is not itself a multiprocessing child,
    so that forks never nest (a sweep worker runs its GA serially)."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


@dataclass
class Child:
    """One forked child and this process's end of its pipe."""

    name: str
    process: object
    conn: object

    def send(self, obj):
        try:
            self.conn.send(obj)
        except (BrokenPipeError, ConnectionResetError):
            raise self._died() from None

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError):
            raise self._died() from None

    def _died(self):
        self.process.join()
        return RuntimeError(f"{self.name} exited with code {self.process.exitcode} "
                            "before replying")


class Forks:
    """A with block that no child started through it outlives.

    On an exception every child is terminated; on any exit the pipes are
    closed and every child is joined. A child that ends before it replies
    makes send or recv raise a RuntimeError naming its exit code.
    """

    def __init__(self):
        self._context = multiprocessing.get_context("fork")
        self._children = []

    def start(self, name, target, *args) -> Child:
        """Fork a child that runs target(*args, conn), conn being its end of
        a new two-way pipe."""
        ours, theirs = self._context.Pipe()
        process = self._context.Process(target=target, args=(*args, theirs))
        process.start()
        # this process's copy of the child's end must go before the next
        # fork, or a child that dies would leave its pipe open
        theirs.close()
        child = Child(name, process, ours)
        self._children.append(child)
        return child

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for child in self._children:
                child.process.terminate()
        for child in self._children:
            child.conn.close()
            child.process.join()
        return False
