"""The fork lifecycle shared by the GA's fitness helper and the sweep
workers: replies, deaths, nesting and output."""

import multiprocessing
import os
import pickle
import time

import pytest

from qvpn import forking

from qvpn_helpers import assert_no_child_process, fresh_python

needs_fork = pytest.mark.skipif(not forking.can_fork(), reason="this process cannot fork")


def _echo(conn):
    for message in iter(conn.recv, None):
        conn.send(message)


def _send_can_fork(conn):
    conn.send(forking.can_fork())


def _send_part_then_exit(conn):
    conn._out.write(pickle.dumps(list(range(1000)))[:-20])
    conn._out.flush()
    os._exit(4)


def _raise(conn):
    raise ValueError("child failed")


def _sleep(conn):
    time.sleep(60)


@needs_fork
def test_children_reply_in_order_and_are_reaped():
    with forking.Forks() as forks:
        children = [forks.start(f"echo {i}", _echo) for i in range(2)]
        for i, child in enumerate(children):
            child.send({"n": i, "data": list(range(20_000))})
        replies = [child.recv() for child in children]
        for child in children:
            child.send(None)
    assert [r["n"] for r in replies] == [0, 1] and replies[1]["data"][-1] == 19_999
    assert [child.exitcode for child in children] == [0, 0]
    assert_no_child_process()


@needs_fork
def test_forks_do_not_nest():
    with forking.Forks() as forks:
        assert forks.start("probe", _send_can_fork).recv() is False
    assert forking.can_fork()  # this process is unchanged
    ours, theirs = multiprocessing.get_context("fork").Pipe()
    process = multiprocessing.get_context("fork").Process(target=_send_can_fork, args=(theirs,))
    process.start()
    theirs.close()
    assert ours.recv() is False
    process.join()
    assert process.exitcode == 0
    assert_no_child_process()


@needs_fork
def test_a_truncated_reply_names_the_exit_code():
    with pytest.raises(RuntimeError, match="^truncated exited with code 4 before replying$"):
        with forking.Forks() as forks:
            forks.start("truncated", _send_part_then_exit).recv()
    assert_no_child_process()


@needs_fork
def test_a_child_that_raises_exits_with_code_1(capfd):
    with pytest.raises(RuntimeError, match="raiser exited with code 1 before replying"):
        with forking.Forks() as forks:
            forks.start("raiser", _raise).recv()
    assert "ValueError: child failed" in capfd.readouterr().err
    assert_no_child_process()


@needs_fork
def test_an_exception_in_the_block_terminates_every_child():
    started = time.monotonic()
    with pytest.raises(KeyError):
        with forking.Forks() as forks:
            children = [forks.start(f"sleeper {i}", _sleep) for i in range(2)]
            raise KeyError("parent failed")
    assert [child.exitcode for child in children] == [-15, -15]  # SIGTERM
    assert time.monotonic() - started < 30
    assert_no_child_process()


@needs_fork
def test_unflushed_output_is_written_once(tmp_path):
    # the parent's buffered text must not be copied into the child and
    # written again when the child flushes on its way out
    assert fresh_python("""
        import json, sys
        from qvpn import forking

        def speak(conn):
            print("child says")
            print("child warns", file=sys.stderr)

        real = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = open("out.txt", "w"), open("err.txt", "w")
        print("parent says")
        print("parent warns", file=sys.stderr)
        with forking.Forks() as forks:
            child = forks.start("speaker", speak)
        sys.stdout.close()
        sys.stderr.close()
        sys.stdout, sys.stderr = real
        out, err = open("out.txt").read(), open("err.txt").read()
        print(json.dumps([child.exitcode, out.count("parent says"), out.count("child says"),
                          err.count("parent warns"), err.count("child warns")]))
        """, tmp_path) == [0, 1, 1, 1, 1]


@needs_fork
def test_a_child_whose_output_fails_still_exits(tmp_path):
    # the child's last flush raises (its stdout is gone); it must still
    # leave through os._exit rather than return into the parent's code
    assert fresh_python("""
        import json, sys
        from qvpn import forking

        class BrokenPipe:
            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError

        def lose_output(conn):
            sys.stdout = BrokenPipe()

        with forking.Forks() as forks:
            child = forks.start("mute", lose_output)
        print(json.dumps(child.exitcode))
        """, tmp_path) == 0
