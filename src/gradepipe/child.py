"""The one place gradepipe starts a child process: compilers, the ``--version``
probe, the precompiled-header build and student binaries all run through
:func:`run_child`, which starts no thread. Every child reads its stdin from a
sealed in-memory file, empty for all but student binaries, so the parent
never writes to a child and waits only on its exit and its stdout.
"""

from __future__ import annotations

import fcntl
import os
import selectors
import signal
import subprocess
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

# A child that has exited while something it started still holds its stdout
# gets this long for the pipe to close before its whole group is killed.
LINGER_SECS = 1.0
# Output is read this many bytes at a time; a capped reader holds about one read.
_READ_SIZE = 16 * 1024
# epoll refuses a wait of 2**31 ms (about 24.8 days) or more, so a longer
# timeout is waited out in steps of at most this many seconds.
_MAX_WAIT_SECS = 24 * 3600.0
# A sealed stdin can be neither written, grown nor shrunk, nor its seals changed.
_SEALS = fcntl.F_SEAL_WRITE | fcntl.F_SEAL_GROW | fcntl.F_SEAL_SHRINK | fcntl.F_SEAL_SEAL
# Linux refuses to start a program (E2BIG) given one argument of MAX_ARG_STRLEN,
# 32 pages or 131072 bytes, or more counting its NUL, or arguments and
# environment together over ARG_MAX, a quarter of the stack limit and 2 MiB
# by default. A spec's items are held to the first, and together to half the
# second, which leaves room for the environment and for the source paths a
# compile command adds.
_MAX_ARG_BYTES = 128 * 1024  # an item must be shorter, as its NUL counts
_MAX_ARGS_TOTAL_BYTES = 1024 * 1024


def argument_problem(items: Sequence[str]) -> str | None:
    """Why no program could be started with ``items`` among its arguments, or None."""
    if any("\0" in item for item in items):
        return "must not contain a NUL byte"
    sizes = [len(os.fsencode(item)) for item in items]
    if any(size >= _MAX_ARG_BYTES for size in sizes):
        return f"must each be under {_MAX_ARG_BYTES} bytes in UTF-8"
    if sum(sizes) > _MAX_ARGS_TOTAL_BYTES:
        return f"must total at most {_MAX_ARGS_TOTAL_BYTES} bytes in UTF-8"
    return None


def run_child(
    argv: Sequence[str], cwd: Path | None, timeout: float, take: Callable[[bytes], bool],
    *, stdin: bytes = b"", env: Mapping[str, str] | None = None, merge_stderr: bool = False,
) -> tuple[int | None, bool]:
    """Run ``argv`` in ``cwd`` in its own session, handing each chunk of its stdout to ``take``.

    The child's stdin is a sealed in-memory file (``memfd_create``) that holds
    ``stdin``: it reads those bytes and then EOF, may seek in it or ignore it,
    and cannot write to it (EPERM). stderr is merged into stdout with
    ``merge_stderr``, else discarded. One ``selectors`` loop under one
    wall-clock deadline reads stdout and watches for the exit through a pidfd
    (Linux 5.3 or newer). The child's whole process group is killed when
    ``timeout`` seconds pass, when ``take`` returns False, on any exception,
    and once the child has exited and its stdout is closed, or
    ``LINGER_SECS`` after its exit if something it started still holds
    stdout. The parent's copies of stdin and stdout are closed before this returns.

    Returns the exit code (negative for a signal), or None if the child was killed before
    it exited, and whether it ran out of time. The ``OSError`` of a child that cannot be
    started propagates.
    """
    with open(os.memfd_create("stdin", os.MFD_CLOEXEC | os.MFD_ALLOW_SEALING), "w+b") as source:
        source.write(stdin)
        source.flush()
        fcntl.fcntl(source, fcntl.F_ADD_SEALS, _SEALS)
        source.seek(0)
        process = subprocess.Popen(
            argv, bufsize=0, cwd=cwd, env=env, stdin=source, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT if merge_stderr else subprocess.DEVNULL, start_new_session=True,
        )
    with process:  # leaving it closes stdout and reaps the child
        try:
            exited, timed_out = _pump(process, take, time.monotonic() + timeout)
        finally:
            # Still unreaped, the child keeps its pid, which names its group,
            # from being reused by another process.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except OSError:
                process.kill()
    return (process.returncode if exited else None), timed_out


def _pump(process: subprocess.Popen, take: Callable[[bytes], bool], deadline: float) -> tuple[bool, bool]:
    """Drain ``process`` until it exits and closes stdout; return (exited, timed out)."""
    exited = False
    reading = True
    with selectors.DefaultSelector() as selector:
        pidfd = os.pidfd_open(process.pid)  # readable once the child exits, still unreaped
        try:
            selector.register(pidfd, selectors.EVENT_READ)
            selector.register(process.stdout, selectors.EVENT_READ)
            while reading or not exited:
                left = deadline - time.monotonic()
                if left <= 0:
                    return exited, not exited
                for key, _ in selector.select(min(left, _MAX_WAIT_SECS)):
                    if key.fd == pidfd:
                        selector.unregister(pidfd)
                        exited = True
                        deadline = time.monotonic() + LINGER_SECS
                    else:
                        chunk = os.read(key.fd, _READ_SIZE)
                        if not chunk:
                            selector.unregister(process.stdout)
                            reading = False
                        elif not take(chunk):
                            return exited, False
            return True, False
        finally:
            os.close(pidfd)
