"""Every process fedmm starts, and the memory it shares with them.

The one module that forks, opens pipes, frames messages and sets numpy's
BLAS thread count. It knows nothing of clients or models: a :class:`Pool`
runs the ``serve`` callable it is given, and :func:`shared_block` hands out
bytes that a process forked afterwards writes for this one too.
``multiprocessing`` was measured slower than these hand-written pipes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
import pickle
from typing import Any, Callable

import numpy as np

# what reading a message raises when its writer closed the pipe before a
# whole one: nothing at all (EOFError) or part of it (UnpicklingError)
_PEER_GONE = (EOFError, pickle.UnpicklingError)


def usable_cpus() -> int:
    """How many processes a :class:`Pool` may run at once: the CPUs this
    one may run on (its affinity set, where the platform has one), or 1
    where the platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def blas_thread_calls():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    Looked up through numpy's LAPACK extension, whose dependencies include
    the BLAS library; other BLAS builds export none of these names.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
        setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter, setter
    return None


def shared_block(size: int) -> mmap.mmap:
    """``size`` zero bytes in an anonymous mapping shared with every process
    forked afterwards: what either writes there, the other reads."""
    return mmap.mmap(-1, size)


class WorkerExited(Exception):
    """``(g, status)``: child g of a :class:`Pool` closed its pipes before a
    whole reply and exited with code ``status``."""


class Pool:
    """``width - 1`` forked children serving requests; this process is the
    last of the ``width`` workers.

    Entering caps numpy's BLAS to one thread, so that workers times BLAS
    threads stay within the usable cores, then forks the children (fork,
    not spawn: a child needs this process's data as it is). Child g answers
    each request with ``serve(g, request)``, or the exception that raised,
    until EOF. Exiting closes every pipe, reaps every child and restores the
    thread count. A message is one ``pickle.dump`` and flush, read back with
    ``pickle.load`` on the pipe file.
    """

    def __init__(self, width: int, serve: Callable[[int, Any], Any]):
        self.width = width
        self._serve = serve
        self._pids: list[int | None] = []  # None once reaped
        self._requests = []  # write end of the pipe each child reads from
        self._replies = []  # read end of the pipe each child answers on
        self._restore_blas = None

    def __enter__(self) -> Pool:
        calls = blas_thread_calls()
        if calls is not None:  # the thread count changes no result bits
            get_threads, set_threads = calls
            self._restore_blas = functools.partial(set_threads, get_threads())
            set_threads(1)
        try:
            for g in range(self.width - 1):
                self._fork(g)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for requests, replies in zip(self._requests, self._replies):
                replies.close()
                with contextlib.suppress(BrokenPipeError):  # the rest of a failed send
                    requests.close()
            for pid in self._pids:
                if pid is not None:
                    os.waitpid(pid, 0)
        finally:
            if self._restore_blas is not None:
                self._restore_blas()

    def _fork(self, g: int) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid:
            os.close(request_r)
            os.close(reply_w)
            self._pids.append(pid)
            self._requests.append(os.fdopen(request_w, "wb"))
            self._replies.append(os.fdopen(reply_r, "rb"))
            return
        status = 1
        try:
            os.close(request_w)
            os.close(reply_r)
            # hold no other child's pipe ends, so that this process closing
            # them reaches that child (EOF, broken pipe) whatever it sends
            for other in self._requests + self._replies:
                other.close()
            with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                while True:
                    try:
                        request = pickle.load(requests)  # written by this program
                    except _PEER_GONE:
                        break
                    try:
                        reply = self._serve(g, request)
                    except Exception as exc:  # raised again in the parent by receive
                        reply = exc
                    pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                    replies.flush()
            status = 0
        finally:
            os._exit(status)

    def send(self, g: int, request) -> None:
        """Hand child ``g`` one request. A child that is gone takes none, and
        :meth:`receive` finds it gone."""
        with contextlib.suppress(BrokenPipeError):
            pickle.dump(request, self._requests[g], pickle.HIGHEST_PROTOCOL)
            self._requests[g].flush()

    def receive(self, g: int):
        """Child ``g``'s reply to its last request. The exception ``serve``
        raised there is raised here; a child that closed its pipe before a
        whole reply is reaped and raises WorkerExited."""
        try:
            reply = pickle.load(self._replies[g])  # written by this program's own child
        except _PEER_GONE:
            _, status = os.waitpid(self._pids[g], 0)
            self._pids[g] = None
            raise WorkerExited(g, os.waitstatus_to_exitcode(status)) from None
        if isinstance(reply, Exception):
            raise reply
        return reply
