"""Executors with an explicit fan width, for the shard and block tests.

A fan cuts its work into :func:`repro.stream.executor.fan_width` pieces,
which is 1 on the serial backend. :class:`WideSerial` runs in-process,
in order, like the serial backend, but reports ``max_workers``, so a
test can pin the serial result of a many-shard fan against a thread or
process pool of the same width.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.stream.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    release,
)


class WideSerial(SerialExecutor):
    """A serial executor whose fans cut ``max_workers`` pieces."""

    def __init__(self, max_workers: int) -> None:
        super().__init__()
        self.max_workers = max_workers


#: backend name -> executor class taking ``max_workers``
WIDE = {"serial": WideSerial, "thread": ThreadExecutor, "process": ProcessExecutor}


@contextmanager
def wide(backend: str, workers: int) -> Iterator[Any]:
    """A ``backend`` executor of ``workers`` width, released on exit."""
    runner = WIDE[backend](max_workers=workers)
    try:
        yield runner
    finally:
        release(runner)
