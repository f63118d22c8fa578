"""Deterministic fan-out of partitioned work across processes.

Results always come back in chunk order, so callers merge them exactly as
they would in the sequential case and every value is schedule-independent.
This is the one module that starts processes, and its pool never holds more
workers than the CPUs the process may use, whatever jobs asks for.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition range(total) into at most `parts` contiguous (start, stop) runs."""
    parts = max(1, min(parts, total)) if total else 1
    size, extra = divmod(total, parts)
    spans = []
    start = 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(worker: Callable[[T], R], chunk_args: Sequence[T], jobs: int) -> list[R]:
    """Apply worker to each chunk argument, in order, in a pool of at most
    min(jobs, chunks, usable CPUs) processes; one worker runs inline."""
    workers = min(jobs, len(chunk_args), usable_cpus())
    if workers <= 1:
        return [worker(arg) for arg in chunk_args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunk_args))
