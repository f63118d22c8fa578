import os

from minranklab import parallel
from minranklab.parallel import map_chunks, split_range, usable_cpus


def _square(x):
    return x * x


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the pool size and runs the
    work inline, so no process starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_pool_never_exceeds_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    RecordingExecutor.sizes = []
    chunks = list(range(4096))
    assert map_chunks(_square, chunks, 10_000) == map_chunks(_square, chunks, 1)
    assert RecordingExecutor.sizes == [3]


def test_one_usable_cpu_runs_inline(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    RecordingExecutor.sizes = []
    assert map_chunks(_square, [1, 2, 3], 10_000) == [1, 4, 9]
    assert RecordingExecutor.sizes == []


def test_usable_cpus_is_the_affinity_count():
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert usable_cpus() == expected >= 1


def test_split_range_covers_in_order():
    assert split_range(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_range(2, 5) == [(0, 1), (1, 2)]
    assert split_range(0, 4) == [(0, 0)]
