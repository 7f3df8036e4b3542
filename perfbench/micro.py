"""Isolated microbenchmarks, one mechanism each.

Each returns a per-operation time in microseconds: the median of
``rounds`` timed batches, so one slow fsync or scheduler hiccup moves
it little.  They run without the layer wrappers, in scratch
directories of their own.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict

from common import median

#: A unit-sized payload: a few hundred floats, like a series result.
_PAYLOAD = {"rows": [{"x": i, "y": i * 0.5} for i in range(200)]}


def _per_op_us(batch: Callable[[int], None], ops: int, rounds: int) -> float:
    samples = []
    for index in range(rounds):
        started = time.perf_counter()
        batch(index)
        samples.append((time.perf_counter() - started) / ops * 1e6)
    return median(samples)


def journal_append_us(directory: str, ops: int = 40, rounds: int = 5) -> float:
    """``RecordLog.append``: one framed record, flushed and fsync'd."""
    from repro.journal.log import RecordLog

    log = RecordLog(os.path.join(directory, "micro-log.bin"))
    try:
        def batch(_index: int) -> None:
            for i in range(ops):
                log.append("UNIT_DISPATCHED", unit=f"u{i}", attempt=0)
        return _per_op_us(batch, ops, rounds)
    finally:
        log.close()


def cache_us(directory: str, ops: int = 40,
             rounds: int = 5) -> Dict[str, float]:
    """``ResultCache.put`` (pickle + atomic write) and ``get`` (read +
    unpickle, all hits) of a unit-sized payload."""
    from repro.cache import ResultCache

    cache = ResultCache(os.path.join(directory, "micro-cache"))
    keys = [f"{i:064x}" for i in range(ops * rounds)]

    def put(index: int) -> None:
        for key in keys[index * ops:(index + 1) * ops]:
            cache.put(key, _PAYLOAD)

    def get(index: int) -> None:
        for key in keys[index * ops:(index + 1) * ops]:
            if cache.get(key) is None:
                raise RuntimeError(f"cache lost {key}")

    return {
        "put": _per_op_us(put, ops, rounds),
        "get": _per_op_us(get, ops, rounds),
    }


def pool_roundtrip_us(ops: int = 40, rounds: int = 5) -> float:
    """A no-op unit submitted to a one-worker supervised pool and its
    result read back: the dispatch cost every pooled unit pays."""
    from repro.resilience.pool import SupervisedPool

    pool = SupervisedPool(processes=1)
    try:
        def batch(index: int) -> None:
            for i in range(ops):
                pool.submit(abs, f"noop-{index}-{i}", 0, -i)
                while not any(e[0] == "done" for e in pool.poll(5.0)):
                    pass
        batch(-1)  # first task pays the worker's start-up
        return _per_op_us(batch, ops, rounds)
    finally:
        pool.terminate()


def span_us(ops: int = 2000, rounds: int = 5) -> float:
    """``Tracer.begin`` + ``Tracer.end`` of one span (buffered tracer,
    the mode pool workers use)."""
    from repro.obs.spans import Tracer

    def batch(_index: int) -> None:
        tracer = Tracer()
        for _ in range(ops):
            tracer.end(tracer.begin("micro", cat="bench"))
        tracer.drain()

    return _per_op_us(batch, ops, rounds)


def run_all(directory: str) -> Dict[str, float]:
    os.makedirs(directory, exist_ok=True)
    cache = cache_us(directory)
    return {
        "journal.append_us": journal_append_us(directory),
        "cache.put_us": cache["put"],
        "cache.get_us": cache["get"],
        "resilience.roundtrip_us": pool_roundtrip_us(),
        "obs.span_us": span_us(),
    }
