"""Order-preserving chunked map: serial in-process or on a process pool.

The one fan-out helper behind every embarrassingly parallel loop in the
repro: the fleet capacity planner (:mod:`repro.fleet.capacity`), the
Monte-Carlo replication harness (:mod:`repro.sim.replicate`), workload
fingerprinting and the shard pods (:mod:`repro.fleet.shard`).  It
imports only the standard library, so a fleet or trace run that maps
over it loads no paper-model code.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError


def map_chunks(
    chunk_fn: Callable[[tuple], Sequence],
    items: Iterable,
    engine: str = "serial",
    workers: int | None = None,
    chunk_size: int | None = None,
) -> tuple:
    """Map ``chunk_fn`` over ``items`` in chunks, preserving input order.

    ``chunk_fn`` receives a tuple of items and must return one result
    per item, in order.  ``"serial"`` calls it once in-process over the
    whole tuple; ``"process"`` fans chunks out to a
    :class:`~concurrent.futures.ProcessPoolExecutor` (``chunk_fn`` and
    the items must be picklable — use a module-level function or
    :func:`functools.partial` over one).  Both paths concatenate chunk
    results in submission order, so the output is identical whichever
    engine ran it.

    This helper parallelises across *independent* items.  To
    parallelise one large fleet simulation from the inside, use
    :func:`repro.fleet.shard.run_sharded`: it splits the fleet into
    pods that do not depend on each other and maps them over this
    helper, one task per pod.
    """
    item_list = tuple(items)
    if not item_list:
        return ()
    if engine not in ("serial", "process"):
        raise ConfigurationError(
            f"map_chunks supports engines ('serial', 'process'), got {engine!r}"
        )
    if engine == "serial":
        results = tuple(chunk_fn(item_list))
    else:
        from concurrent.futures import ProcessPoolExecutor

        n_workers = workers or os.cpu_count() or 1
        n_workers = max(1, min(n_workers, len(item_list)))
        if chunk_size is None:
            # ~4 chunks per worker keeps the pool busy without tiny tasks.
            chunk_size = max(1, -(-len(item_list) // (4 * n_workers)))
        chunks = [
            item_list[start:start + chunk_size]
            for start in range(0, len(item_list), chunk_size)
        ]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            # Executor.map preserves submission order, so concatenating
            # the chunk results reproduces input order deterministically
            # no matter which worker finished first.
            results = tuple(itertools.chain.from_iterable(pool.map(chunk_fn, chunks)))
    if len(results) != len(item_list):
        raise ConfigurationError(
            f"chunk_fn returned {len(results)} results for {len(item_list)} items"
        )
    return results
