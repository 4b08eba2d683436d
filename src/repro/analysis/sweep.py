"""Deterministic batched + parallel executor for Monte-Carlo sweeps.

Every experiment here is the same shape — ``trials`` independent seeded
trials whose per-trial results get aggregated — so this module factors the
execution strategy out of the experiment code:

* trials are split into contiguous :class:`TrialChunk` ranges, and each
  chunk reconstructs exactly its own trial generators through
  ``SeedSequence`` spawn keys (see
  :func:`repro.analysis.montecarlo.iter_trial_rngs`);
* a chunk function maps one chunk to its per-trial results — typically by
  building a fault-mask batch and calling a batched kernel such as
  :func:`repro.safety.gs.stabilization_rounds_batch` once;
* chunks fan out over a ``ProcessPoolExecutor`` when more than one job is
  requested (``jobs`` argument, else the ``REPRO_JOBS`` environment knob,
  else serial), and results are concatenated in chunk order.  The pool
  is started once per process and kept for later sweeps: each spawned
  worker re-imports the package, which costs far more than a typical
  cell's trials.

Because trial ``i``'s random stream depends only on ``(master_seed, i)``
and results are reassembled in trial order, the output is bit-identical
for any worker count and any chunking — the same guarantee the seeded
``trial_rngs`` list gave the old per-trial loops.

Chunk functions (and the trial functions passed to :func:`map_trials`)
must be module-level callables so they pickle into spawn-based workers.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.instruments import record_sweep
from .montecarlo import iter_trial_rngs

__all__ = [
    "JOBS_ENV_VAR",
    "TrialChunk",
    "resolve_jobs",
    "chunk_trials",
    "run_sweep",
    "map_trials",
]

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class TrialChunk:
    """A contiguous range of trials of one seeded sweep."""

    master_seed: int
    start: int
    count: int

    def iter_rngs(self) -> Iterator[np.random.Generator]:
        """The chunk's per-trial generators, lazily, in trial order."""
        return iter_trial_rngs(self.master_seed, self.count, self.start)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def chunk_trials(
    master_seed: int,
    trials: int,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> List[TrialChunk]:
    """Split ``trials`` into contiguous chunks.

    The default chunk size spreads trials evenly over ``jobs`` (one chunk
    when serial, so a whole cell hits the batched kernels in one call).
    Chunking never affects results — only scheduling granularity.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if chunk_size is None:
        chunk_size = max(1, -(-trials // max(jobs, 1)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        TrialChunk(master_seed=master_seed, start=start,
                   count=min(chunk_size, trials - start))
        for start in range(0, trials, chunk_size)
    ]


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's spawn pool, started on first use and kept until a
    sweep asks for a different worker count (an evicted pool's workers
    exit once it is garbage-collected)."""
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=mp.get_context("spawn"))


def run_sweep(
    chunk_fn: Callable[..., Sequence[Any]],
    master_seed: int,
    trials: int,
    *,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    args: Tuple[Any, ...] = (),
) -> List[Any]:
    """Per-trial results of ``chunk_fn`` over every chunk, in trial order.

    ``chunk_fn(chunk, *args)`` must return one result per trial of the
    chunk, in trial order.  With ``jobs > 1`` the chunks run on the
    process's spawn-context pool of ``jobs`` workers (serial fallback
    otherwise); either way the returned list is the in-order
    concatenation, so worker count cannot change any downstream statistic.

    Each run reports throughput telemetry (trials/sec, per-chunk timing)
    through :mod:`repro.obs` when observability is enabled.  Workers never
    record — spawn re-imports leave them with the disabled defaults — so
    parallel timing is observed from the driver side and the engine gains
    no IPC.
    """
    jobs = resolve_jobs(jobs)
    chunks = chunk_trials(master_seed, trials, jobs, chunk_size)
    results: List[Any] = []
    chunk_seconds: List[float] = []
    start = time.perf_counter()
    if jobs == 1 or len(chunks) <= 1:
        for chunk in chunks:
            t0 = time.perf_counter()
            results.extend(chunk_fn(chunk, *args))
            chunk_seconds.append(time.perf_counter() - t0)
    else:
        pool = _pool(jobs)
        try:
            futures = [pool.submit(chunk_fn, chunk, *args)
                       for chunk in chunks]
            for future in futures:
                results.extend(future.result())
        except BrokenProcessPool:
            _pool.cache_clear()  # a dead worker poisons the pool
            raise
    record_sweep(master_seed, trials, jobs, len(chunks),
                 time.perf_counter() - start, chunk_seconds)
    return results


def _trial_chunk(chunk: TrialChunk, trial_fn: Callable[..., Any],
                 trial_args: Tuple[Any, ...]) -> List[Any]:
    """Generic chunk runner for :func:`map_trials` (module level: pickles)."""
    return [trial_fn(rng, *trial_args) for rng in chunk.iter_rngs()]


def map_trials(
    trial_fn: Callable[..., Any],
    master_seed: int,
    trials: int,
    *,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    args: Tuple[Any, ...] = (),
) -> List[Any]:
    """Map ``trial_fn(rng, *args)`` over every trial, in trial order.

    Convenience wrapper for experiments whose per-trial work is not itself
    batchable (routing loops, simulators); the chunking and pool plumbing
    match :func:`run_sweep`.
    """
    return run_sweep(_trial_chunk, master_seed, trials, jobs=jobs,
                     chunk_size=chunk_size, args=(trial_fn, args))
