"""Bit-packed chromosomes and the memoized evaluation for the GA hot loop.

The cached GA loop (:class:`~repro.core.ga.MOGASolver` with
``eval_cache=True``) carries each chromosome as a Python int with gene
``i`` at bit ``i`` (:func:`pack_genes` / :func:`unpack_genes`; Python ints
have no width limit).  Every generation scores its ``P`` children; the
parents carry their objective rows with them, and crossover routinely
reproduces chromosomes seen many generations ago.
:class:`EvaluationCache` memoizes objective rows keyed by the packed int so
each distinct chromosome is evaluated exactly once per solve; duplicate
rows *within* one batch are also collapsed to a single evaluation
(:meth:`EvaluationCache.score`).

Byte-identity contract
----------------------
The cache may only change *when* a chromosome is evaluated, never the
values: assembling cached rows must reproduce what one big
``problem.evaluate`` call would have returned for the same matrix.  That
holds because the problems' evaluation kernels are *row-subset stable* —
each output row depends only on its own input row and is computed by
per-row reductions (``np.einsum`` / the SSD assignment sweep), not by a
blocked BLAS matmul whose per-row results shift with the batch size.
``tests/test_differential.py`` pins this end-to-end.

Because every chromosome enters the store *after* repair, store membership
doubles as a known-feasible certificate: repair sends only rows not in the
store to ``problem.feasible_packed``, which checks the packed ints
without unpacking them (:meth:`EvaluationCache.infeasible`), and a
generation whose children are all stored skips repair
(:meth:`EvaluationCache.all_stored`).

The store is bounded (FIFO eviction, insertion order) and cleared between
solves — a chromosome only means anything relative to one problem
instance.  Eviction never drops a live row, because the population carries
its own objective rows.  Hit/miss/dedup/eviction counters accumulate across
solves and feed the ``ga.eval_cache.*`` telemetry counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bound on distinct chromosomes retained per solve.  A default (G=500,
#: P=20) solve touches at most ``(G + 1) · P`` distinct rows, so this never
#: evicts at the paper's parameters while still bounding memory for
#: pathological configurations.
DEFAULT_EVAL_CACHE_CAPACITY = 32768

#: One chromosome's objective row, as Python floats.
Objectives = Tuple[float, ...]


def pack_genes(genes: np.ndarray) -> List[int]:
    """Ints (gene ``i`` at bit ``i``) of the rows of a ``(n, w)`` 0/1 matrix."""
    packed = np.packbits(genes, axis=1, bitorder="little")
    stride = packed.shape[1]
    blob = packed.tobytes()
    return [
        int.from_bytes(blob[i * stride : (i + 1) * stride], "little")
        for i in range(packed.shape[0])
    ]


def unpack_genes(rows: Sequence[int], w: int) -> np.ndarray:
    """The ``(len(rows), w)`` uint8 matrix of packed chromosomes."""
    stride = (w + 7) // 8
    blob = b"".join([bits.to_bytes(stride, "little") for bits in rows])
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(len(rows), stride)
    return np.unpackbits(packed, axis=1, count=w, bitorder="little")


class EvaluationCache:
    """Bounded packed-chromosome → objective-row memo table.

    Holds at most :data:`DEFAULT_EVAL_CACHE_CAPACITY` distinct chromosomes
    (read when the cache is built); the oldest entries are evicted first
    (insertion order).  Eviction only costs re-evaluation later — results
    are unaffected.
    """

    def __init__(self) -> None:
        self.capacity = DEFAULT_EVAL_CACHE_CAPACITY
        self._store: Dict[int, Objectives] = {}
        self.hits = 0        #: rows served without an evaluation
        self.misses = 0      #: rows that triggered an evaluation
        self.deduped = 0     #: duplicate rows collapsed within one batch
        self.evictions = 0   #: entries dropped to honour ``capacity``

    def __len__(self) -> int:
        return len(self._store)

    def reset(self) -> None:
        """Drop the store (counters survive).  Called between solves."""
        self._store.clear()

    def stats(self) -> Dict[str, int]:
        """Cumulative counters as a plain dict (telemetry-ready)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "evictions": self.evictions,
        }

    def all_stored(self, rows: Sequence[int]) -> bool:
        """Whether every row is in the store (so known to be feasible)."""
        return all(map(self._store.__contains__, rows))

    def infeasible(self, problem, rows: Sequence[int], idx: Sequence[int]) -> List[int]:
        """The indices in ``idx`` (ascending) whose rows break a constraint.

        Stored rows are feasible; the rest go to ``problem.feasible_packed``.
        """
        store = self._store
        unknown = [i for i in idx if rows[i] not in store]
        if not unknown:
            return []
        ok = problem.feasible_packed([rows[i] for i in unknown])
        return [i for i, good in zip(unknown, ok) if not good]

    def score(self, problem, rows: Sequence[int]) -> Dict[int, Objectives]:
        """Objective rows of the distinct ``rows``, in order of first
        appearance, evaluating only the ones not in the store.

        A repeat of a row the batch evaluates counts as deduped.  Rows whose
        objective rows the caller already holds (surviving parents) are
        hits too; the caller adds them to :attr:`hits` itself.
        """
        store = self._store
        out: Dict[int, Optional[Objectives]] = {}
        miss: List[int] = []
        hits = 0
        for bits in rows:
            obj = store.get(bits)
            if obj is not None:
                hits += 1
                out[bits] = obj
            elif bits not in out:
                out[bits] = None
                miss.append(bits)
        self.hits += hits
        self.misses += len(miss)
        self.deduped += len(rows) - hits - len(miss)
        if miss:
            fresh = problem.evaluate(unpack_genes(miss, problem.w))
            for bits, obj in zip(miss, fresh.tolist()):
                out[bits] = store[bits] = tuple(obj)
            # ``out`` holds the whole batch, so FIFO eviction cannot drop a
            # row in use; it keeps the newest rows.
            while len(store) > self.capacity:
                store.pop(next(iter(store)))
                self.evictions += 1
        return out
