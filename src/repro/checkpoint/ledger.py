"""JSONL results ledger for resumable experiment grids.

Each completed grid cell is appended to the ledger as one self-contained
JSON line the moment its result arrives, so a SIGKILL at any point loses
at most the cells still in flight.  On ``--resume`` the ledger is read
back, completed cells are skipped, and only missing (or previously
failed) cells are re-dispatched.

Record kinds::

    {"kind": "cell", "workload": ..., "method": ..., "scale": ...,
     "telemetry": bool, "seed": int|null, "spec": {...},
     "payload_sha256": "...", "payload": "<base64 pickle of RunResult>"}
    {"kind": "failure", "workload": ..., "method": ..., "scale": ...,
     "error": "...", "attempts": int, "traceback": "..."}

A cell is keyed by its :class:`~repro.experiments.spec.RunSpec` digest,
so a resume never returns a cell computed under another seed, fault
scenario or solver.  ``spec`` (the spec's resolved fields) is optional
and adds no format version: a record without it, as every record
written before specs existed, is the default run its version-1 fields
name — the named scale's knobs, the stored seed (``cell_seed`` when
null) and the stored telemetry flag.

Durability mechanics (atomic single-write appends, tail-tolerant replay,
verified payloads) live in the shared :class:`~repro.checkpoint.journal.
JsonlJournal`; this module adds only the grid-cell record schema on top.
A truncated or hash-mismatched *final* line reads as "cell not recorded"
rather than an error, while corruption anywhere earlier (which atomic
appends cannot produce) raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CheckpointError
from .journal import JsonlJournal, decode_payload, encode_payload

#: Bumped on any incompatible change to the record layout.
LEDGER_VERSION = 1


@dataclass
class LedgerView:
    """Parsed ledger contents: completed cells, failures, and tail damage."""

    #: (workload, method) → unpickled RunResult for every matching cell.
    results: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    #: RunSpec digest → unpickled RunResult for every matching cell.
    cells: Dict[str, Any] = field(default_factory=dict)
    #: Failure records (raw dicts) matching the filter.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: 1 when a truncated/corrupt final line was dropped, else 0.
    dropped_tail: int = 0


class ResultsLedger:
    """Append-only JSONL ledger of grid-cell results."""

    def __init__(self, path: os.PathLike | str) -> None:
        self._journal = JsonlJournal(path)

    @property
    def path(self):
        return self._journal.path

    # --- writing -----------------------------------------------------------------
    def append_result(
        self,
        result: Any,
        *,
        scale: Optional[str] = None,
        telemetry: bool = False,
        seed: Optional[int] = None,
        spec: Any = None,
    ) -> None:
        """Durably record one completed cell (``result`` is a RunResult).

        With ``spec`` (the cell's RunSpec) the record's scale, telemetry
        and seed come from it and the spec itself is stored beside them.
        """
        record = {
            "kind": "cell",
            "version": LEDGER_VERSION,
            "workload": result.workload,
            "method": result.method,
            "scale": spec.scale if spec is not None else scale,
            "telemetry": spec.telemetry if spec is not None else bool(telemetry),
            "seed": spec.seed if spec is not None else seed,
        }
        if spec is not None:
            record["spec"] = spec.as_dict()
        record.update(encode_payload(result))
        self._journal.append(record)

    def append_failure(
        self,
        *,
        workload: str,
        method: str,
        scale: str,
        error: str,
        attempts: int,
        traceback_text: str = "",
    ) -> None:
        """Record a cell that exhausted its retries (kept for diagnosis;
        failed cells are re-dispatched on resume)."""
        self._journal.append({
            "kind": "failure",
            "version": LEDGER_VERSION,
            "workload": workload,
            "method": method,
            "scale": scale,
            "error": error,
            "attempts": int(attempts),
            "traceback": traceback_text,
        })

    def reset(self) -> None:
        """Truncate the ledger (fresh, non-resumed grid run)."""
        self._journal.reset()

    # --- reading -----------------------------------------------------------------
    def exists(self) -> bool:
        return self._journal.exists()

    def load(
        self,
        *,
        scale: Optional[str] = None,
        telemetry: Optional[bool] = None,
    ) -> LedgerView:
        """Read the ledger back, optionally filtered by scale and telemetry.

        ``cells`` keys each cell by its RunSpec digest, which is what a
        grid resume matches on; ``results`` keys it by (workload,
        method), the later record winning.  A failure record for a cell
        does *not* mark it complete — later success lines win, and cells
        with only failures are re-dispatched.
        """
        view = LedgerView()
        for _lineno, record in self._journal.replay(self._parse):
            if scale is not None and record.get("scale") != scale:
                continue
            if record["kind"] == "cell":
                if telemetry is not None and bool(record.get("telemetry")) != telemetry:
                    continue
                result = record["result"]
                view.results[(result.workload, result.method)] = result
                view.cells[self._spec(record).digest()] = result
            else:
                view.failures.append(record)
        view.dropped_tail = self._journal.dropped_tail
        return view

    @staticmethod
    def _spec(record: Dict[str, Any]) -> Any:
        """The RunSpec a cell record was computed under."""
        # Imported here: repro.experiments imports this package.
        from ..experiments.spec import RunSpec

        if "spec" in record:
            return RunSpec.from_dict(record["spec"])
        return RunSpec.create(record["workload"], record["method"], record["scale"],
                              seed=record.get("seed"),
                              telemetry=bool(record.get("telemetry")))

    @staticmethod
    def _parse(record: Dict[str, Any]) -> Dict[str, Any]:
        """One raw record → dict with ``result`` unpickled; raises on damage."""
        if record.get("kind") not in ("cell", "failure"):
            raise CheckpointError(f"unknown ledger record kind {record.get('kind')!r}")
        if record.get("version") != LEDGER_VERSION:
            raise CheckpointError(
                f"ledger record version {record.get('version')!r}, "
                f"this build reads version {LEDGER_VERSION}"
            )
        if record["kind"] == "failure":
            return record
        record["result"] = decode_payload(record)
        return record
