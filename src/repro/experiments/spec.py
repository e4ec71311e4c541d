"""One description of a simulation run: :class:`RunSpec`.

The CLI's ``simulate``, the §4 evaluation grid, the results ledger, the
simulation service and checkpoints all describe a run with the same
frozen spec, and identify it by the same digest: the SHA-256 of the
spec's canonical JSON.  The digest is the grid's memo and ledger key,
the service's idempotency check, and the ``spec_sha256`` of a
checkpoint manifest.

A spec holds *resolved* values.  :meth:`RunSpec.create` fills every
override left at ``None`` from the scale (window, generations, fault
scenario, watchdog budget), the solver from the stock GA, and the seed
from :func:`cell_seed`.  So two descriptions of the same run, one
spelled out and one left to defaults, share one digest.

Default seeds.  Three rules coexist; unifying them would change default
outputs, so each stays where it is:

* ``run_one(trace, method, scale)`` with no seed seeds the method's
  selector with ``BASE_SEED ^ stable_hash(method) & 0xFFFF``;
* a spec with no seed takes :func:`cell_seed` of its (workload, method):
  every grid cell and every service request without a ``seed``;
* ``bbsched simulate`` passes its ``--seed``, which defaults to ``0``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from ..resilience.faults import FaultScenario
from ..rng import stable_hash
from .config import BASE_SEED, Scale, get_scale


def cell_seed(workload: str, method: str) -> int:
    """The deterministic seed of one grid cell (stable across processes)."""
    return (BASE_SEED * 31 + stable_hash(f"{workload}|{method}")) & 0x7FFFFFFF


@dataclass(frozen=True)
class RunSpec:
    """Everything that decides one simulation's outcome, resolved.

    ``scale`` is the name of a registered scale: the trace, the GA's
    population and mutation rate and the measurement trims come from it.
    ``max_attempts`` is the retry budget of fault-killed jobs
    (``simulate --max-attempts``); ``None`` is the default
    :class:`~repro.resilience.RetryPolicy`, and only a set budget enters
    the canonical JSON, so specs that leave it unset keep their digests.
    Knobs that do not change a run's outcome (the yardstick,
    checkpointing) are not part of the spec.
    """

    workload: str
    method: str
    scale: str
    seed: int
    solver: str
    window: int
    generations: int
    faults: Optional[FaultScenario]
    watchdog_budget: Optional[float]
    telemetry: bool
    max_attempts: Optional[int] = None

    @classmethod
    def create(
        cls,
        workload: str,
        method: str,
        scale: Union[Scale, str, None] = None,
        *,
        seed: Optional[int] = None,
        solver: Optional[str] = None,
        window: Optional[int] = None,
        generations: Optional[int] = None,
        faults: Optional[FaultScenario] = None,
        watchdog_budget: Optional[float] = None,
        telemetry: bool = False,
        max_attempts: Optional[int] = None,
    ) -> "RunSpec":
        """The spec of one run, with ``None`` resolved against ``scale``
        (a :class:`Scale`, a scale name, or ``None`` for ``REPRO_SCALE``)."""
        sc = scale if isinstance(scale, Scale) else get_scale(scale)
        budget = watchdog_budget if watchdog_budget is not None else sc.watchdog_budget
        return cls(
            workload=workload,
            method=method,
            scale=sc.name,
            seed=int(seed) if seed is not None else cell_seed(workload, method),
            solver=solver or "ga",
            window=int(window if window is not None else sc.window),
            generations=int(generations if generations is not None else sc.generations),
            faults=faults if faults is not None else sc.faults,
            watchdog_budget=float(budget) if budget is not None else None,
            telemetry=bool(telemetry),
            max_attempts=int(max_attempts) if max_attempts is not None else None,
        )

    def as_dict(self) -> Dict[str, Any]:
        """The spec as JSON-safe values; fault knobs typed by their field,
        so ``node_mtbf=3600`` and ``3600.0`` are one scenario; an unset
        ``max_attempts`` is left out."""
        out = dataclasses.asdict(self)
        if self.max_attempts is None:
            del out["max_attempts"]
        if self.faults is not None:
            out["faults"] = {
                f.name: (int if f.type in (int, "int") else float)(getattr(self.faults, f.name))
                for f in dataclasses.fields(self.faults)
            }
        return out

    def canonical_json(self) -> str:
        """Sorted-key, whitespace-free JSON: the text the digest hashes."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical_json`: the run's identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, fields: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`as_dict` (a ledger record's ``spec``)."""
        faults = fields.get("faults")
        return cls(**dict(fields, faults=FaultScenario(**faults) if faults else None))
