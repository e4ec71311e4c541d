"""Bin-packing method (§4.3): Tetris-style alignment-score packing.

Following Grandl et al. (SIGCOMM 2014), each window job gets an *alignment
score* — the dot product between the machine's remaining resource vector
and the job's demand vector, both normalised by total capacity so nodes
and gigabytes are commensurable.  The job with the highest score among
those that fit is allocated, remaining capacity shrinks, and the process
repeats until nothing fits.  The greedy one-at-a-time choice is exactly
what §1's Table 1 example shows missing the globally better combination.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..simulator.cluster import Available
from ..simulator.job import Job
from .base import Selector, has_ssd_tiers


class BinPackingSelector(Selector):
    """Iterative highest-alignment-score packing."""

    name = "Bin_Packing"

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        system = self._require_system()
        if not window:
            return []
        ssd_tiers = has_ssd_tiers(avail)
        # Capacity scales make the alignment dot product unit-free.
        if ssd_tiers:
            scales = np.asarray(system.scales4()[:3])
        else:
            scales = np.asarray(system.scales2())

        tiers: Dict[float, int] = dict(avail.ssd_free)
        bb_free = avail.bb
        remaining = set(range(len(window)))
        chosen: List[int] = []
        while remaining:
            nodes_free = sum(tiers.values())
            if ssd_tiers:
                ssd_free = sum(cap * n for cap, n in tiers.items())
                machine = np.array([nodes_free, bb_free, ssd_free]) / scales
            else:
                machine = np.array([nodes_free, bb_free]) / scales
            best_i = -1
            best_score = -np.inf
            for i in sorted(remaining):
                job = window[i]
                qualifying = sum(n for cap, n in tiers.items() if cap >= job.ssd)
                if job.bb > bb_free + 1e-9 or qualifying < job.nodes:
                    continue
                if ssd_tiers:
                    demand = np.array(
                        [job.nodes, job.bb, job.ssd * job.nodes]
                    ) / scales
                else:
                    demand = np.array([job.nodes, job.bb]) / scales
                score = float(machine @ demand)
                if score > best_score:
                    best_score = score
                    best_i = i
            if best_i < 0:
                break
            job = window[best_i]
            need = job.nodes
            for cap in sorted(tiers):
                if cap < job.ssd or need == 0:
                    continue
                grab = min(tiers[cap], need)
                tiers[cap] -= grab
                need -= grab
            bb_free -= job.bb
            remaining.discard(best_i)
            chosen.append(best_i)
        return sorted(chosen)
