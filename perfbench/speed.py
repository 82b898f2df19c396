"""A speed probe that puts end-to-end times on a steady scale.

The benchmark runs on shared 2-core virtual machines whose cores and
last-level cache other tenants also use: the same op, in the same
process, takes up to 40% longer from one minute to the next, and its
CPU time grows with its wall time, so the slowdown is contention, not
waiting.  A fixed job timed next to each measured interval slows down
with it, so end-to-end times are reported scaled by ``NOMINAL_S /
probe``: seconds on a box where the probe takes ``NOMINAL_S``.

The probe does the kind of work the program's claim matrices do: it
builds 20k frozen triples, groups them by data item into dicts of
provenance sets, and sorts the items.  It allocates ~25 MB while it
runs, so the runner reads the RSS high-water mark before the first
probe.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

#: Probe time on a quiet 2-core Xeon virtual machine.
NOMINAL_S = 0.13

_TRIPLES = 20_000


@dataclass(frozen=True, slots=True)
class _Triple:
    subject: str
    predicate: str
    obj: str


def probe() -> float:
    """Wall seconds of one probe, with the collector off (so the
    program's live heap does not change its cost)."""
    gc.disable()
    try:
        start = time.perf_counter()
        items: dict[tuple[str, str], dict[_Triple, set]] = {}
        provenances: dict[tuple[str, str], set] = {}
        for i in range(_TRIPLES):
            triple = _Triple(f"e{i % 4099}", f"p{i % 37}", f"v{(i * 7919) % 15013}")
            provenance = (f"x{i % 12}", f"u{i % 2503}")
            item = items.setdefault((triple.subject, triple.predicate), {})
            item.setdefault(triple, set()).add(provenance)
            provenances.setdefault(provenance, set()).add(triple)
        sorted(items, key=lambda key: (key[1], key[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(*probes: float) -> float:
    """The factor that puts an interval next to ``probes`` on the nominal
    scale."""
    return NOMINAL_S * len(probes) / sum(probes)
