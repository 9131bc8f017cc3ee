"""The Boot SRAM and Boot FSM (Sec. 6.2).

With the context in DRAM, a chicken-and-egg problem appears at DRIPS
exit: the PMU, memory controller and MEE must run *before* the DRAM can
be read.  "Therefore, approximately 1 KB of the processor context (only
0.5 % of the entire processor context) is still required to be stored
on-chip, in a dedicated small SRAM (Boot_SRAM) using a special FSM
(Boot_FSM)."
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.errors import FlowError, MemoryFault
from repro.memory.sram import SRAMDevice
from repro.power.domain import PowerDomain


class BootSRAM:
    """A ~1 KB always-on SRAM holding the bootstrap context.

    Stores a serialized dict of the states the Boot FSM restores first:
    PMU configuration, memory-controller configuration, and the MEE's
    on-chip trusted state (root counter).  The array's leakage is tiny —
    it is part of the un-gated PMU slice of the budget.
    """

    def __init__(self, domain: PowerDomain, capacity_bytes: int = 1024,
                 leakage_watts: float = 25e-6) -> None:
        self.sram = SRAMDevice(
            "boot_sram",
            capacity_bytes=capacity_bytes,
            leakage_watts_per_byte=leakage_watts / capacity_bytes,
            power_component=domain.new_component("proc.boot_sram"),
        )
        self._length = 0

    def store(self, pmu_state: Dict, controller_state: Dict, mee_state: Optional[bytes]) -> None:
        """Serialize and store the bootstrap context."""
        record = {
            "pmu": pmu_state,
            "controller": controller_state,
            "mee": mee_state.hex() if mee_state is not None else None,
        }
        blob = json.dumps(record, sort_keys=True).encode("utf-8")
        if len(blob) > self.sram.capacity_bytes:
            raise MemoryFault(
                f"boot context {len(blob)} B exceeds Boot SRAM "
                f"{self.sram.capacity_bytes} B"
            )
        self.sram.write(0, blob)
        self._length = len(blob)

    def load(self) -> Dict:
        """Read back the bootstrap context."""
        if self._length == 0:
            raise FlowError("Boot SRAM is empty; nothing was stored")
        blob = self.sram.read(0, self._length)
        record = json.loads(blob.decode("utf-8"))
        if record.get("mee") is not None:
            record["mee"] = bytes.fromhex(record["mee"])
        return record

    def clear(self) -> None:
        self._length = 0
