"""A banked DRAM device timing model.

The paper's platform has a 4 GB DRAM module behind a memory controller.
For the interconnect evaluation what matters is the *service-time
process* the shared provider exposes; this model reproduces its two
dominant features: bank-level parallelism in address mapping and the
row-buffer hit/miss asymmetry.

Timing is expressed in interconnect cycles.  Defaults approximate a
DDR3-1600 device seen from a 100 MHz fabric: a row-buffer hit costs a
CAS access, a miss adds precharge + activate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest


@dataclass(frozen=True)
class DramTiming:
    """Cycle costs of the three access outcomes."""

    row_hit_cycles: int = 12
    row_miss_cycles: int = 30
    row_conflict_cycles: int = 38  # miss on a bank with an open, different row
    write_extra_cycles: int = 2  # write recovery penalty

    def __post_init__(self) -> None:
        if min(self.row_hit_cycles, self.row_miss_cycles, self.row_conflict_cycles) <= 0:
            raise ConfigurationError("DRAM access costs must be positive")
        if not (
            self.row_hit_cycles <= self.row_miss_cycles <= self.row_conflict_cycles
        ):
            raise ConfigurationError(
                "expected hit <= miss <= conflict cost ordering"
            )
        if self.write_extra_cycles < 0:
            raise ConfigurationError("write penalty cannot be negative")


@dataclass
class DramDevice:
    """Row-buffer state per bank, plus the address mapping.

    Address mapping: row-interleaved — ``bank = (addr / row_size) %
    n_banks``, ``row = addr / (row_size * n_banks)``.  Sequential
    addresses stay in one row, large strides rotate banks.
    """

    n_banks: int = 8
    row_size_bytes: int = 2048
    timing: DramTiming = field(default_factory=DramTiming)

    def __post_init__(self) -> None:
        if self.n_banks <= 0:
            raise ConfigurationError(f"need at least one bank, got {self.n_banks}")
        if self.row_size_bytes <= 0:
            raise ConfigurationError("row size must be positive")
        self._open_rows: list[int | None] = [None] * self.n_banks
        self.hits = 0
        self.misses = 0
        self.conflicts = 0

    # -- address decoding ------------------------------------------------------
    def bank_of(self, address: int) -> int:
        return (address // self.row_size_bytes) % self.n_banks

    def row_of(self, address: int) -> int:
        return address // (self.row_size_bytes * self.n_banks)

    def open_row(self, bank: int) -> int | None:
        """Currently open row in ``bank`` (None = precharged)."""
        return self._open_rows[bank]

    # -- access --------------------------------------------------------------
    def access_cost(self, request: MemoryRequest) -> int:
        """Cost the access *would* incur, without changing state."""
        bank = self.bank_of(request.address)
        row = self.row_of(request.address)
        open_row = self._open_rows[bank]
        if open_row == row:
            cost = self.timing.row_hit_cycles
        elif open_row is None:
            cost = self.timing.row_miss_cycles
        else:
            cost = self.timing.row_conflict_cycles
        if request.kind.value == "write":
            cost += self.timing.write_extra_cycles
        return cost

    def access(self, request: MemoryRequest) -> int:
        """Perform the access: update row-buffer state, return the cost."""
        bank = self.bank_of(request.address)
        row = self.row_of(request.address)
        open_row = self._open_rows[bank]
        if open_row == row:
            self.hits += 1
        elif open_row is None:
            self.misses += 1
        else:
            self.conflicts += 1
        cost = self.access_cost(request)
        self._open_rows[bank] = row
        return cost

    def is_row_hit(self, request: MemoryRequest) -> bool:
        bank = self.bank_of(request.address)
        return self._open_rows[bank] == self.row_of(request.address)

    @property
    def total_accesses(self) -> int:
        return self.hits + self.misses + self.conflicts

    @property
    def row_hit_ratio(self) -> float:
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.hits / total


@dataclass(frozen=True)
class FixedLatencyDevice:
    """A degenerate device with one flat access cost.

    The analytical experiments (and several unit tests) use this to
    decouple interconnect behaviour from DRAM state; one interconnect
    time unit in the schedulability model corresponds to one such
    fixed-cost service slot.
    """

    cycles_per_access: int = 20

    def __post_init__(self) -> None:
        if self.cycles_per_access <= 0:
            raise ConfigurationError("access cost must be positive")

    def access(self, request: MemoryRequest) -> int:
        return self.cycles_per_access

    def access_cost(self, request: MemoryRequest) -> int:
        return self.cycles_per_access
