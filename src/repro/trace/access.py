"""Memory-access primitives shared by every simulator component.

A trace is any iterable of :class:`Access` objects.  Addresses are plain
Python integers interpreted as byte addresses in a 32-bit physical
address space, matching the paper's experimental setup (Section 3.2:
"The address is assumed to have 32 bits").
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterable

ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1


class AccessType(enum.IntEnum):
    """Kind of memory reference, mirroring Dinero/din trace records."""

    READ = 0
    WRITE = 1
    IFETCH = 2

    @property
    def is_write(self) -> bool:
        """True for WRITE."""
        return self is AccessType.WRITE

    @property
    def is_instruction(self) -> bool:
        """True for IFETCH."""
        return self is AccessType.IFETCH


@dataclass(frozen=True, slots=True)
class Access:
    """A single memory reference.

    Attributes:
        address: byte address (masked to 32 bits).
        kind: read / write / instruction fetch.
    """

    address: int
    kind: AccessType = AccessType.READ

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", self.address & ADDRESS_MASK)

    @property
    def is_write(self) -> bool:
        """True when this access is a store."""
        return self.kind is AccessType.WRITE

    @property
    def is_instruction(self) -> bool:
        """True when this access is an instruction fetch."""
        return self.kind is AccessType.IFETCH

    def block_address(self, line_size: int) -> int:
        """Address of the containing cache block for ``line_size`` bytes."""
        return self.address & ~(line_size - 1)


def read_access(address: int) -> Access:
    """Convenience constructor for a data read."""
    return Access(address, AccessType.READ)


def write_access(address: int) -> Access:
    """Convenience constructor for a data write."""
    return Access(address, AccessType.WRITE)


def ifetch_access(address: int) -> Access:
    """Convenience constructor for an instruction fetch."""
    return Access(address, AccessType.IFETCH)


def access_columns(trace: Iterable[Access]) -> tuple[array, array]:
    """An :class:`Access` stream as ``(uint64 addresses, uint8 kinds)``
    columns, the layout the trace store persists and the batch kernels
    consume."""
    addresses = array("Q")
    kinds = array("B")
    append_address = addresses.append
    append_kind = kinds.append
    try:
        for access in trace:
            append_address(access.address)
            append_kind(access.kind)
    except AttributeError as exc:
        raise TypeError(
            "expected Access records (an address column needs its kinds column)"
        ) from exc
    return addresses, kinds
