"""A minimal extent-based file system (ext4 stand-in).

RocksDB in the paper runs on ext4 over the block SSD.  The file system
matters to the results in three ways, all modeled:

* it maps variable-size files onto fixed-size logical blocks — one of the
  redundant mapping layers the paper's introduction calls out;
* it adds journaling and metadata write traffic (host CPU + device I/O);
* on file deletion it *discards* the freed extents, which is what lets the
  SSD erase whole blocks for dead SST files without relocation — the
  reason Fig. 6a shows no foreground-GC collapse for RocksDB.

Files are append-only streams of extents (exactly how an LSM engine uses
a file system), plus whole-file reads at arbitrary offsets and unlink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from repro.api.block import BlockDeviceAPI
from repro.errors import ConfigurationError, DeviceFullError
from repro.sim.engine import Environment, Event
from repro.units import KIB, MIB, align_up


@dataclass
class _File:
    """In-core inode: ordered extents plus logical size."""

    extents: List[Tuple[int, int]] = field(default_factory=list)  # (offset, len)
    size_bytes: int = 0


class SimFileSystem:
    """Extent-allocating file system over a :class:`BlockDeviceAPI`."""

    #: Allocation granularity (an ext4 block).
    FS_BLOCK = 4 * KIB
    #: Largest single extent handed out (keeps allocation realistic).
    MAX_EXTENT = 8 * MIB
    #: Journal region reserved at the start of the device.
    JOURNAL_BYTES = 4 * MIB
    #: Host CPU per metadata operation (journal encode, bitmap update).
    METADATA_CPU_US = 2.0

    def __init__(self, env: Environment, block_api: BlockDeviceAPI) -> None:
        self.env = env
        self.block_api = block_api
        device_bytes = block_api.device.user_capacity_bytes
        if device_bytes <= 2 * self.JOURNAL_BYTES:
            raise ConfigurationError("device too small for the file system")
        self._files: Dict[str, _File] = {}
        # Free space as a sorted list of (offset, length) runs.
        self._free: List[Tuple[int, int]] = [
            (self.JOURNAL_BYTES, device_bytes - self.JOURNAL_BYTES)
        ]
        self._journal_cursor = 0
        self.journal_writes = 0
        self.metadata_ops = 0

    # -- allocation ------------------------------------------------------

    def _allocate(self, nbytes: int) -> List[Tuple[int, int]]:
        """First-fit extent allocation of ``nbytes`` (FS-block aligned)."""
        needed = align_up(nbytes, self.FS_BLOCK)
        extents: List[Tuple[int, int]] = []
        index = 0
        while needed > 0 and index < len(self._free):
            offset, length = self._free[index]
            take = min(length, needed, self.MAX_EXTENT)
            extents.append((offset, take))
            needed -= take
            if take == length:
                self._free.pop(index)
            else:
                self._free[index] = (offset + take, length - take)
                index += 1
        if needed > 0:
            # Roll back the partial allocation before failing.
            for offset, length in extents:
                self._release(offset, length)
            raise DeviceFullError(
                f"file system cannot allocate {nbytes} bytes"
            )
        return extents

    def _release(self, offset: int, length: int) -> None:
        """Return an extent to the free list, coalescing neighbours."""
        self._free.append((offset, length))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for run_offset, run_length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == run_offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + run_length)
            else:
                merged.append((run_offset, run_length))
        self._free = merged

    def free_bytes(self) -> int:
        """Unallocated space."""
        return sum(length for _offset, length in self._free)

    # -- journal -----------------------------------------------------------

    def _journal_write(self) -> Generator[Event, None, None]:
        """Append one 4 KiB journal record (metadata transaction commit)."""
        offset = self._journal_cursor % (self.JOURNAL_BYTES - self.FS_BLOCK)
        offset -= offset % self.FS_BLOCK
        self._journal_cursor += self.FS_BLOCK
        self.journal_writes += 1
        yield from self.block_api.write(offset, self.FS_BLOCK)

    def _charge_metadata(self) -> None:
        self.block_api.driver.cpu.charge(self.METADATA_CPU_US)
        self.metadata_ops += 1

    # -- file operations -------------------------------------------------------

    def create(self, name: str) -> Generator[Event, None, None]:
        """Create an empty file (journaled metadata)."""
        if name in self._files:
            raise ConfigurationError(f"file {name!r} already exists")
        self._files[name] = _File()
        self._charge_metadata()
        yield from self._journal_write()

    def exists(self, name: str) -> bool:
        """Whether the file is present."""
        return name in self._files

    def size(self, name: str) -> int:
        """Logical size of a file."""
        return self._file(name).size_bytes

    def files(self) -> List[str]:
        """All file names, sorted."""
        return sorted(self._files)

    def append(self, name: str, nbytes: int) -> Generator[Event, None, None]:
        """Append ``nbytes`` to a file: allocate extents and write them."""
        if nbytes <= 0:
            raise ConfigurationError(f"append size must be positive, got {nbytes}")
        inode = self._file(name)
        self._charge_metadata()
        for offset, length in self._allocate(nbytes):
            inode.extents.append((offset, length))
            remaining = length
            position = offset
            while remaining > 0:
                chunk = min(remaining, self.MAX_EXTENT)
                yield from self.block_api.write(position, chunk)
                position += chunk
                remaining -= chunk
        inode.size_bytes += nbytes
        yield from self._journal_write()

    def read(self, name: str, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """Read ``nbytes`` at ``offset``; rounds to FS blocks like a real FS."""
        inode = self._file(name)
        if offset < 0 or nbytes <= 0 or offset + nbytes > inode.size_bytes:
            raise ConfigurationError(
                f"read [{offset}, {offset + nbytes}) outside file of "
                f"{inode.size_bytes} bytes"
            )
        start = offset - offset % self.FS_BLOCK
        end = align_up(offset + nbytes, self.FS_BLOCK)
        for device_offset, length in self._extents_for(inode, start, end - start):
            yield from self.block_api.read(device_offset, length)

    def unlink(self, name: str) -> Generator[Event, None, None]:
        """Delete a file, discarding (TRIM) its extents."""
        inode = self._files.pop(name, None)
        if inode is None:
            raise ConfigurationError(f"file {name!r} does not exist")
        self._charge_metadata()
        for offset, length in inode.extents:
            yield from self.block_api.deallocate(offset, length)
            self._release(offset, length)
        yield from self._journal_write()

    def prime_file(self, name: str, nbytes: int) -> None:
        """Create a file and prime its extents on the device (untimed).

        Experiment setup counterpart of ``create`` + ``append``: the
        allocator and the device mapping end up in the same state, but no
        simulated time passes.  Used to pre-build LSM trees before a
        measured phase.
        """
        if name in self._files:
            raise ConfigurationError(f"file {name!r} already exists")
        if nbytes <= 0:
            raise ConfigurationError(f"prime size must be positive, got {nbytes}")
        inode = _File()
        device = self.block_api.device
        for offset, length in self._allocate(nbytes):
            inode.extents.append((offset, length))
            device.prime_sequential_fill(
                length // device.map_unit, offset // device.map_unit
            )
        inode.size_bytes = nbytes
        self._files[name] = inode
        self.metadata_ops += 1

    # -- helpers ------------------------------------------------------------

    def _file(self, name: str) -> _File:
        inode = self._files.get(name)
        if inode is None:
            raise ConfigurationError(f"file {name!r} does not exist")
        return inode

    def _extents_for(
        self, inode: _File, start: int, nbytes: int
    ) -> List[Tuple[int, int]]:
        """Device ranges backing file range [start, start+nbytes)."""
        ranges: List[Tuple[int, int]] = []
        logical = 0
        remaining_start = start
        remaining = nbytes
        for offset, length in inode.extents:
            if remaining <= 0:
                break
            extent_end = logical + length
            if extent_end <= remaining_start:
                logical = extent_end
                continue
            in_extent = max(remaining_start - logical, 0)
            take = min(length - in_extent, remaining)
            ranges.append((offset + in_extent, take))
            remaining -= take
            remaining_start += take
            logical = extent_end
        if remaining > 0:
            raise ConfigurationError("file extents shorter than logical size")
        return ranges
