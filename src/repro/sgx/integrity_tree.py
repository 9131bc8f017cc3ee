"""Counter-based integrity tree over the protected region.

An 8-ary tree in the style of SGX's MEE (Gueron [28]):

* every 64-byte data block has a 64-bit **version counter** and a MAC that
  binds ``(block address, version, ciphertext)``;
* level-1 nodes hold a counter and a MAC over their 8 children's version
  counters; higher levels repeat the construction over the counters below;
* the single top-level counter is mirrored **on-chip** — that mirror is
  the root of trust that defeats replay of a wholesale DRAM snapshot.

All metadata except the on-chip root really lives in the DRAM model, so a
test can flip any DRAM byte and watch verification fail.  Every metadata
access is charged to the backing device (latency + energy), which is what
makes the MEE-cache ablation measurable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SecurityError
from repro.sgx.cache import MEECache
from repro.sgx.crypto import MacKey, pack_counter, unpack_counter

BLOCK_SIZE = 64
ARITY = 8
COUNTER_BYTES = 8
MAC_BYTES = 8
RECORD_BYTES = COUNTER_BYTES + MAC_BYTES  # one interior node: counter + MAC
_COUNTER_MASK = (1 << 64) - 1


def _pack_counters(values: Sequence[int]) -> bytes:
    """Serialize consecutive counters (the :func:`pack_counter` layout)."""
    return struct.pack(f">{len(values)}Q", *(value & _COUNTER_MASK for value in values))


@dataclass(frozen=True)
class TreeGeometry:
    """Address layout of data + metadata inside the protected region.

    Layout (all offsets relative to the region base)::

        [ data blocks | leaf versions | leaf MACs | per-level counters+MACs ]
    """

    region_base: int
    data_blocks: int
    level_counts: Tuple[int, ...]

    @classmethod
    def for_data_size(cls, region_base: int, data_size: int) -> "TreeGeometry":
        """Compute geometry for ``data_size`` bytes of protected data."""
        if data_size <= 0:
            raise SecurityError("protected data size must be positive")
        blocks = -(-data_size // BLOCK_SIZE)
        counts: List[int] = []
        nodes = -(-blocks // ARITY)
        while True:
            counts.append(nodes)
            if nodes == 1:
                break
            nodes = -(-nodes // ARITY)
        return cls(region_base=region_base, data_blocks=blocks, level_counts=tuple(counts))

    @property
    def levels(self) -> int:
        return len(self.level_counts)

    # --- offsets -------------------------------------------------------------

    @property
    def data_offset(self) -> int:
        return self.region_base

    @property
    def versions_offset(self) -> int:
        return self.region_base + self.data_blocks * BLOCK_SIZE

    @property
    def leaf_macs_offset(self) -> int:
        return self.versions_offset + self.data_blocks * COUNTER_BYTES

    def level_offset(self, level: int) -> int:
        """Offset of level ``level`` (1-based) counter+MAC records."""
        if not 1 <= level <= self.levels:
            raise SecurityError(f"level {level} out of range 1..{self.levels}")
        offset = self.leaf_macs_offset + self.data_blocks * MAC_BYTES
        for lower in range(1, level):
            offset += self.level_counts[lower - 1] * (COUNTER_BYTES + MAC_BYTES)
        return offset

    @property
    def total_size(self) -> int:
        """Bytes of region consumed by data plus all metadata."""
        metadata = self.data_blocks * (COUNTER_BYTES + MAC_BYTES)
        metadata += sum(count * (COUNTER_BYTES + MAC_BYTES) for count in self.level_counts)
        return self.data_blocks * BLOCK_SIZE + metadata

    def block_address(self, block: int) -> int:
        self._check_block(block)
        return self.data_offset + block * BLOCK_SIZE

    def version_address(self, block: int) -> int:
        self._check_block(block)
        return self.versions_offset + block * COUNTER_BYTES

    def leaf_mac_address(self, block: int) -> int:
        self._check_block(block)
        return self.leaf_macs_offset + block * MAC_BYTES

    def node_address(self, level: int, index: int) -> int:
        if not 0 <= index < self.level_counts[level - 1]:
            raise SecurityError(f"node index {index} out of range at level {level}")
        return self.level_offset(level) + index * (COUNTER_BYTES + MAC_BYTES)

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.data_blocks:
            raise SecurityError(f"block {block} out of range 0..{self.data_blocks - 1}")


class IntegrityTree:
    """Tree walks (verify) and updates (write) with access accounting.

    ``device`` must expose ``read(addr, n) -> (bytes, latency_ps)`` and
    ``write(addr, data) -> latency_ps`` (both DRAM and NVM devices do).
    """

    def __init__(
        self,
        geometry: TreeGeometry,
        device,
        mac_key: MacKey,
        cache: Optional[MEECache] = None,
    ) -> None:
        self.geometry = geometry
        self.device = device
        self.mac_key = mac_key
        self.cache = cache
        self.root_counter = 0  # the on-chip trusted mirror
        self.metadata_accesses = 0
        self.metadata_latency_ps = 0

    # --- raw metadata IO -------------------------------------------------------

    def _read(self, address: int, length: int) -> bytes:
        data, latency = self.device.read(address, length)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency
        return data

    def _write(self, address: int, data: bytes) -> None:
        latency = self.device.write(address, data)
        self.metadata_accesses += 1
        self.metadata_latency_ps += latency

    # --- counters -----------------------------------------------------------------

    def read_version(self, block: int) -> int:
        """Leaf version counter of ``block`` (cache-aware, unverified)."""
        if self.cache is not None:
            cached = self.cache.lookup((0, block))
            if cached is not None:
                return cached
        value = unpack_counter(self._read(self.geometry.version_address(block), COUNTER_BYTES))
        return value

    def _children_of(self, level: int, index: int) -> bytes:
        """Concatenated counters of the children of node (level, index)."""
        first = index * ARITY
        if level == 1:
            # children are leaf versions
            last = min(first + ARITY, self.geometry.data_blocks)
            raw = self._read(
                self.geometry.version_address(first), (last - first) * COUNTER_BYTES
            )
        else:
            last = min(first + ARITY, self.geometry.level_counts[level - 2])
            parts = []
            for child in range(first, last):
                record = self._read(
                    self.geometry.node_address(level - 1, child), COUNTER_BYTES
                )
                parts.append(record)
            raw = b"".join(parts)
        # pad missing children with zero counters so the MAC input width is fixed
        missing = ARITY - (last - first)
        return raw + pack_counter(0) * missing

    def _node_mac_input(self, level: int, index: int, counter: int, children: bytes) -> tuple:
        label = f"node:{level}:{index}".encode("ascii")
        return (label, pack_counter(counter), children)

    def _leaf_mac_input(self, block: int, version: int, ciphertext: bytes) -> tuple:
        address = self.geometry.block_address(block)
        return (b"data", pack_counter(address), pack_counter(version), ciphertext)

    def leaf_mac(self, block: int, version: int, ciphertext: bytes) -> bytes:
        """The MAC binding ``(block address, version, ciphertext)``."""
        return self.mac_key.tag(*self._leaf_mac_input(block, version, ciphertext))

    # --- verification walk ------------------------------------------------------------

    def verify_block(self, block: int, ciphertext: bytes) -> int:
        """Verify ``ciphertext`` of ``block``; return its trusted version.

        Walks the tree from the leaf upward, stopping early at a cache hit
        (cached counters are trusted).  Raises
        :class:`~repro.errors.SecurityError` on any mismatch.
        """
        geometry = self.geometry
        version_cached = None
        if self.cache is not None:
            version_cached = self.cache.lookup((0, block))
        version = (
            version_cached
            if version_cached is not None
            else unpack_counter(self._read(geometry.version_address(block), COUNTER_BYTES))
        )
        stored_mac = self._read(geometry.leaf_mac_address(block), MAC_BYTES)
        if not self.mac_key.verify(stored_mac, *self._leaf_mac_input(block, version, ciphertext)):
            raise SecurityError(f"data MAC mismatch on block {block}")
        if version_cached is not None:
            return version  # the version itself was trusted; done
        self._verify_counters_upward(block, version)
        if self.cache is not None:
            self.cache.insert((0, block), version)
        return version

    def _verify_counters_upward(self, block: int, leaf_version: int) -> None:
        geometry = self.geometry
        child_index = block
        for level in range(1, geometry.levels + 1):
            index = child_index // ARITY
            cached = self.cache.lookup((level, index)) if self.cache is not None else None
            if cached is not None:
                counter = cached
                trusted = True
            else:
                counter = unpack_counter(
                    self._read(geometry.node_address(level, index), COUNTER_BYTES)
                )
                trusted = False
            children = self._children_of(level, index)
            stored_mac = self._read(
                geometry.node_address(level, index) + COUNTER_BYTES, MAC_BYTES
            )
            if not self.mac_key.verify(
                stored_mac, *self._node_mac_input(level, index, counter, children)
            ):
                raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
            if level == 1:
                # confirm the leaf version we used is the one under this MAC
                offset = (block % ARITY) * COUNTER_BYTES
                covered = unpack_counter(children[offset : offset + COUNTER_BYTES])
                if covered != leaf_version:
                    raise SecurityError(f"leaf version replay on block {block}")
            if trusted:
                return  # cached counters are inside the security perimeter
            if self.cache is not None:
                self.cache.insert((level, index), counter)
            if level == geometry.levels:
                if counter != self.root_counter:
                    raise SecurityError(
                        f"root counter mismatch: DRAM={counter} on-chip={self.root_counter}"
                    )
                return
            child_index = index

    # --- update walk -----------------------------------------------------------------------

    def update_block(self, block: int, new_version: int, ciphertext: bytes) -> None:
        """Install a new version + MAC for ``block`` and bump the tree.

        The caller has already written the ciphertext to the data area;
        this routine writes the leaf metadata and re-MACs every node on
        the path to the root, bumping each counter (and the on-chip root).
        """
        geometry = self.geometry
        self._write(geometry.version_address(block), pack_counter(new_version))
        self._write(geometry.leaf_mac_address(block), self.leaf_mac(block, new_version, ciphertext))
        if self.cache is not None:
            self.cache.insert((0, block), new_version)

        child_index = block
        for level in range(1, geometry.levels + 1):
            index = child_index // ARITY
            node_address = geometry.node_address(level, index)
            counter = unpack_counter(self._read(node_address, COUNTER_BYTES)) + 1
            self._write(node_address, pack_counter(counter))
            children = self._children_of(level, index)
            mac = self.mac_key.tag(*self._node_mac_input(level, index, counter, children))
            self._write(node_address + COUNTER_BYTES, mac)
            if self.cache is not None:
                self.cache.insert((level, index), counter)
            child_index = index
        self.root_counter += 1

    # --- range passes (bulk transfers) --------------------------------------------------

    def _level_size(self, level: int) -> int:
        """Entries at ``level``: leaf versions at 0, interior nodes above."""
        if level == 0:
            return self.geometry.data_blocks
        return self.geometry.level_counts[level - 1]

    def _sibling_span(self, level: int, lo: int, hi: int) -> Tuple[int, int]:
        """``[start, stop)`` of the whole sibling groups holding entries ``lo..hi``."""
        return lo - lo % ARITY, min(hi - hi % ARITY + ARITY, self._level_size(level))

    def _read_counters(self, level: int, start: int, stop: int) -> Tuple[List[int], bytes]:
        """Counters of entries ``start..stop-1`` at ``level`` (one read) and the raw bytes."""
        count = stop - start
        if level == 0:
            raw = self._read(self.geometry.version_address(start), count * COUNTER_BYTES)
            return list(struct.unpack(f">{count}Q", raw)), raw
        raw = self._read(self.geometry.node_address(level, start), count * RECORD_BYTES)
        return list(struct.unpack(f">{2 * count}Q", raw)[0::2]), raw

    @staticmethod
    def _child_bytes(children: List[int], start: int, index: int) -> bytes:
        """MAC input of node ``index``'s children; ``children[0]`` is entry ``start``."""
        first = index * ARITY - start
        present = children[first : first + ARITY]
        return _pack_counters(present) + pack_counter(0) * (ARITY - len(present))

    def read_versions(self, first: int, count: int) -> List[int]:
        """Leaf versions of blocks ``first..first+count-1`` (one read, unverified)."""
        return self._read_counters(0, first, first + count)[0]

    def update_range(self, first: int, versions: Sequence[int], ciphertext: bytes) -> None:
        """:meth:`update_block` for consecutive blocks, one pass per tree level.

        Installs ``versions[i]`` and the MAC of ``ciphertext``'s block ``i``
        for block ``first + i``.  Leaves the same DRAM image and root
        counter as one :meth:`update_block` per block: each touched node's
        counter grows by the number of updated blocks beneath it and is
        re-MACed once, over its final children.  Cached counters of every
        touched entry are dropped.
        """
        geometry = self.geometry
        self._write(geometry.version_address(first), _pack_counters(versions))
        self._write(
            geometry.leaf_mac_address(first),
            b"".join(
                self.leaf_mac(first + i, version, ciphertext[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
                for i, version in enumerate(versions)
            ),
        )
        lo, hi = first, first + len(versions) - 1
        spans = [(lo, hi)]
        start, stop = self._sibling_span(0, lo, hi)
        children = self._read_counters(0, start, stop)[0]
        bumps = [1] * len(versions)
        for level in range(1, geometry.levels + 1):
            parent_lo, parent_hi = lo // ARITY, hi // ARITY
            parent_bumps = [0] * (parent_hi - parent_lo + 1)
            for child, bump in enumerate(bumps, lo):
                parent_bumps[child // ARITY - parent_lo] += bump
            node_start, node_stop = self._sibling_span(level, parent_lo, parent_hi)
            counters = self._read_counters(level, node_start, node_stop)[0]
            records = []
            for index, bump in enumerate(parent_bumps, parent_lo):
                counter = (counters[index - node_start] + bump) & _COUNTER_MASK
                counters[index - node_start] = counter
                mac = self.mac_key.tag(
                    *self._node_mac_input(
                        level, index, counter, self._child_bytes(children, start, index)
                    )
                )
                records.append(pack_counter(counter) + mac)
            self._write(geometry.node_address(level, parent_lo), b"".join(records))
            lo, hi, bumps = parent_lo, parent_hi, parent_bumps
            children, start = counters, node_start
            spans.append((lo, hi))
        self.root_counter += len(versions)
        if self.cache is not None:
            self.cache.invalidate_spans(spans)

    def verify_range(self, first: int, ciphertext: bytes) -> List[int]:
        """:meth:`verify_block` for consecutive blocks; returns their versions.

        ``ciphertext`` holds whole blocks from ``first``.  Every block's MAC
        is checked, then every touched node once, bottom-up, up to the top
        counter, which must equal the on-chip root.  The MEE cache is
        neither consulted nor filled: the walk always reaches the root.
        Raises :class:`~repro.errors.SecurityError` on any mismatch.
        """
        geometry = self.geometry
        lo, hi = first, first + len(ciphertext) // BLOCK_SIZE - 1
        start, stop = self._sibling_span(0, lo, hi)
        children = self._read_counters(0, start, stop)[0]
        versions = children[lo - start : hi - start + 1]
        stored = self._read(geometry.leaf_mac_address(first), len(versions) * MAC_BYTES)
        for i, version in enumerate(versions):
            block = first + i
            block_ciphertext = ciphertext[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
            if not self.mac_key.verify(
                stored[i * MAC_BYTES : (i + 1) * MAC_BYTES],
                *self._leaf_mac_input(block, version, block_ciphertext),
            ):
                raise SecurityError(f"data MAC mismatch on block {block}")
        for level in range(1, geometry.levels + 1):
            lo, hi = lo // ARITY, hi // ARITY
            node_start, node_stop = self._sibling_span(level, lo, hi)
            counters, raw = self._read_counters(level, node_start, node_stop)
            for index in range(lo, hi + 1):
                at = index - node_start
                stored_mac = raw[at * RECORD_BYTES + COUNTER_BYTES : (at + 1) * RECORD_BYTES]
                if not self.mac_key.verify(
                    stored_mac,
                    *self._node_mac_input(
                        level, index, counters[at], self._child_bytes(children, start, index)
                    ),
                ):
                    raise SecurityError(f"tree MAC mismatch at level {level} node {index}")
            children, start = counters, node_start
        if children[0] != self.root_counter:
            raise SecurityError(
                f"root counter mismatch: DRAM={children[0]} on-chip={self.root_counter}"
            )
        return versions

    # --- initialization ------------------------------------------------------------------------

    def initialize(self, leaf_macs: Optional[bytes] = None) -> None:
        """Write a consistent version-0 metadata state (region setup).

        Every leaf version is 0 with a valid MAC over the block's initial
        ciphertext, every node counter is 0 with a valid MAC over its
        (all-zero) children — so the very first verified read of an
        untouched block succeeds.  ``leaf_macs`` concatenates every
        block's version-0 MAC (:meth:`leaf_mac` of its initial ciphertext;
        the MEE passes those of encrypted zeros); by default each block is
        assumed to hold the raw zero block.  Each metadata array is
        written in one access.
        """
        geometry = self.geometry
        blocks = geometry.data_blocks
        if leaf_macs is None:
            zero_block = bytes(BLOCK_SIZE)
            leaf_macs = b"".join(self.leaf_mac(block, 0, zero_block) for block in range(blocks))
        if len(leaf_macs) != blocks * MAC_BYTES:
            raise SecurityError("initial leaf MACs do not cover the region")
        self._write(geometry.versions_offset, bytes(blocks * COUNTER_BYTES))
        self._write(geometry.leaf_macs_offset, leaf_macs)
        zero_children = pack_counter(0) * ARITY
        for level in range(1, geometry.levels + 1):
            self._write(
                geometry.level_offset(level),
                b"".join(
                    pack_counter(0)
                    + self.mac_key.tag(*self._node_mac_input(level, index, 0, zero_children))
                    for index in range(geometry.level_counts[level - 1])
                ),
            )
        self.root_counter = 0
        if self.cache is not None:
            self.cache.flush()
