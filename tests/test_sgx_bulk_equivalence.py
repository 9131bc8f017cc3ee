"""The batched bulk path against the per-block path of the MEE.

``bulk_write``/``bulk_read`` move a range as contiguous arrays and walk
the integrity tree once per level; ``write``/``read`` walk it once per
64-byte block.  Both must leave byte-identical DRAM, the same on-chip
root counter and the same :class:`MEEStats`, read each other's images,
and detect the same tampering.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SecurityError
from repro.memory.dram import DRAMDevice
from repro.memory.nvm import PCMDevice
from repro.memory.store import PAGE_SIZE
from repro.sgx.cache import MEECache
from repro.sgx.integrity_tree import BLOCK_SIZE, TreeGeometry
from repro.sgx.mee import MemoryEncryptionEngine

MASTER = b"fuse-master-key-0123456789abcdef"
REGION_BASE = 1 << 20
#: 1024 blocks: level counts (128, 16, 2, 1), so ranges can cross level-1
#: (512 B), level-2 (4 KiB) and level-3 (32 KiB) node boundaries.
DATA_SIZE = 64 * 1024
DEVICES = {
    "dram": lambda: DRAMDevice("dram", capacity_bytes=8 << 20),
    "pcm": lambda: PCMDevice(capacity_bytes=8 << 20),
}

RANGES = [
    pytest.param(0, 4096, id="aligned-level2-node"),
    pytest.param(4096, 8192, id="aligned-two-level2-nodes"),
    pytest.param(0, DATA_SIZE, id="whole-region"),
    pytest.param(10, 20, id="inside-one-block"),
    pytest.param(0, 10, id="head-of-one-block"),
    pytest.param(54, 10, id="tail-of-one-block"),
    pytest.param(30, 200, id="unaligned-both-edges"),
    pytest.param(500, 600, id="crosses-level1-boundary"),
    pytest.param(4000, 5000, id="crosses-level2-boundary"),
    pytest.param(32 * 1024 - 100, 300, id="crosses-level3-boundary"),
    pytest.param(DATA_SIZE - 70, 70, id="partial-end-of-capacity"),
]


def make_engine(device_kind="dram", data_size=DATA_SIZE):
    device = DEVICES[device_kind]()
    geometry = TreeGeometry.for_data_size(REGION_BASE, data_size)
    mee = MemoryEncryptionEngine(device, geometry, MASTER, MEECache())
    mee.initialize_region()
    return device, mee


def payload(length, salt=0):
    return bytes((index * 31 + salt * 7 + 5) % 251 for index in range(length))


def assert_same_state(per_block, bulk):
    (device_a, mee_a), (device_b, mee_b) = per_block, bulk
    assert device_a._store._pages == device_b._store._pages
    assert mee_a.tree.root_counter == mee_b.tree.root_counter
    assert mee_a.stats == mee_b.stats


@pytest.mark.parametrize("device_kind", sorted(DEVICES))
class TestSameStateAsPerBlockPath:
    def test_initialized_regions_identical(self, device_kind):
        assert_same_state(make_engine(device_kind), make_engine(device_kind))

    @pytest.mark.parametrize("offset, length", RANGES)
    def test_write_then_read(self, device_kind, offset, length):
        per_block, bulk = make_engine(device_kind), make_engine(device_kind)
        data = payload(length)
        per_block[1].write(offset, data)
        bulk[1].bulk_write(offset, data)
        assert_same_state(per_block, bulk)
        assert per_block[1].read(offset, length)[0] == data
        assert bulk[1].bulk_read(offset, length)[0] == data
        assert_same_state(per_block, bulk)

    def test_repeated_writes_bump_versions(self, device_kind):
        per_block, bulk = make_engine(device_kind), make_engine(device_kind)
        writes = [(0, 8192), (100, 3000), (4000, 5000), (0, 8192)]
        for salt, (offset, length) in enumerate(writes):
            per_block[1].write(offset, payload(length, salt))
            bulk[1].bulk_write(offset, payload(length, salt))
            assert_same_state(per_block, bulk)
        assert bulk[1].tree.read_versions(0, 1) == [2]
        assert bulk[1].tree.read_versions(1, 1) == [3]  # partial rewrite too
        assert bulk[1].bulk_read(0, 8192)[0] == per_block[1].read(0, 8192)[0]

    def test_cross_reads(self, device_kind):
        per_block, bulk = make_engine(device_kind), make_engine(device_kind)
        data = payload(9000)
        per_block[1].write(300, data)
        bulk[1].bulk_write(300, data)
        assert per_block[1].bulk_read(300, len(data))[0] == data
        assert bulk[1].read(300, len(data))[0] == data
        assert_same_state(per_block, bulk)


class TestSameStateProperty:
    @given(
        offset=st.integers(min_value=0, max_value=8191),
        data=st.binary(min_size=1, max_size=2048),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_range(self, offset, data):
        data = data[: 8192 - offset]
        per_block = make_engine(data_size=8192)
        bulk = make_engine(data_size=8192)
        per_block[1].write(offset, data)
        bulk[1].bulk_write(offset, data)
        assert_same_state(per_block, bulk)
        assert bulk[1].bulk_read(offset, len(data))[0] == data
        assert per_block[1].read(offset, len(data))[0] == data
        assert_same_state(per_block, bulk)


class TestCacheCoherence:
    def test_per_block_read_after_bulk_write_sees_new_data(self):
        _device, mee = make_engine()
        mee.bulk_write(0, payload(8192, salt=1))
        for offset in range(0, 8192, 512):
            mee.read(offset, 64)  # warm the cache with verified counters
        assert mee.cache.occupancy > 0
        fresh = payload(8192, salt=2)
        mee.bulk_write(0, fresh)
        assert mee.read(0, 8192)[0] == fresh
        mee.write(64, b"per-block")
        assert mee.bulk_read(64, 9)[0] == b"per-block"

    def test_bulk_write_drops_every_touched_entry(self):
        _device, mee = make_engine()
        mee.read(0, 64)
        mee.read(DATA_SIZE - 64, 64)
        mee.bulk_write(0, bytes(128))
        cached = {key for line in mee.cache._lines.values() for key in line}
        assert (0, 0) not in cached and (1, 0) not in cached
        assert (0, DATA_SIZE // BLOCK_SIZE - 1) in cached  # untouched leaf stays


def _flip(device, address):
    byte = device._store.read(address, 1)
    device._store.write(address, bytes([byte[0] ^ 0x01]))


TAMPERS = {
    "data-byte": lambda geometry: geometry.block_address(5) + 7,
    "version": lambda geometry: geometry.version_address(5),
    "leaf-mac": lambda geometry: geometry.leaf_mac_address(5),
    "level1-counter": lambda geometry: geometry.node_address(1, 0) + 7,
    "level2-mac": lambda geometry: geometry.node_address(2, 0) + 8,
    "top-counter": lambda geometry: geometry.node_address(geometry.levels, 0) + 7,
}
READ_PATHS = {
    "read": lambda mee, offset, length: mee.read(offset, length),
    "bulk_read": lambda mee, offset, length: mee.bulk_read(offset, length),
}


@pytest.mark.parametrize("path", sorted(READ_PATHS))
class TestTamperDetection:
    @pytest.mark.parametrize("target", sorted(TAMPERS))
    def test_flip_detected(self, path, target):
        device, mee = make_engine()
        mee.bulk_write(0, payload(4096))
        mee.power_on(mee.power_off())  # drop trusted cached counters
        _flip(device, TAMPERS[target](mee.geometry))
        with pytest.raises(SecurityError):
            READ_PATHS[path](mee, 0, 4096)
        assert mee.stats.integrity_violations == 1

    def test_whole_region_replay_across_power_cycle(self, path):
        device, mee = make_engine()
        mee.bulk_write(0, payload(4096, salt=1))
        geometry = mee.geometry
        snapshot = device._store.read(REGION_BASE, geometry.total_size)
        mee.power_on(mee.power_off())
        mee.bulk_write(0, payload(4096, salt=2))
        state = mee.power_off()
        device._store.write(REGION_BASE, snapshot)  # valid, but stale
        mee.power_on(state)
        with pytest.raises(SecurityError):
            READ_PATHS[path](mee, 0, 4096)
        assert mee.stats.integrity_violations == 1


class TestNVMWear:
    def test_one_bulk_write_writes_each_data_region_once(self):
        device, mee = make_engine("pcm", data_size=32 * 1024)
        before = device.wear_level_report()
        mee.bulk_write(0, payload(32 * 1024))
        after = device.wear_level_report()
        first = REGION_BASE // PAGE_SIZE
        for region in range(first, first + 32 * 1024 // PAGE_SIZE):
            assert after[region] - before.get(region, 0) == 1
