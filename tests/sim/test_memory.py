"""Tests for the simulated memory."""

import numpy as np
import pytest

from repro.sim import Memory, MemoryError_


class TestAllocation:
    def test_alloc_zeroed(self):
        mem = Memory()
        buf = mem.alloc((4, 4), np.int32)
        assert (buf.array == 0).all()
        assert buf.array.shape == (4, 4)

    def test_place_copies(self):
        mem = Memory()
        source = np.arange(8, dtype=np.int8)
        buf = mem.place(source)
        source[0] = 99
        assert buf.array[0] == 0

    def test_addresses_disjoint_and_aligned(self):
        mem = Memory(alignment=64)
        a = mem.alloc(100, np.int8)
        b = mem.alloc(100, np.int8)
        assert b.addr >= a.addr + 100
        assert a.addr % 64 == 0
        assert b.addr % 64 == 0

    def test_buffer_at(self):
        mem = Memory()
        a = mem.alloc(16, np.int8)
        assert mem.buffer_at(a.addr) is a
        assert mem.buffer_at(a.addr + 15) is a
        with pytest.raises(MemoryError_):
            mem.buffer_at(a.addr + 1000000)


class TestMemoryDuplicate:
    def test_duplicate_is_deep_and_preserves_layout(self):
        memory = Memory()
        buffer = memory.alloc(4, np.int64)
        buffer.array[:] = [1, 2, 3, 4]
        clone = memory.duplicate()
        assert [b.array.tolist() for b in clone.buffers] == [[1, 2, 3, 4]]
        assert clone.buffers[0].addr == buffer.addr
        clone.buffers[0].array[0] = 99
        assert buffer.array[0] == 1
        # Allocation cursor is preserved: next addresses stay identical.
        assert clone.alloc(2, np.int64).addr == memory.alloc(2, np.int64).addr


class TestMatrixAccess:
    def test_read_matrix_row_major(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8).reshape(4, 4))
        tile = mem.read_matrix(buf.addr, 2, 2, 4, np.int8)
        assert (tile == [[0, 1], [4, 5]]).all()

    def test_read_with_offset(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8).reshape(4, 4))
        tile = mem.read_matrix(buf.addr + 5, 2, 2, 4, np.int8)
        assert (tile == [[5, 6], [9, 10]]).all()

    def test_write_matrix(self):
        mem = Memory()
        buf = mem.alloc((4, 4), np.int32)
        mem.write_matrix(
            buf.addr + 4 * 5, np.full((2, 2), 7, dtype=np.int32), 4
        )
        assert buf.array[1, 1] == 7
        assert buf.array[2, 2] == 7
        assert buf.array[0, 0] == 0

    def test_dtype_mismatch_rejected(self):
        mem = Memory()
        buf = mem.alloc(16, np.int8)
        with pytest.raises(MemoryError_, match="dtype"):
            mem.read_matrix(buf.addr, 2, 2, 4, np.int32)

    def test_misaligned_access_rejected(self):
        mem = Memory()
        buf = mem.alloc((4, 4), np.int32)
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.read_matrix(buf.addr + 2, 1, 1, 4, np.int32)

    def test_overrun_rejected(self):
        mem = Memory()
        buf = mem.alloc((2, 2), np.int8)
        with pytest.raises(MemoryError_, match="overrun"):
            mem.read_matrix(buf.addr, 4, 4, 4, np.int8)

    def test_write_overrun_rejected(self):
        mem = Memory()
        buf = mem.alloc((2, 2), np.int32)
        with pytest.raises(MemoryError_, match="overrun"):
            mem.write_matrix(buf.addr, np.zeros((4, 4), np.int32), 4)


class TestRegionTable:
    """Each access reads the buffer's region, resolved once at allocation;
    the messages are the ones the buffer scan gave."""

    def test_messages(self):
        mem = Memory()
        small = mem.alloc(4, np.int8)
        words = mem.alloc(4, np.int32)
        cases = [
            (0x10, np.int8, "address 0x10 is not inside any allocation"),
            (small.addr, np.int32, f"access at {small.addr:#x} with dtype int32 "
             "but region holds int8"),
            (words.addr + 2, np.int32, f"misaligned access at {words.addr + 2:#x}"),
        ]
        for addr, dtype, message in cases:
            with pytest.raises(MemoryError_) as error:
                mem.read_matrix(addr, 1, 1, 1, dtype)
            assert str(error.value) == message

    def test_any_spelling_of_the_dtype(self):
        mem = Memory()
        buf = mem.place(np.arange(4, dtype=np.int32))
        for dtype in (np.int32, np.dtype(np.int32), "int32", buf.array.dtype):
            assert mem.read_matrix(buf.addr, 1, 4, 4, dtype).tolist() == [[0, 1, 2, 3]]

    def test_byte_swapped_region_rejects_the_native_scalar_type(self):
        mem = Memory()
        buf = mem.place(np.arange(4, dtype=">i4"))
        with pytest.raises(MemoryError_, match="region holds >i4"):
            mem.read_matrix(buf.addr, 1, 4, 4, np.int32)
        with pytest.raises(MemoryError_, match="with dtype float64"):
            mem.read_matrix(buf.addr, 1, 4, 4, None)
        tile = mem.read_matrix(buf.addr, 1, 4, 4, buf.array.dtype)
        assert tile.tolist() == [[0, 1, 2, 3]]

    def test_duplicate_accesses_its_own_arrays(self):
        mem = Memory()
        buf = mem.place(np.arange(4, dtype=np.int32))
        clone = mem.duplicate()
        clone.write_matrix(buf.addr, np.full((1, 2), 9, np.int32), 2)
        assert clone.buffers[0].array.tolist() == [9, 9, 2, 3]
        assert buf.array.tolist() == [0, 1, 2, 3]
        assert mem.read_matrix(buf.addr, 1, 2, 2, np.int32).tolist() == [[0, 1]]


def _rows_read(flat, offset, rows, cols, row_stride):
    """The row-by-row definition of a strided tile read."""
    out = np.empty((rows, cols), dtype=flat.dtype)
    for r in range(rows):
        out[r] = flat[offset + r * row_stride : offset + r * row_stride + cols]
    return out


class TestStridedTiles:
    """Tiles move as one strided view; the row loop remains for overlapping
    rows, empty shapes and overruns.  Both must agree with the row-by-row
    definition."""

    @pytest.mark.parametrize("row_stride", [7, 4, 3, 1])
    def test_read_matches_row_definition(self, row_stride):
        mem = Memory()
        buf = mem.place(np.arange(40, dtype=np.int16))
        tile = mem.read_matrix(buf.addr + 2 * 3, 3, 4, row_stride, np.int16)
        assert tile.shape == (3, 4)
        expected = _rows_read(buf.array, 3, 3, 4, row_stride)
        assert (tile == expected).all()

    @pytest.mark.parametrize("row_stride", [7, 4, 3, 1])
    def test_write_matches_row_definition(self, row_stride):
        mem = Memory()
        buf = mem.alloc(40, np.int32)
        values = np.arange(1, 13, dtype=np.int32).reshape(3, 4)
        mem.write_matrix(buf.addr + 4 * 2, values, row_stride)
        expected = np.zeros(40, dtype=np.int32)
        for r in range(3):  # later rows win where rows overlap
            start = 2 + r * row_stride
            expected[start : start + 4] = values[r]
        assert (buf.array == expected).all()

    def test_write_leaves_the_stride_gap_untouched(self):
        mem = Memory()
        buf = mem.place(np.full((4, 6), -1, dtype=np.int8))
        mem.write_matrix(buf.addr + 1, np.zeros((4, 3), np.int8), 6)
        assert (buf.array[:, 1:4] == 0).all()
        assert (buf.array[:, [0, 4, 5]] == -1).all()

    def test_single_row(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int32))
        row = mem.read_matrix(buf.addr + 4 * 8, 1, 8, 8, np.int32)
        assert (row == [np.arange(8, 16)]).all()
        mem.write_matrix(buf.addr, -row, 8)
        assert (buf.array[:8] == -np.arange(8, 16)).all()

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8))
        assert mem.read_matrix(buf.addr, *shape, 4, np.int8).shape == shape
        mem.write_matrix(buf.addr, np.ones(shape, np.int8), 4)
        assert (buf.array == np.arange(16)).all()

    def test_read_returns_a_copy(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8).reshape(4, 4))
        tile = mem.read_matrix(buf.addr, 4, 2, 4, np.int8)
        assert not np.shares_memory(tile, buf.array)
        tile[...] = 99
        assert (buf.array == np.arange(16).reshape(4, 4)).all()

    def test_read_overrun_names_the_first_bad_row(self):
        mem = Memory()
        buf = mem.alloc(16, np.int8)
        with pytest.raises(MemoryError_, match=r"\(row 3, stride 5\)"):
            mem.read_matrix(buf.addr, 4, 4, 5, np.int8)

    def test_write_overrun_names_the_first_bad_row(self):
        mem = Memory()
        buf = mem.alloc(16, np.int8)
        with pytest.raises(MemoryError_, match=r"overruns its region \(row 3\)"):
            mem.write_matrix(buf.addr, np.ones((4, 4), np.int8), 5)
        # Rows before the bad one were written, as the row loop always did.
        assert buf.array[:14].sum() == 12

    def test_snapshot_copy_on_write_fires(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int32).reshape(4, 4))
        snapshot = mem.snapshot()
        mem.write_matrix(buf.addr + 4 * 5, np.zeros((2, 2), np.int32), 4)
        assert (snapshot[0] == np.arange(16).reshape(4, 4)).all()
        assert buf.array[1, 1] == 0 and buf.array[2, 2] == 0


class TestTileMemo:
    """A tile's strided view is resolved once per (address, shape, stride,
    dtype) and reused; every check and message stays as it was without
    the memo, and the memo stays within its bound."""

    @staticmethod
    def _error(access) -> str:
        with pytest.raises(MemoryError_) as error:
            access()
        return str(error.value)

    def test_a_read_with_another_dtype_raises_as_before(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8))
        fresh = mem.duplicate()
        assert mem.read_matrix(buf.addr, 2, 2, 4, np.int8).tolist() == [[0, 1], [4, 5]]
        assert mem._views
        for dtype in (np.int32, np.int16, "int32"):
            assert self._error(
                lambda: mem.read_matrix(buf.addr, 2, 2, 4, dtype)
            ) == self._error(lambda: fresh.read_matrix(buf.addr, 2, 2, 4, dtype))

    def test_a_write_with_another_dtype_raises_as_before(self):
        mem = Memory()
        buf = mem.alloc(16, np.int32)
        fresh = mem.duplicate()
        mem.write_matrix(buf.addr, np.ones((2, 2), np.int32), 4)
        values = np.ones((2, 2), np.int8)
        message = self._error(lambda: mem.write_matrix(buf.addr, values, 4))
        assert message == self._error(lambda: fresh.write_matrix(buf.addr, values, 4))
        assert "with dtype int8 but region holds int32" in message

    def test_an_overrunning_tile_gives_the_same_message(self):
        mem = Memory()
        buf = mem.alloc(16, np.int8)
        fresh = mem.duplicate()
        mem.read_matrix(buf.addr, 2, 4, 5, np.int8)
        mem.write_matrix(buf.addr, np.ones((2, 4), np.int8), 5)
        read = self._error(lambda: mem.read_matrix(buf.addr, 4, 4, 5, np.int8))
        assert read == self._error(lambda: fresh.read_matrix(buf.addr, 4, 4, 5, np.int8))
        assert "(row 3, stride 5)" in read
        values = np.full((4, 4), 2, np.int8)
        write = self._error(lambda: mem.write_matrix(buf.addr, values, 5))
        assert write == self._error(lambda: fresh.write_matrix(buf.addr, values, 5))
        assert buf.array[:14].tolist() == fresh.buffers[0].array[:14].tolist()

    def test_a_misaligned_access_raises_as_before(self):
        mem = Memory()
        buf = mem.alloc(16, np.int32)
        fresh = mem.duplicate()
        mem.read_matrix(buf.addr + 4, 1, 2, 2, np.int32)
        mem.write_matrix(buf.addr + 4, np.ones((1, 2), np.int32), 2)
        for addr in (buf.addr + 2, buf.addr + 6):
            message = self._error(lambda: mem.read_matrix(addr, 1, 2, 2, np.int32))
            assert message == f"misaligned access at {addr:#x}"
            assert message == self._error(
                lambda: fresh.read_matrix(addr, 1, 2, 2, np.int32)
            )
            assert message == self._error(
                lambda: mem.write_matrix(addr, np.ones((1, 2), np.int32), 2)
            )

    def test_a_snapshot_before_a_memoized_write_keeps_the_old_bytes(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int32).reshape(4, 4))
        mem.write_matrix(buf.addr + 4 * 5, np.full((2, 2), 7, np.int32), 4)
        assert mem._views  # the next write at this tile reuses the view
        before = mem.snapshot()
        mem.write_matrix(buf.addr + 4 * 5, np.zeros((2, 2), np.int32), 4)
        old = np.arange(16, dtype=np.int32).reshape(4, 4)
        old[1:3, 1:3] = 7
        assert (before[0] == old).all()
        assert buf.array[1:3, 1:3].tolist() == [[0, 0], [0, 0]]

    def test_duplicate_shares_no_view(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int32))
        mem.read_matrix(buf.addr, 2, 2, 4, np.int32)
        mem.write_matrix(buf.addr, np.full((2, 2), 5, np.int32), 4)
        clone = mem.duplicate()
        assert clone._views == {}
        clone.write_matrix(buf.addr, np.full((2, 2), 9, np.int32), 4)
        assert clone.read_matrix(buf.addr, 2, 2, 4, np.int32).tolist() == [[9, 9], [9, 9]]
        assert mem.read_matrix(buf.addr, 2, 2, 4, np.int32).tolist() == [[5, 5], [5, 5]]
        for view in clone._views.values():
            assert not np.shares_memory(view, buf.array)

    def test_more_distinct_tiles_than_the_bound(self):
        from repro.sim.memory import TILE_MEMO_BOUND

        mem = Memory()
        count = TILE_MEMO_BOUND + 300
        buf = mem.alloc(count + 1, np.int32)
        for index in range(count):
            mem.write_matrix(buf.addr + 4 * index, np.full((1, 2), index, np.int32), 2)
            assert len(mem._views) <= TILE_MEMO_BOUND
        assert buf.array[:count].tolist() == list(range(count))
        for index in range(count):
            tile = mem.read_matrix(buf.addr + 4 * index, 1, 1, 1, np.int32)
            assert tile.tolist() == [[index]]
            assert len(mem._views) <= TILE_MEMO_BOUND
        # A second pass meets evicted and kept views alike.
        for index in range(count - 1, -1, -1):
            mem.write_matrix(buf.addr + 4 * index, np.full((1, 1), -index, np.int32), 1)
        assert buf.array[:count].tolist() == [-index for index in range(count)]


class TestOperandImages:
    """``read_operand`` serves an int8 tile as a float64 view of its
    region's image; every write through ``write_matrix`` keeps the image
    equal to the region, and every access fails as the int8 read does."""

    @staticmethod
    def _error(access) -> str:
        with pytest.raises(MemoryError_) as error:
            access()
        return str(error.value)

    @staticmethod
    def _as_read(mem, addr, rows, cols, row_stride):
        return mem.read_matrix(addr, rows, cols, row_stride, np.int8).astype(np.float64)

    @pytest.mark.parametrize("row_stride", [9, 4, 3, 1])
    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (0, 4), (3, 0)])
    def test_an_operand_is_the_int8_tile_in_float64(self, shape, row_stride):
        mem = Memory()
        buf = mem.place(np.arange(-20, 20, dtype=np.int8))
        for _ in range(2):  # a first and a kept view
            tile = mem.read_operand(buf.addr + 2, *shape, row_stride)
            assert tile.dtype == np.float64 and tile.shape == shape
            assert (tile == self._as_read(mem, buf.addr + 2, *shape, row_stride)).all()

    def test_a_write_into_an_operand_region_reaches_the_product(self):
        from repro.backends import OPENGEMM

        mem = Memory()
        a = mem.place(np.arange(64, dtype=np.int8).reshape(8, 8))
        b = mem.place(np.eye(8, dtype=np.int8))
        c = mem.alloc((8, 8), np.int32)
        config = {"M": 8, "K": 8, "N": 8, "ptr_A": a.addr, "ptr_B": b.addr, "ptr_C": c.addr}
        # A write view kept before the image exists must find it later.
        mem.write_matrix(a.addr, np.full((2, 8), 3, np.int8), 8)
        OPENGEMM.execute(config, mem)
        assert (c.array == a.array).all()
        for values, addr, stride in (
            (np.full((2, 8), -5, np.int8), a.addr, 8),  # the kept write view
            (np.full((3, 2), 7, np.int8), a.addr + 8 * 4 + 1, 8),  # a new one
            (np.full((3, 4), 9, np.int8), a.addr + 40, 2),  # overlapping rows
        ):
            mem.write_matrix(addr, values, stride)
            OPENGEMM.execute(config, mem)
            assert (c.array == a.array).all()
            assert (mem.read_operand(a.addr, 8, 8, 8) == a.array).all()

    def test_a_partial_write_before_an_overrun_reaches_the_image(self):
        mem = Memory()
        buf = mem.alloc(16, np.int8)
        mem.read_operand(buf.addr, 2, 8, 8)
        with pytest.raises(MemoryError_, match=r"overruns its region \(row 3\)"):
            mem.write_matrix(buf.addr, np.ones((4, 4), np.int8), 5)
        assert (mem.read_operand(buf.addr, 2, 8, 8) == buf.array.reshape(2, 8)).all()
        assert buf.array[:14].sum() == 12

    def test_an_access_with_another_dtype_raises_as_before(self):
        mem = Memory()
        ints = mem.place(np.arange(16, dtype=np.int32))
        bytes_ = mem.place(np.arange(16, dtype=np.int8))
        fresh = mem.duplicate()
        mem.read_operand(bytes_.addr, 2, 2, 4)
        message = self._error(lambda: mem.read_operand(ints.addr, 2, 2, 4))
        assert message == self._error(
            lambda: fresh.read_matrix(ints.addr, 2, 2, 4, np.int8)
        )
        assert "with dtype int8 but region holds int32" in message
        for dtype in (np.int32, "int16"):
            assert self._error(
                lambda: mem.read_matrix(bytes_.addr, 2, 2, 4, dtype)
            ) == self._error(lambda: fresh.read_matrix(bytes_.addr, 2, 2, 4, dtype))
        values = np.ones((2, 2), np.int32)
        assert self._error(
            lambda: mem.write_matrix(bytes_.addr, values, 4)
        ) == self._error(lambda: fresh.write_matrix(bytes_.addr, values, 4))
        overrun = self._error(lambda: mem.read_operand(bytes_.addr, 4, 4, 5))
        assert overrun == self._error(
            lambda: fresh.read_matrix(bytes_.addr, 4, 4, 5, np.int8)
        )
        assert "(row 3, stride 5)" in overrun

    def test_duplicate_starts_without_images(self):
        mem = Memory()
        buf = mem.place(np.arange(16, dtype=np.int8))
        kept = mem.read_operand(buf.addr, 2, 2, 4)
        clone = mem.duplicate()
        assert clone._images == {} and clone._image_views == {}
        clone.write_matrix(buf.addr, np.full((2, 2), 9, np.int8), 4)
        assert clone.read_operand(buf.addr, 2, 2, 4).tolist() == [[9, 9], [9, 9]]
        assert mem.read_operand(buf.addr, 2, 2, 4).tolist() == [[0, 1], [4, 5]]
        assert kept.tolist() == [[0, 1], [4, 5]]
        for image in clone._images.values():
            assert not np.shares_memory(image, mem._images[buf.addr])

    def test_a_snapshot_before_an_in_place_accumulation_keeps_the_old_c(self):
        mem = Memory()
        c = mem.place(np.arange(16, dtype=np.int32).reshape(4, 4))
        mem.write_matrix(c.addr, np.ones((2, 2), np.int32), 4, accumulate=True)
        before = mem.snapshot()
        mem.write_matrix(c.addr, np.full((2, 2), 10, np.int32), 4, accumulate=True)
        old = np.arange(16, dtype=np.int32).reshape(4, 4)
        old[:2, :2] += 1
        assert (before[0] == old).all()
        assert c.array[:2, :2].tolist() == [[11, 12], [15, 16]]

    @pytest.mark.parametrize("row_stride", [5, 4, 3])
    @pytest.mark.parametrize("start", [0, 2**31 - 2])
    def test_accumulation_is_read_add_write(self, start, row_stride):
        """In place where the rows are apart, read first where they overlap;
        int32 sums wrap."""
        mem = Memory()
        c = mem.place(np.arange(start, start + 20, dtype=np.int32))
        fresh = mem.duplicate()
        values = np.arange(1, 13, dtype=np.int32).reshape(3, 4)
        for _ in range(2):  # a first and a kept view
            mem.write_matrix(c.addr, values, row_stride, accumulate=True)
            summed = values + fresh.read_matrix(c.addr, 3, 4, row_stride, np.int32)
            fresh.write_matrix(c.addr, summed, row_stride)
            assert (c.array == fresh.buffers[0].array).all()

    def test_more_operand_tiles_than_the_bound(self):
        from repro.sim.memory import TILE_MEMO_BOUND

        mem = Memory()
        count = TILE_MEMO_BOUND + 300
        buf = mem.alloc(count + 1, np.int8)
        for index in range(count):
            mem.write_matrix(buf.addr + index, np.full((1, 2), index % 7, np.int8), 2)
        for rounds in range(2):
            for index in range(count):
                tile = mem.read_operand(buf.addr + index, 1, 2, 2)
                assert (tile == buf.array[index : index + 2]).all()
                assert len(mem._image_views) <= TILE_MEMO_BOUND
            # Writes through kept and evicted views alike reach the image.
            for index in range(count - 1, -1, -1):
                values = np.full((1, 2), (index + rounds) % 5 - 2, np.int8)
                mem.write_matrix(buf.addr + index, values, 2)
        assert (mem._images[buf.addr] == buf.array).all()
