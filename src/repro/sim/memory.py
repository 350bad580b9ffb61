"""Simulated memory.

A flat byte-addressed space backed by numpy arrays.  Workload generators
allocate buffers here and embed the returned base addresses into the IR as
integer constants; accelerator specs read and write matrices through the
same addresses during functional execution, so end-to-end numerics can be
checked against numpy references.

Addresses are bytes; row strides are in *elements* (matching how accelerator
stride registers are usually specified).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Tile views a memory keeps for reuse (:meth:`Memory.read_matrix`,
#: :meth:`Memory.write_matrix`, :meth:`Memory.read_operand`); each memo is
#: cleared when it fills.  A figure run touches at most 1,088 distinct
#: tiles.
TILE_MEMO_BOUND = 4096


class MemoryError_(Exception):
    """Raised on bad simulated-memory accesses."""


@dataclass(frozen=True)
class Buffer:
    """An allocated region: base address plus its numpy backing store."""

    addr: int
    array: np.ndarray

    @property
    def end(self) -> int:
        return self.addr + self.array.nbytes


class MemorySnapshot:
    """A copy-on-write image of every buffer at snapshot time.

    Replaces the eager full-image copies the differential oracles used to
    take: creating a snapshot is O(#buffers) bookkeeping, and a buffer's
    bytes are duplicated only if something writes to it *after* the snapshot
    (via :meth:`Memory.write_matrix`, the sole runtime mutation path).  The
    oracles snapshot after execution finishes, so the common case copies
    nothing at all.  Iterating yields one array per buffer in allocation
    order, exactly like the old list of copies.

    Direct writes to ``buffer.array`` bypass the write barrier; workloads
    write through :class:`Memory` (:meth:`Memory.clear` zeroes a buffer).
    """

    def __init__(self, memory: "Memory") -> None:
        self._live: list[Buffer | None] = list(memory._buffers)
        self._copies: dict[int, np.ndarray] = {}
        memory._snapshots.append(self)

    def _before_write(self, buffer: Buffer) -> None:
        """Materialize ``buffer``'s bytes before they change underneath us."""
        for index, live in enumerate(self._live):
            if live is buffer:
                self._copies[index] = live.array.copy()
                self._live[index] = None

    def __len__(self) -> int:
        return len(self._live)

    def __getitem__(self, index: int) -> np.ndarray:
        live = self._live[index]
        if live is not None:
            return live.array
        return self._copies[index if index >= 0 else index + len(self._live)]

    def __iter__(self):
        for index in range(len(self._live)):
            yield self[index]


class Memory:
    """Byte-addressed memory composed of allocated numpy regions."""

    def __init__(self, base: int = 0x1000, alignment: int = 64) -> None:
        self._next = base
        self._alignment = alignment
        self._buffers: list[Buffer] = []
        #: (addr, end, flat view, scalar type, itemsize) of each buffer, in
        #: allocation order: what every access reads, resolved once.  The
        #: scalar type (``np.int8``, as the backends pass it) is the dtype
        #: itself where no scalar type names it exactly (a byte-swapped
        #: int32), so an access passing it needs no dtype comparison.
        self._regions: list[tuple] = []
        self._snapshots: list[MemorySnapshot] = []
        #: the strided view each tile access resolved, keyed by (addr,
        #: rows, cols, row stride, dtype) for a read and (addr, shape, row
        #: stride, dtype) for a write; regions never move, so a view stays
        #: valid for the memory's life
        self._views: dict[tuple, np.ndarray] = {}
        #: base address -> float64 image of an int8 region, built at the
        #: region's first :meth:`read_operand` and updated by every write
        self._images: dict[int, np.ndarray] = {}
        #: views into the images: an operand's, keyed by (addr, rows, cols,
        #: row stride), and the image side of a write into an imaged region,
        #: keyed as the write's view is in ``_views``
        self._image_views: dict[tuple, np.ndarray] = {}

    def _add(self, buffer: Buffer) -> None:
        dtype = buffer.array.dtype
        scalar = dtype.type if np.dtype(dtype.type) == dtype else dtype
        self._buffers.append(buffer)
        self._regions.append(
            (
                buffer.addr,
                buffer.end,
                buffer.array.reshape(-1),
                scalar,
                dtype.itemsize,
            )
        )

    def alloc(self, shape: tuple[int, ...] | int, dtype) -> Buffer:
        """Allocate a zeroed region and return its buffer."""
        array = np.zeros(shape, dtype=dtype)
        addr = self._next
        buffer = Buffer(addr, array)
        self._add(buffer)
        size = max(array.nbytes, 1)
        self._next = self._align(addr + size)
        return buffer

    def place(self, array: np.ndarray) -> Buffer:
        """Allocate a region initialized with (a copy of) ``array``."""
        buffer = self.alloc(array.shape, array.dtype)
        buffer.array[...] = array
        return buffer

    @property
    def buffers(self) -> tuple[Buffer, ...]:
        """Every allocated region, in allocation order (used by differential
        oracles to snapshot the whole image)."""
        return tuple(self._buffers)

    def snapshot(self) -> MemorySnapshot:
        """A copy-on-write image of the current buffer contents."""
        return MemorySnapshot(self)

    def duplicate(self) -> "Memory":
        """An independent memory with identical layout and contents.

        The benchmarks fan one built image out to many runs with this:
        addresses and allocation order are preserved exactly (the IR embeds
        them as constants), contents are copied buffer-by-buffer, and live
        snapshots are *not* carried over — the clone starts with none, and
        with no tile view or float64 image.
        """
        clone = Memory(alignment=self._alignment)
        clone._next = self._next
        for buffer in self._buffers:
            clone._add(Buffer(buffer.addr, buffer.array.copy()))
        return clone

    def clear(self, buffer: Buffer) -> None:
        """Zero ``buffer`` with one :meth:`write_matrix`, so snapshots and
        float64 images see it."""
        flat = buffer.array.reshape(1, -1)
        self.write_matrix(buffer.addr, np.zeros_like(flat), flat.shape[1])

    def _align(self, addr: int) -> int:
        mask = self._alignment - 1
        return (addr + mask) & ~mask

    def buffer_at(self, addr: int) -> Buffer:
        """The buffer containing byte address ``addr``."""
        for buffer, region in zip(self._buffers, self._regions):
            if region[0] <= addr < region[1]:
                return buffer
        raise MemoryError_(f"address {addr:#x} is not inside any allocation")

    def _flat_view(self, addr: int, dtype) -> tuple[np.ndarray, int, int]:
        """The flat view of the region holding ``addr``, the element offset
        of ``addr`` in it, and the region's base address."""
        for base, end, flat, scalar, itemsize in self._regions:
            if base <= addr < end:
                break
        else:
            raise MemoryError_(f"address {addr:#x} is not inside any allocation")
        if dtype is not scalar and np.dtype(dtype) != flat.dtype:
            raise MemoryError_(
                f"access at {addr:#x} with dtype {np.dtype(dtype)} but region "
                f"holds {flat.dtype}"
            )
        offset_bytes = addr - base
        if offset_bytes % itemsize:
            raise MemoryError_(f"misaligned access at {addr:#x}")
        return flat, offset_bytes // itemsize, base

    @staticmethod
    def _tile(
        flat: np.ndarray, offset: int, rows: int, cols: int, row_stride: int
    ) -> np.ndarray | None:
        """The ``rows x cols`` tile at ``offset`` as one strided view of
        ``flat``, or None where the row-by-row path must run instead: rows
        that overlap (their order of writes matters), empty shapes, and
        tiles that overrun the region (its error names the first bad row)."""
        if (
            rows <= 0
            or cols <= 0
            or row_stride < cols
            or offset + (rows - 1) * row_stride + cols > flat.size
        ):
            return None
        if rows == 1:  # a plain slice is the cheapest view of one row
            return flat[offset : offset + cols].reshape(1, cols)
        itemsize = flat.itemsize
        # Positional: the constructor parses keyword arguments slowly.
        return np.ndarray(
            (rows, cols),
            flat.dtype,
            flat,
            offset * itemsize,
            (row_stride * itemsize, itemsize),
        )

    def _view(self, key: tuple, tile: np.ndarray) -> None:
        """Keep the view of the tile ``key`` names for later accesses."""
        views = self._views
        if len(views) >= TILE_MEMO_BOUND:
            views.clear()
        views[key] = tile

    def _image_view(self, key: tuple, tile: np.ndarray) -> None:
        """Keep a view into an image for later accesses.  Dropping the
        image side of a write drops the writes' views too, so no write
        resolved with an image goes on without it."""
        views = self._image_views
        if len(views) >= TILE_MEMO_BOUND:
            views.clear()
            self._views.clear()
        views[key] = tile

    def read_matrix(
        self, addr: int, rows: int, cols: int, row_stride: int, dtype
    ) -> np.ndarray:
        """Read a ``rows x cols`` matrix; ``row_stride`` in elements."""
        key = (addr, rows, cols, row_stride, dtype)
        tile = self._views.get(key)
        if tile is not None:
            return tile.copy()
        flat, offset, _ = self._flat_view(addr, dtype)
        tile = self._tile(flat, offset, rows, cols, row_stride)
        if tile is not None:
            self._view(key, tile)
            return tile.copy()
        out = np.empty((rows, cols), dtype=dtype)
        for r in range(rows):
            start = offset + r * row_stride
            if start + cols > flat.size:
                raise MemoryError_(
                    f"matrix read at {addr:#x} overruns its region "
                    f"(row {r}, stride {row_stride})"
                )
            out[r] = flat[start : start + cols]
        return out

    def read_operand(
        self, addr: int, rows: int, cols: int, row_stride: int
    ) -> np.ndarray:
        """The int8 matrix ``read_matrix(addr, rows, cols, row_stride,
        np.int8)`` reads, as float64 for an exact BLAS product
        (:func:`repro.backends.base.int8_matmul`).

        It is a view into a float64 image of the region, which the caller
        must not write: the image is built at the region's first operand
        read and every :meth:`write_matrix` into the region updates it, so
        it always holds the region's values.  An access fails as the int8
        read does; where that read copies row by row (overlapping rows,
        empty shapes), this returns a float64 copy of it.
        """
        key = (addr, rows, cols, row_stride)
        tile = self._image_views.get(key)
        if tile is not None:
            return tile
        flat, offset, base = self._flat_view(addr, np.int8)
        image = self._images.get(base)
        if image is None:
            image = self._images[base] = flat.astype(np.float64)
            # Writes resolved before the image existed must now find it.
            self._views.clear()
        tile = self._tile(image, offset, rows, cols, row_stride)
        if tile is None:
            return self.read_matrix(addr, rows, cols, row_stride, np.int8).astype(
                np.float64
            )
        self._image_view(key, tile)
        return tile

    def write_matrix(
        self,
        addr: int,
        values: np.ndarray,
        row_stride: int,
        accumulate: bool = False,
    ) -> None:
        """Write a matrix; ``row_stride`` in elements of the region dtype.

        With ``accumulate``, ``values`` are added onto the matrix in place,
        wrapping as numpy's addition in the region's dtype does; that is
        what reading the matrix, adding, and writing the sum leaves.
        """
        if self._snapshots:
            buffer = self.buffer_at(addr)
            for snap in self._snapshots:
                snap._before_write(buffer)
        dtype = values.dtype
        key = (addr, values.shape, row_stride, dtype)
        tile = self._views.get(key)
        if tile is None:
            flat, offset, base = self._flat_view(addr, dtype)
            rows, cols = values.shape
            tile = self._tile(flat, offset, rows, cols, row_stride)
            if tile is None:
                if accumulate:
                    # Overlapping rows: every row is read before any is
                    # written, as a separate read would.
                    values = values + self.read_matrix(
                        addr, rows, cols, row_stride, dtype
                    )
                self._write_rows(flat, offset, base, addr, values, row_stride)
                return
            self._view(key, tile)
            image = self._images.get(base)
            if image is not None:
                self._image_view(
                    key, self._tile(image, offset, rows, cols, row_stride)
                )
        if accumulate:
            tile += values
        else:
            tile[...] = values
        mirror = self._image_views.get(key)
        if mirror is not None:
            mirror[...] = tile

    def _write_rows(
        self,
        flat: np.ndarray,
        offset: int,
        base: int,
        addr: int,
        values: np.ndarray,
        row_stride: int,
    ) -> None:
        """Write ``values`` row by row, each row into the region's image
        too, up to the first row that overruns the region."""
        image = self._images.get(base)
        cols = values.shape[1]
        for r in range(values.shape[0]):
            start = offset + r * row_stride
            if start + cols > flat.size:
                raise MemoryError_(
                    f"matrix write at {addr:#x} overruns its region (row {r})"
                )
            flat[start : start + cols] = values[r]
            if image is not None:
                image[start : start + cols] = flat[start : start + cols]
