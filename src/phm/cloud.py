"""Point cloud data model, PLY ingestion and exact spatial queries.

Clouds carry positions, 8-bit RGB colors and a luminance channel derived
once from the colors (BT.709 weights). Nearest-neighbor queries are exact
and deterministic: results are ordered by nondecreasing Euclidean distance
with ties broken by lower point index.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from threading import Lock, Thread

import numpy as np
from scipy.spatial import cKDTree

from .errors import ColorMissing, DomainError, EmptyCloud, ParseError, TooManySeeds

# ITU-R BT.709 luma weights for 8-bit RGB.
LUMA_R, LUMA_G, LUMA_B = 0.2126, 0.7152, 0.0722
# Largest |coordinate|: PLY's float32 range, where squared distances stay finite.
MAX_COORDINATE = float(np.finfo(np.float32).max)
# Most query rows in flight in one ``ranked_knn`` call, spread over its
# TREE_WORKERS blocks at a time, so the (rows, kq) temporaries stay in cache
# and their total does not grow with the threads.
KNN_BLOCK_ROWS = 4096
# Most vertex lines of an ascii PLY parsed or written at once: with the file's
# bytes, their strings and records are all the ascii loader holds besides the
# cloud it builds.
PLY_BLOCK_LINES = 4096
# Threads of each ``ranked_knn`` call: the CPUs this process may run on. Its
# blocks run on a pool of this many threads, started once per call. ``phm
# batch`` divides them among its jobs. A row's answer does not depend on the count.
TREE_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


def rgb_to_luminance(rgb) -> np.ndarray | float:
    """Luminance in [0, 255] for an (R, G, B) triple or an (..., 3) array.

    Y = 0.2126 R + 0.7152 G + 0.0722 B, never rounded.
    """
    arr = np.asarray(rgb, dtype=np.float64)
    return arr[..., 0] * LUMA_R + arr[..., 1] * LUMA_G + arr[..., 2] * LUMA_B


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointCloud:
    """Immutable cloud of N >= 1 points, |coordinates| <= MAX_COORDINATE, colors and luminance."""

    positions: np.ndarray  # (N, 3) float64, native file units
    colors: np.ndarray  # (N, 3) uint8
    luminance: np.ndarray  # (N,) float64, derived from colors

    def __post_init__(self):
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        n = len(self.positions)
        if n == 0:
            raise EmptyCloud("point cloud has no points")
        if self.colors.shape != (n, 3) or self.luminance.shape != (n,):
            raise ValueError("positions, colors and luminance lengths differ")
        if not (np.abs(self.positions) <= MAX_COORDINATE).all():  # NaN fails too
            raise DomainError("point positions must be finite and within float32 range")
        for a in (self.positions, self.colors, self.luminance):
            _readonly(a)

    @classmethod
    def from_arrays(cls, positions, colors) -> "PointCloud":
        # Copies: the cloud makes its arrays read-only, the caller's stay writeable.
        pos = np.array(positions, dtype=np.float64, order="C")
        col = np.asarray(colors)
        if col.dtype != np.uint8:
            # A uint8 cast would wrap 300 to 44 and -1 to 255, and truncate 1.5 to 1.
            col = np.asarray(col, dtype=np.float64)
            if not ((col >= 0) & (col <= 255) & (col == np.floor(col))).all():  # NaN fails too
                raise DomainError("colors must be integers in [0, 255]")
        col = np.array(col, dtype=np.uint8, order="C")
        lum = np.asarray(rgb_to_luminance(col), dtype=np.float64)
        return cls(pos, col, lum)

    def __len__(self) -> int:
        return len(self.positions)


class SpatialIndex:
    """Exact KNN queries over a fixed set of 3D points.

    Built on a kd-tree; candidate sets are re-ranked with numpy-computed
    squared distances so ordering and tie-breaking (lower index first) are
    reproducible and independent of tree internals. Immutable once built.
    """

    def __init__(self, positions: np.ndarray):
        # A writable array could change under the tree: index a copy, and a read-only one as is.
        frozen = isinstance(positions, np.ndarray) and not positions.flags.writeable
        pos = np.array(positions, dtype=np.float64, order="C", copy=None if frozen else True)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if len(pos) == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self._positions = _readonly(pos)
        self._tree = cKDTree(pos)

    @property
    def n(self) -> int:
        return len(self._positions)

    @property
    def leaf_order(self) -> np.ndarray:
        """The indexed points leaf by leaf in the tree: a row order for ``query_bulk``
        that keeps each block's queries near each other. Read-only."""
        return _readonly(self._tree.indices.view())

    def query(self, point, k: int, exclude: int | None = None) -> np.ndarray:
        """Indices of the min(k, N_effective) nearest points to ``point``.

        ``exclude`` names one indexed point, in ``[0, N)``, to leave out of
        the answer.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if exclude is not None and not 0 <= exclude < self.n:
            raise ValueError(f"exclude must lie in [0, {self.n}), got {exclude}")
        q = np.asarray(point, dtype=np.float64).reshape(1, 3)
        own = None if exclude is None else np.array([exclude])
        return ranked_knn(self._tree, self._positions, q, k, own)[0]

    def query_bulk(self, points, k: int, exclude_self: bool = False,
                   order: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Row-per-query KNN; with exclude_self, row i leaves out index i.

        Returns an (m, kr) index array with kr = min(k, N-1) when
        exclude_self else min(k, N). exclude_self needs the query points to
        be the indexed points, in order; a duplicate of point i is a
        neighbor of i like any other point. ``order``, a permutation of the
        m rows such as the query points' own ``leaf_order``, is the order in
        which rows are queried; it does not change the answer. ``out``, an
        (m, kr) integer array (int32 will do for N < 2^31), receives the
        answer in place of a new intp array, and is returned.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if exclude_self and len(pts) != self.n:
            raise ValueError("exclude_self needs the indexed points as queries")
        if order is not None and len(order) != len(pts):
            raise ValueError(f"order must permute the {len(pts)} query rows, got {len(order)}")
        shape = (len(pts), min(k, self.n - exclude_self))
        if out is not None and out.shape != shape:
            raise ValueError(f"out must have shape {shape}, got {out.shape}")
        own = np.arange(self.n) if exclude_self else None
        return ranked_knn(self._tree, self._positions, pts, k, own, order, out)


def ranked_knn(tree: cKDTree, data: np.ndarray, pts: np.ndarray, k: int,
               own: np.ndarray | None, order: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """(m, kr) nearest indices into ``data``, the points of ``tree``, per query row.

    Row i leaves out index own[i] if given. Each round tree-queries kq
    candidates for the open rows and ranks them by (exact squared distance,
    index); rows the tree already returned in that order, own index first,
    are not sorted. A row is final once its kr-th distance lies below the
    rim, the farthest candidate before masking, since no unseen point is
    closer than that; the rows that tie the rim go to the next round
    together, with kq doubled.

    Rows go in blocks, taken in ``order``, a permutation of the m rows
    (default: ascending); each row's answer is written to its own place and
    depends on neither the order nor the threads. Rows near each other, as in
    the leaf order of the query cloud's own tree, visit the same tree nodes.
    The rows are split into a multiple of TREE_WORKERS blocks whose sizes
    differ by at most one, each of at most KNN_BLOCK_ROWS // TREE_WORKERS
    rows, and the blocks run on a pool of TREE_WORKERS threads, the caller's
    among them, so at most KNN_BLOCK_ROWS rows are in flight. Each block
    queries the tree on one thread; an exception in any block is raised here
    once every thread has stopped. A query of one row, or at one thread,
    starts no thread. The answer goes to ``out`` if given, an (m, kr) integer
    array such as int32, else to a new intp array.
    """
    m, n, skip = len(pts), len(data), int(own is not None)
    kr = min(k, n - skip)
    if out is None:
        out = np.empty((m, kr), dtype=np.intp)
    if kr == 0:
        return out
    rows_in_order = np.arange(m) if order is None else order
    per_thread = max(1, KNN_BLOCK_ROWS // TREE_WORKERS)
    blocks = max(1, TREE_WORKERS * -(-m // (TREE_WORKERS * per_thread)))
    bounds = (np.arange(blocks + 1) * m // blocks).tolist()

    def block(span: tuple[int, int]) -> None:
        rows = rows_in_order[span[0]:span[1]]
        kq = min(kr + 1 + skip, n)
        while len(rows):
            q = pts[rows]
            idx = tree.query(q, k=kq, workers=1)[1].reshape(len(rows), kq)
            d2 = np.zeros(idx.shape)  # column by column, summed as (diff * diff).sum(-1) sums
            for c, col in enumerate(data.T):
                diff = col[idx]  # the only (rows, kq) temporary: squared in place, freed
                diff -= q[:, c, None]
                d2 += np.square(diff, out=diff)
                del diff
            rim = d2.max(axis=1)
            d, i = d2[:, skip:], idx[:, skip:]
            ok = ((d[:, :-1] < d[:, 1:]) | (d[:, :-1] == d[:, 1:]) & (i[:, :-1] < i[:, 1:])).all(1)
            if own is not None:
                ok &= idx[:, 0] == own[rows]
            out[rows], last = i[:, :kr], d[:, kr - 1].copy()
            bad = np.flatnonzero(~ok)
            db, ib = d2[bad], idx[bad]
            if own is not None:
                db[ib == own[rows[bad], None]] = np.inf
            ranked = np.lexsort((ib, db), axis=1)[:, :kr]
            out[rows[bad]] = np.take_along_axis(ib, ranked, axis=1)
            last[bad] = np.take_along_axis(db, ranked[:, -1:], axis=1)[:, 0]
            if kq == n:
                break
            rows = rows[last >= rim]
            kq = min(kq * 2, n)

    _on_threads(block, [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a], TREE_WORKERS)
    return out


def _on_threads(work, items, workers: int) -> None:
    """Call ``work(item)`` for every item on ``workers`` threads, the caller's among them.

    Each thread takes the next item until none is left or a call has raised;
    the first exception is raised once every thread has stopped.
    """
    todo, lock, failed = iter(items), Lock(), []

    def drain():
        while not failed:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            try:
                work(item)
            except BaseException as e:  # re-raised below, once the other threads stop
                failed.append(e)

    threads = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]


def farthest_point_sample(cloud: PointCloud, num_seeds: int) -> np.ndarray:
    """Greedy farthest point sampling over the cloud's positions.

    seeds[0] = 0; each next seed maximizes the minimum distance to the
    seeds chosen so far, ties broken by lower index. Returned in selection
    order.
    """
    pos = cloud.positions
    n = len(pos)
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if num_seeds > n:
        raise TooManySeeds(f"requested {num_seeds} seeds from {n} points")
    # Contiguous columns and reused buffers; (dx^2 + dy^2) + dz^2 sums in the
    # same order as SpatialIndex's ranking, so both see the same distance ties.
    x, y, z = (np.ascontiguousarray(pos[:, ax]) for ax in range(3))
    min_d2 = np.full(n, np.inf)
    d2, tmp = np.empty(n), np.empty(n)
    seeds = np.empty(num_seeds, dtype=np.intp)
    nxt = 0
    for s in range(num_seeds):
        seeds[s] = nxt
        np.subtract(x, x[nxt], out=d2)
        np.multiply(d2, d2, out=d2)
        for col in (y, z):
            np.subtract(col, col[nxt], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
        np.minimum(min_d2, d2, out=min_d2)
        nxt = int(np.argmax(min_d2))  # argmax returns the first (lowest) index on ties
    return seeds


# --- PLY I/O ---------------------------------------------------------------

_PLY_SCALAR = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
}
_FLOAT_TYPES = {"float", "float32", "double", "float64"}
_UCHAR_TYPES = {"uchar", "uint8"}
_END_HEADER = re.compile(rb"^[ \t\r\f\v]*end_header[ \t\r\f\v]*$", re.MULTILINE)


def _parse_ply_header(data: bytes):
    # The header ends at the line that is exactly end_header, not at those
    # bytes inside a comment.
    match = _END_HEADER.search(data)
    if match is None:
        raise ParseError("no end_header in PLY file")
    end = match.start()
    if match.end() == len(data):
        raise ParseError("end_header line not terminated")
    body_start = match.end() + 1
    try:
        lines = data[:end].decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ascii PLY header: {e}") from None
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic line")
    fmt = None
    elements = []  # (name, count, [(type_str, prop_name) | ("list", ...)])
    for raw in lines[1:]:
        tokens = raw.strip().split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) != 3 or tokens[2] != "1.0":
                raise ParseError(f"unsupported format line: {raw!r}")
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported PLY format {tokens[1]!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError(f"malformed element line: {raw!r}")
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad element count: {raw!r}") from None
            if count < 0:
                raise ParseError(f"negative element count: {raw!r}")
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise ParseError("property before any element")
            if tokens[1:2] == ["list"]:
                elements[-1][2].append(("list",) + tuple(tokens[2:]))
            elif len(tokens) == 3 and tokens[1] in _PLY_SCALAR:
                elements[-1][2].append((tokens[1], tokens[2]))
            else:
                raise ParseError(f"unsupported property line: {raw!r}")
        else:
            raise ParseError(f"unrecognized header line: {raw!r}")
    if fmt is None:
        raise ParseError("PLY header has no format line")
    return fmt, elements, body_start


def _vertex_layout(props):
    """Map property list to (x,y,z,r,g,b) positions; validate declared types."""
    byname = {}
    for i, p in enumerate(props):
        if p[0] == "list":
            raise ParseError("list property inside vertex element is unsupported")
        byname[p[1]] = (i, p[0])
    for axis in ("x", "y", "z"):
        if axis not in byname:
            raise ParseError(f"vertex element lacks property {axis!r}")
        if byname[axis][1] not in _FLOAT_TYPES:
            raise ParseError(f"vertex property {axis!r} must be float or double")
    for chan in ("red", "green", "blue"):
        if chan not in byname:
            raise ColorMissing(f"vertex element lacks color property {chan!r}")
        if byname[chan][1] not in _UCHAR_TYPES:
            raise ParseError(f"vertex property {chan!r} must be 8-bit unsigned")
    used = {"x", "y", "z", "red", "green", "blue"}
    extra = [p[1] for p in props if p[1] not in used]
    if extra:
        warnings.warn(f"ignoring vertex properties {extra}", stacklevel=3)
    return byname


def _ascii_records(data: bytes, start: int, skip: int, count: int, dt: np.dtype) -> np.ndarray:
    """The ``count`` lines after the first ``skip`` of ``data[start:]``, split at
    "\\n", parsed as records of ``dt``, PLY_BLOCK_LINES lines at a time.

    As one ``np.loadtxt`` over those lines: a blank line is skipped, so the
    row count check fails, and an error names its row among the non-blank ones.
    """
    if data.count(b"\n", start) + 1 < skip + count:
        raise ParseError("ascii payload truncated")
    for _ in range(skip):
        start = data.index(b"\n", start) + 1
    rec, rows, left, span = np.empty(count, dtype=dt), 0, count, 64 * PLY_BLOCK_LINES
    while left:
        want = min(left, PLY_BLOCK_LINES)
        # The ascii codec with "replace" keeps one character per byte.
        text = data[start:start + span].decode("ascii", errors="replace")
        lines = text.split("\n", want)
        # A piece past the block, or one the window cuts, waits for the next block.
        rest = lines.pop() if len(lines) > want or start + span < len(data) else ""
        if not lines:  # a line longer than the window
            span *= 2
            continue
        start += len(text) - len(rest)
        left -= len(lines)
        if any(line and not line.isspace() for line in lines):  # loadtxt warns on none
            try:
                part = np.loadtxt(lines, dtype=dt, comments=None, ndmin=1)
            except ValueError as e:
                message = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + rows}", str(e),
                                 count=1)
                raise ParseError(f"unparseable ascii vertex block: {message}") from None
            rec[rows:rows + len(part)] = part
            rows += len(part)
    if rows != count:
        raise ParseError(f"ascii vertex block has {rows} non-blank lines, expected {count}")
    return rec


def load_ply(path) -> PointCloud:
    """Load an ascii or binary_little_endian PLY with xyz + RGB vertices.

    Elements other than ``vertex`` and extra vertex properties are ignored
    with a warning.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fmt, elements, body_start = _parse_ply_header(data)
    names = [e[0] for e in elements]
    if "vertex" not in names:
        raise ParseError("PLY file has no vertex element")
    vidx = names.index("vertex")
    _, nverts, vprops = elements[vidx]
    if nverts == 0:
        raise EmptyCloud("PLY declares zero vertices")
    layout = _vertex_layout(vprops)
    ignored_elements = [e[0] for i, e in enumerate(elements) if i != vidx]
    if ignored_elements:
        warnings.warn(f"ignoring elements {ignored_elements}", stacklevel=2)
    for name, _, props in elements[:vidx]:
        if any(p[0] == "list" for p in props):
            raise ParseError(f"cannot skip list-typed element {name!r} before vertices")

    if fmt == "ascii":
        # One column per declared property: xyz parse as float, RGB as uint8
        # (out-of-range or non-integer tokens fail), the rest are unchecked.
        kinds = ["U1"] * len(vprops)
        for axis in ("x", "y", "z"):
            kinds[layout[axis][0]] = "f8"
        for chan in ("red", "green", "blue"):
            kinds[layout[chan][0]] = "u1"
        dt = np.dtype([(f"c{i}", kind) for i, kind in enumerate(kinds)])
        cursor = sum(count for _, count, _ in elements[:vidx])
        rec = _ascii_records(data, body_start, cursor, nverts, dt)
    else:
        offset = body_start
        for _, count, props in elements[:vidx]:
            offset += count * sum(np.dtype(_PLY_SCALAR[p[0]]).itemsize for p in props)
        # Positional field names: a property name may repeat in the header.
        dt = np.dtype([(f"c{i}", _PLY_SCALAR[p[0]]) for i, p in enumerate(vprops)])
        if offset + nverts * dt.itemsize > len(data):
            raise ParseError("binary payload truncated")
        rec = np.frombuffer(data, dtype=dt, count=nverts, offset=offset)
    # Filled column by column, and the file and records freed before the luminance.
    pos, col = np.empty((nverts, 3)), np.empty((nverts, 3), dtype=np.uint8)
    for j, (axis, chan) in enumerate(zip(("x", "y", "z"), ("red", "green", "blue"))):
        pos[:, j], col[:, j] = rec[f"c{layout[axis][0]}"], rec[f"c{layout[chan][0]}"]
    del data, rec
    return PointCloud(pos, col, rgb_to_luminance(col))


def save_ply(cloud: PointCloud, path, binary: bool = False) -> None:
    """Write a cloud as PLY (float32 xyz + uchar RGB).

    Positions are quantized to float32 on save so that the ascii and binary
    encodings of the same cloud load back bitwise-equal; PointCloud keeps
    them within float32's range. Ascii lines are written PLY_BLOCK_LINES at
    a time.
    """
    pos32 = cloud.positions.astype(np.float32)
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dt = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                           ("red", "u1"), ("green", "u1"), ("blue", "u1")])
            rec = np.empty(len(cloud), dtype=dt)
            rec["x"], rec["y"], rec["z"] = pos32.T
            rec["red"], rec["green"], rec["blue"] = cloud.colors.T
            fh.write(rec.tobytes())
        else:
            for first in range(0, len(cloud), PLY_BLOCK_LINES):
                block = slice(first, first + PLY_BLOCK_LINES)
                rows = zip(pos32[block].tolist(), cloud.colors[block].tolist())
                fh.write("".join(f"{x!r} {y!r} {z!r} {r} {g} {b}\n"
                                 for (x, y, z), (r, g, b) in rows).encode("ascii"))
