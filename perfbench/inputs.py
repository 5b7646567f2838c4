"""Seeded inputs for the phm benchmark: clouds, distortion ladders, PLY files.

The program under test only sees what this module produces: in-memory
position/color arrays, PLY files and batch manifests. Each workload draws
its cases from a fixed pool so that every case has a frozen expected score
(``expected.json``); the run seed only decides the order in which the pool
is visited, and which references share a batch manifest. Files are written
once into a cache directory and reused by later runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# Bump when the generated data changes; expected.json must then be refrozen.
GENERATOR_VERSION = 1

# Distortion ladder: per-point luminance noise sigma (8-bit levels) and
# per-axis geometry jitter in units of the reference's mean NN spacing.
LADDER = (
    {"noise": 5.0, "jitter": 0.0},
    {"noise": 20.0, "jitter": 0.0},
    {"noise": 60.0, "jitter": 0.0},
    {"noise": 0.0, "jitter": 0.25},
    {"noise": 0.0, "jitter": 0.75},
    {"noise": 20.0, "jitter": 0.5},
)

# Pool sizes per scale. "full" is what the benchmark measures; "tiny" keeps
# the smoke tests fast and exercises the same code paths.
SCALES = {
    "full": {
        "pair-ladder": {"pairs": 6, "n": (2000, 2600)},
        "batch-shared-ref": {"refs": 2, "n": (3000, 3300), "levels": 3, "refs_per_batch": 2},
        "large-fine": {"pairs": 2, "n": (36000, 40000), "patch_divisor": 80},
    },
    "tiny": {
        "pair-ladder": {"pairs": 3, "n": (300, 400)},
        "batch-shared-ref": {"refs": 2, "n": (300, 400), "levels": 2, "refs_per_batch": 2},
        "large-fine": {"pairs": 2, "n": (2000, 2200), "patch_divisor": 100},
    },
}

SETUP_POINTS = 300  # the tiny identity pair scored while timing set-up


def surface_cloud(n: int, seed: int, extent: float = 100.0) -> tuple[np.ndarray, np.ndarray]:
    """A bumpy closed surface with smooth shading plus fine texture.

    Points sit on a sphere whose radius is modulated by a few low-frequency
    waves, like a scanned object rather than a filled volume. Colors follow
    low-frequency cosine fields of position plus per-point noise.
    """
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    radius = np.ones(n)
    for _ in range(3):
        k = rng.normal(size=3)
        k *= rng.uniform(2.0, 5.0) / np.linalg.norm(k)
        radius += rng.uniform(0.05, 0.15) * np.cos(d @ k + rng.uniform(0.0, 2.0 * np.pi))
    pos = extent / 2.0 * (1.0 + d * radius[:, None] / radius.max())
    base = np.full(n, 128.0)
    for _ in range(4):
        freq = rng.uniform(0.02, 0.12, size=3)
        base += rng.uniform(15.0, 40.0) * np.cos(pos @ freq + rng.uniform(0.0, 2.0 * np.pi))
    base += rng.normal(0.0, 12.0, size=n)
    colors = np.clip(np.round(base[:, None] + rng.normal(0.0, 10.0, size=(n, 3))), 0, 255)
    return pos, colors.astype(np.uint8)


def distort(pos: np.ndarray, colors: np.ndarray, level: dict, seed: int):
    """Apply one ladder level: shared per-point color offset, then jitter."""
    rng = np.random.default_rng(seed)
    out_col = colors
    if level["noise"] > 0:
        delta = rng.normal(0.0, level["noise"], size=len(pos))
        out_col = np.clip(np.round(colors + delta[:, None]), 0, 255).astype(np.uint8)
    out_pos = pos
    if level["jitter"] > 0:
        spacing = cKDTree(pos).query(pos, k=2)[0][:, 1].mean()
        out_pos = pos + rng.normal(0.0, level["jitter"] * spacing, size=pos.shape)
    return out_pos, out_col


def _size(spec_n: tuple[int, int], seed: int) -> int:
    lo, hi = spec_n
    return int(np.random.default_rng(seed).integers(lo, hi + 1))


@dataclass(frozen=True)
class Case:
    """One scored pair: ids, the generation seeds and its ladder level."""

    case_id: str
    ref_seed: int
    n: int
    level: int | None  # None: identity (the distorted side is the reference)


def pair_pool(workload: str, scale: str) -> list[Case]:
    """Cases of pair-ladder or large-fine: each pair has its own reference."""
    spec = SCALES[scale][workload]
    tag = "pl" if workload == "pair-ladder" else "lf"
    base = 1000 if workload == "pair-ladder" else 3000
    return [
        Case(f"{tag}{i:02d}", base + i, _size(spec["n"], base + i), i % len(LADDER))
        for i in range(spec["pairs"])
    ]


def batch_pool(scale: str) -> dict[int, list[Case]]:
    """Per reference: its distorted rows plus one identity row."""
    spec = SCALES[scale]["batch-shared-ref"]
    pool = {}
    for r in range(spec["refs"]):
        seed = 2000 + r
        n = _size(spec["n"], seed)
        rows = [Case(f"b{r}l{lv}", seed, n, lv) for lv in range(spec["levels"])]
        rows.append(Case(f"b{r}id", seed, n, None))
        pool[r] = rows
    return pool


def materialize(case: Case):
    """(ref_pos, ref_col, dist_pos, dist_col) arrays for one case."""
    pos, col = surface_cloud(case.n, case.ref_seed)
    if case.level is None:
        return pos, col, pos, col
    dpos, dcol = distort(pos, col, LADDER[case.level], case.ref_seed * 100 + case.level)
    return pos, col, dpos, dcol


def write_ply(path: Path, pos: np.ndarray, colors: np.ndarray, binary: bool) -> None:
    """Write xyz (float32 binary, 6-decimal ascii) + uchar RGB, atomically."""
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        f"ply\nformat {fmt} 1.0\nelement vertex {len(pos)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    ).encode("ascii")
    if binary:
        rec = np.empty(len(pos), dtype=[("p", "<f4", 3), ("c", "u1", 3)])
        rec["p"], rec["c"] = pos, colors
        body = rec.tobytes()
    else:
        rows = np.column_stack([pos, colors]).tolist()
        body = "".join(
            f"{x:.6f} {y:.6f} {z:.6f} {int(r)} {int(g)} {int(b)}\n" for x, y, z, r, g, b in rows
        ).encode("ascii")
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(header + body)
    os.replace(tmp, path)


def ensure_files(case: Case, cache: Path, binary: bool) -> tuple[Path, Path]:
    """Cached (ref, dist) PLY paths for a case; identity rows reuse the ref file.

    File names carry every generation parameter, so a resized pool never
    picks up a stale file.
    """
    cache.mkdir(parents=True, exist_ok=True)
    ext = "bin.ply" if binary else "ply"
    ref_path = cache / f"ref{case.ref_seed}_{case.n}.{ext}"
    dist_path = ref_path if case.level is None else cache / (
        f"dist{case.ref_seed}_{case.n}_l{case.level}.{ext}")
    if not (ref_path.exists() and dist_path.exists()):
        pos, col, dpos, dcol = materialize(case)
        if not ref_path.exists():
            write_ply(ref_path, pos, col, binary)
        if not dist_path.exists():
            write_ply(dist_path, dpos, dcol, binary)
    return ref_path, dist_path


def ensure_setup_pair(cache: Path) -> Path:
    """A tiny binary reference; the set-up probe scores it against itself."""
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"setup_{SETUP_POINTS}.bin.ply"
    if not path.exists():
        pos, col = surface_cloud(SETUP_POINTS, 7)
        write_ply(path, pos, col, binary=True)
    return path


def cache_dir(root: Path, scale: str) -> Path:
    return root / ".perfbench_cache" / f"v{GENERATOR_VERSION}" / scale
