"""End-to-end scoring: configuration, adaptive combination, QualityReport."""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .appearance import (
    filter_sides,
    fuse_appearance,
    geometry_degradation,
    prepare_pairs,
    prepare_sides,
    texture_degradation,
)
from .cloud import PointCloud, SpatialIndex
from .errors import CloudTooSmall, DomainError, ParseError
from .patches import CloudSides, ReferenceCells, partition_into_patch_pairs, reference_cells
from .visible import VisibleDifference, reference_masking, upsilon, visible_difference

_FUSION_MODES = ("multiply", "average")
# The MetricConfig fields that the reference-only work depends on.
REFERENCE_FIELDS = ("k1", "k2", "patch_divisor", "num_bandpass", "continuous_tail")
MAX_NUM_BANDPASS = 64
MAX_NB_BINS = 1024


@dataclass
class MetricConfig:
    """All tunable knobs of the metric with their default operating points."""

    alpha: float = 4.5  # masking compensation strength
    mu: float = 5.0  # adaptive-combination steepness
    k1: int = 20  # AR neighborhood size
    k2: int = 10  # patch-graph neighborhood size
    patch_divisor: int = 1000  # cells = max(1, N // patch_divisor)
    num_bandpass: int = 3  # band-pass filter count (sub-bands = C + 1)
    nb_bins: int = 50  # co-occurrence quantization bins
    stabilizer: float = 1e-6  # smoothness-similarity stabilizer T
    inner_fusion: str = "multiply"  # D_L^O with D_L^I
    outer_fusion: str = "multiply"  # D_H with D_L
    continuous_tail: bool = True  # 4/lam^2 band-pass tail (continuous at 2)

    def __post_init__(self):
        # The upper bounds keep (C + 1) x N bands and Nb^2 WCMs within memory.
        for name, least, most in (("k1", 1, math.inf), ("k2", 1, math.inf),
                                  ("patch_divisor", 1, math.inf), ("num_bandpass", 1, MAX_NUM_BANDPASS),
                                  ("nb_bins", 2, MAX_NB_BINS)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if not least <= value <= most:
                raise ValueError(f"{name} must lie in [{least}, {most}]")
        for name in ("alpha", "mu", "stabilizer"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not math.isfinite(upsilon(self.alpha)):
            raise ValueError("alpha is so large that its D_H normalizer upsilon overflows")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.stabilizer <= 0:
            raise ValueError("stabilizer must be positive")
        for name in ("inner_fusion", "outer_fusion"):
            if getattr(self, name) not in _FUSION_MODES:
                raise ValueError(f"{name} must be one of {_FUSION_MODES}")
        if not isinstance(self.continuous_tail, bool):
            raise TypeError(f"continuous_tail must be a bool, got {self.continuous_tail!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "MetricConfig":
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ParseError(f"unknown config keys: {unknown}")
        try:
            return cls(**data)
        except (TypeError, ValueError, OverflowError) as e:  # Overflow: an int beyond float range
            raise ParseError(f"bad config value: {e}") from None

    @classmethod
    def from_file(cls, path) -> "MetricConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and int digit limits;
        # RecursionError a document nested too deep to parse.
        except (ValueError, RecursionError) as e:
            raise ParseError(f"config is not valid UTF-8 JSON: {e}") from None
        if not isinstance(data, dict):
            raise ParseError("config document must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def combine_adaptive(
    d_h: float,
    d_l: float,
    mu: float = 5.0,
    outer: str = "multiply",
) -> tuple[float, float]:
    """(omega, score): blend D_H and D_L with weight omega = 1/(1 + mu D_H).

    Low D_H (visible damage) pushes weight onto the appearance term.
    Negative d_l is clamped to 0 so fractional powers stay real.
    """
    if d_h <= 0:
        raise DomainError("d_h must lie in (0, 1]")
    if mu <= 0:
        raise ValueError("mu must be positive")
    omega = 1.0 / (1.0 + mu * d_h)
    dl = max(d_l, 0.0)
    if outer == "multiply":
        score = d_h ** (1.0 - omega) * dl ** omega
    elif outer == "average":
        score = (d_h ** (1.0 - omega) + dl ** omega) / 2.0
    else:
        raise ValueError(f"unknown fusion mode {outer!r}")
    return omega, score


@dataclass
class QualityReport:
    """Final score plus every intermediate quantity and per-patch diagnostics."""

    d_h: float
    d_l_o: float | None
    d_l_i: float | None
    d_l: float | None
    omega: float | None
    score: float | None
    status: str = "ok"
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        # Dumps the fields as they are: asdict would deep-copy every per-patch dict first.
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=indent)


@dataclass(frozen=True)
class PreparedReference:
    """Everything ``phm_score`` computes from the reference alone.

    Built by ``prepare_reference`` and reusable for any number of distorted
    copies: the reference's exact NN index and texture complexity C(ref),
    its Voronoi cells with their seed tree, and its ``CloudSides``
    (graphs, coordinate smoothness and SGWT sub-bands). ``config`` is the
    configuration it was built with; only its REFERENCE_FIELDS matter here.
    """

    cloud: PointCloud
    config: MetricConfig
    index: SpatialIndex
    complexity: float
    cells: ReferenceCells
    sides: CloudSides


def prepare_reference(ref: PointCloud, config: MetricConfig | None = None) -> PreparedReference:
    """Do the reference-only work of ``phm_score`` once, for many distorted copies.

    Raises CloudTooSmall when the reference has no more points than the AR
    order k1.
    """
    # A copy: editing the caller's config later must not change what this records.
    cfg = replace(config) if config is not None else MetricConfig()
    if len(ref) <= cfg.k1:
        raise CloudTooSmall(
            f"reference has {len(ref)} points; AR order {cfg.k1} needs more")
    index, complexity = reference_masking(ref, cfg.k1)
    cells = reference_cells(ref, max(1, len(ref) // cfg.patch_divisor))
    sides = prepare_sides(ref, cells.members, cfg.k2, cfg.num_bandpass, cfg.continuous_tail)
    return PreparedReference(ref, cfg, index, complexity, cells, sides)


def phm_score(
    ref: PointCloud | PreparedReference,
    dist: PointCloud,
    config: MetricConfig | None = None,
) -> QualityReport:
    """Full pipeline: visible difference, appearance degradation, combination.

    ``ref`` is the reference cloud or its ``prepare_reference`` result; both
    give the same report. A prepared reference scores with its own config
    when ``config`` is None, and raises ValueError when ``config`` differs
    from it in a REFERENCE_FIELDS value.

    A ``dist`` with the reference's positions in its order matches point i
    to point i, takes the reference's cells and graphs, and only its
    luminance is filtered.

    Deterministic for fixed inputs and config. If every patch pair is
    degenerate the report carries status "no_valid_patches" and a None
    score instead of a fabricated value.
    """
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    if isinstance(ref, PreparedReference):
        cfg = config if config is not None else ref.config
        changed = [f for f in REFERENCE_FIELDS if getattr(cfg, f) != getattr(ref.config, f)]
        if changed:
            raise ValueError(f"config differs in {changed} from the one the reference was "
                             "prepared with")
        reference = ref
        timing["prepare_reference"] = 0.0
    else:
        cfg = config if config is not None else MetricConfig()
        reference = prepare_reference(ref, cfg)
        timing["prepare_reference"] = time.perf_counter() - t0

    # Positions alone set the nearest maps, cells and graphs.
    same_points = np.array_equal(reference.cloud.positions, dist.positions)
    t0 = time.perf_counter()
    vd = visible_difference(reference.cloud, dist, reference.index, reference.complexity,
                            cfg.alpha, same_points)
    timing["visible_difference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if same_points:
        prepared = reference.sides, filter_sides(
            reference.sides, dist.luminance[np.concatenate(reference.cells.members)],
            cfg.num_bandpass, cfg.continuous_tail)
    else:
        pairs = partition_into_patch_pairs(reference.cells, dist)
        prepared = prepare_pairs(reference.sides, dist, pairs, cfg.k2, cfg.num_bandpass,
                                 cfg.continuous_tail)
    timing["partition_and_graphs"] = time.perf_counter() - t0
    return _report(reference, dist, cfg, vd, prepared, timing)


def _report(reference: PreparedReference, dist: PointCloud, cfg: MetricConfig,
            vd: VisibleDifference, prepared: tuple[CloudSides, CloudSides],
            timing: dict[str, float]) -> QualityReport:
    """The report of ``phm_score`` from its visible difference and its prepared sides.

    A cell is compared when both its sides have a graph; D_L^O and D_L^I are
    the means over the compared cells, and without any the report has
    status "no_valid_patches".
    """
    ref_sides, dist_sides = prepared
    cells = np.flatnonzero(ref_sides.valid & dist_sides.valid)
    sizes = zip(ref_sides.sizes.tolist(), dist_sides.sizes.tolist())
    per_patch = [dict(cell_id=cell, n_ref=n_ref, n_dist=n_dist, degenerate=True, f_s=None, f_w=None)
                 for cell, (n_ref, n_dist) in enumerate(sizes)]
    diagnostics = {
        "n_ref": len(reference.cloud),
        "n_dist": len(dist),
        "patch_count": len(per_patch),
        "degenerate_patch_count": len(per_patch) - len(cells),
        "psnr_y": vd.psnr_y,
        "perfect": vd.perfect,
        "raw_mse": vd.raw_mse,
        "complexity": vd.complexity,
        "per_patch": per_patch,
        "timing": timing,
        "valid_patch_count": len(cells),
    }
    if not len(cells):
        return QualityReport(
            d_h=vd.d_h, d_l_o=None, d_l_i=None, d_l=None, omega=None, score=None,
            status="no_valid_patches", diagnostics=diagnostics)

    t0 = time.perf_counter()
    f_s = geometry_degradation(prepared, cells, cfg.stabilizer)
    timing["geometry_degradation"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    f_w = texture_degradation(prepared, cells, cfg.nb_bins)
    timing["texture_degradation"] = time.perf_counter() - t0
    for cell, fs, fw in zip(cells.tolist(), f_s.tolist(), f_w.tolist()):
        per_patch[cell].update(degenerate=False, f_s=fs, f_w=fw)

    d_l_o, d_l_i = float(f_s.mean()), float(f_w.mean())
    d_l = fuse_appearance(d_l_o, d_l_i, cfg.inner_fusion)
    omega, score = combine_adaptive(vd.d_h, d_l, cfg.mu, cfg.outer_fusion)
    return QualityReport(
        d_h=vd.d_h, d_l_o=d_l_o, d_l_i=d_l_i, d_l=d_l, omega=omega, score=score,
        status="ok", diagnostics=diagnostics)
