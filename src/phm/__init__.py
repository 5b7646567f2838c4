"""Hybrid full-reference point cloud quality metric.

Two measurement regimes, one score: a masking-compensated luminance PSNR
for high-quality content (visible difference), and spectral-graph
smoothness plus wavelet co-occurrence statistics for low-quality content
(appearance degradation), fused with a quality-adaptive exponent.

The stage functions live in the submodules: ``phm.cloud``, ``phm.visible``,
``phm.patches``, ``phm.appearance`` and ``phm.evaluation``.
"""

from .cloud import PointCloud, load_ply, save_ply
from .errors import PhmError
from .metric import MetricConfig, QualityReport, phm_score, prepare_reference

__all__ = [
    "MetricConfig",
    "QualityReport",
    "phm_score",
    "prepare_reference",
    "PointCloud",
    "load_ply",
    "save_ply",
    "PhmError",
]

__version__ = "0.1.0"
