"""Distributed-ML training simulator (the ASTRA-sim stand-in).

Models one DLRM training iteration — quantised or streamed data
ingestion overlapped with compute, closed by a dense-gradient
all-reduce — and the iso-power / iso-time comparisons of the paper's
Table VII and Figure 6.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".analysis": (
        "dhl_power_curve", "figure6_series", "iso_power_comparison",
        "iso_time_comparison", "network_power_curve", "SchemeResult", "SweepPoint",
    ),
    ".backends": ("Delivery", "DhlBackend", "IngestionBackend", "NetworkBackend"),
    ".downscale": (
        "downscaled_dhl_study", "downscaled_network_study", "DownscaleResult",
        "PAPER_DOWNSCALE_FACTOR", "ScaledBackend",
    ),
    ".epochs": (
        "reuse_study", "ReuseStudy", "RunResult", "simulate_run", "TrainingRun",
        "US_INDUSTRIAL_USD_PER_KWH",
    ),
    ".collectives": (
        "allgather_time", "alltoall_time", "best_allreduce_time", "broadcast_time",
        "reduce_scatter_time", "ring_allreduce_time", "tree_allreduce_time",
    ),
    ".operational": ("OperationalDhlBackend",),
    ".trainer": ("iteration_time_closed_form", "IterationResult", "simulate_iteration"),
    ".workload": ("ClusterSpec", "dlrm_iteration", "TrainingIteration"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
