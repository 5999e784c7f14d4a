"""Storage substrate: devices, SSD arrays, dataset and model catalogues.

This package provides the storage-side facts the paper builds on —
Table I (emerging datasets), Table II (storage devices) and Table IV
(large ML models) — plus the cart-side SSD array model and the library
placement planner used by the DHL simulators.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".datasets": (
        "Dataset", "dataset_by_name", "DataStream", "LHC_CMS_DETECTOR", "lhc_hour",
        "META_ML_LARGE", "synthetic_dataset", "TABLE_I_DATASETS", "TABLE_I_STREAMS",
    ),
    ".growth": (
        "carts_per_day", "Crossover", "DATA_GROWTH_CAGR", "dhl_headroom_years",
        "projected_dataset", "projected_rate", "saturation_year",
    ),
    ".devices": (
        "device_by_name", "drives_required", "FORM_FACTOR_3_5_INCH",
        "FORM_FACTOR_M_2_2280", "FORM_FACTOR_U_2", "FormFactor", "m2_versus_hdd",
        "NIMBUS_EXADRIVE_100TB", "SABRENT_ROCKET_4_PLUS_8TB", "StorageDevice",
        "TABLE_II_DEVICES", "WD_GOLD_24TB",
    ),
    ".library": ("LibraryInventory", "PlacementPlan", "plan_placement", "Shard"),
    ".mlmodels": (
        "DLRM_2022", "MlModel", "model_by_name", "parameter_bytes", "TABLE_IV_MODELS",
    ),
    ".ssd_array": (
        "array_for_capacity", "DegradedArray", "PCIE6_X64", "PcieLink", "SsdArray",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
