"""Alternative data-movement baselines the paper argues against.

Friction-limited embodied movement (hand-carried drives, Snowmobile-
class trucking) from Sections II-C and VII-B, quantified so the DHL's
frictionless-maglev advantage can be measured rather than asserted.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".sneakernet": (
        "breakeven_against_carrier", "FrictionCarrier", "HUMAN_PORTER",
        "metabolic_equivalent_note", "plan_sneakernet", "SneakernetPlan",
        "snowmobile_reference_time", "SNOWMOBILE_TRUCK",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
