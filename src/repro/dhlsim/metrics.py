"""Metric-name prefixes the DHL simulator writes under.

Every sample lands in the system's :class:`repro.obs.MetricsRegistry`
(:attr:`DhlSystem.metrics`): energy under ``energy_j.*``, counters
under ``count.*`` and durations under ``duration_s.*``.  Read them back
with ``system.metrics.value(COUNT_PREFIX + "launches")``.
"""

ENERGY_PREFIX = "energy_j."
COUNT_PREFIX = "count."
DURATION_PREFIX = "duration_s."
