"""Chaos engineering for the DHL fleet: declarative, replayable fault
campaigns and the machinery that proves the fleet degrades gracefully
under them.

The paper's §III-D failure story ("RAID and backups can ameliorate the
issue") stops at a single in-flight SSD; a datacentre-scale DHL also
loses whole tracks, saturates its repair crews, browns out LIM power
and drops rack-side cache nodes — often *together*, because failures in
one pod are correlated.  This package turns those scenarios into data:

* :mod:`repro.chaos.campaigns` — a :class:`ChaosCampaign` is a frozen,
  picklable set of timed :class:`CampaignEvent`\\ s (pod-wide track
  outages, brownout windows, correlated cart-batch failures, cache-node
  loss) plus an optional background MTTF/MTTR cocktail and a bounded
  repair-crew pool, all derived from one seed;
* :mod:`repro.chaos.crew` — the :class:`RepairCrewPool` that serialises
  repairs behind a finite maintenance workforce, FIFO;
* :mod:`repro.chaos.runner` — schedules a campaign's events on the DES
  clock against a fleet's per-track simulators, composing the existing
  :mod:`repro.dhlsim.reliability` / :mod:`repro.dhlsim.faults`
  injectors rather than reimplementing them;
* :mod:`repro.chaos.bench` — the ``repro chaos`` artefact: the same
  seeded campaign run fault-free, naively (no degradation) and
  chaos-hardened (circuit breakers + cache rehoming), with the p99 and
  deadline-miss gates committed to ``BENCH_chaos.json``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".campaigns": (
        "BROWNOUT", "CACHE_NODE_LOSS", "CampaignEvent", "CART_BATCH_FAILURE",
        "CHAOS_SHUTTLE_POLICY", "ChaosCampaign", "default_campaign", "EVENT_KINDS",
        "TRACK_OUTAGE",
    ),
    ".crew": ("RepairCrewPool",),
    ".runner": ("CampaignLog", "CampaignRunner", "install_campaign"),
    ".bench": (
        "chaos_scenario", "ChaosBenchReport", "P99_DEGRADATION_BOUND", "run_chaos_bench",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
