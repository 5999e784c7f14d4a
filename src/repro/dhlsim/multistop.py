"""Multi-stop DHL contention study (Section VI: Multi-stops).

A multi-stop DHL serves several racks from one rail.  The single tube
then becomes a shared resource: requests from different racks queue for
it, and the paper predicts that "multi-stop would motivate higher
speeds to ameliorate potential contention".  This module drives the
operational simulator with a seeded stochastic request load and
measures exactly that effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.params import DhlParams
from ..core.percentiles import percentile
from ..errors import ConfigurationError
from ..sim import Environment, Store
from ..storage.datasets import synthetic_dataset
from .api import DhlApi
from .scheduler import DhlSystem


@dataclass(frozen=True)
class TransferRequest:
    """One rack asking for one cart-sized shard at a given time."""

    request_id: int
    arrival_s: float
    endpoint_id: int
    shard_index: int


@dataclass(frozen=True)
class RequestOutcome:
    """Measured service of one request."""

    request: TransferRequest
    started_s: float
    completed_s: float

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.request.arrival_s

    @property
    def queueing_s(self) -> float:
        return self.started_s - self.request.arrival_s


@dataclass(frozen=True)
class ContentionReport:
    """Aggregate statistics of a multi-stop run."""

    params: DhlParams
    n_racks: int
    outcomes: tuple[RequestOutcome, ...]
    tube_utilisation: float = 0.0
    """Time-averaged busy fraction of the shared tube over the run."""

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean([outcome.latency_s for outcome in self.outcomes]))

    @property
    def p95_latency_s(self) -> float:
        # The shared rule equals np.percentile's default linear method,
        # so historical values are unchanged.
        return percentile([o.latency_s for o in self.outcomes], 95)

    @property
    def mean_queueing_s(self) -> float:
        return float(np.mean([outcome.queueing_s for outcome in self.outcomes]))

    @property
    def makespan_s(self) -> float:
        return max(outcome.completed_s for outcome in self.outcomes)


@dataclass
class MultiStopExperiment:
    """A seeded open-loop request load over a multi-stop DHL."""

    params: DhlParams = field(default_factory=DhlParams)
    n_racks: int = 3
    n_requests: int = 12
    mean_interarrival_s: float = 10.0
    stations_per_rack: int = 2
    seed: int = 0
    read_bytes: float | None = None
    """Bytes read per request; None reads the whole shard.  Small reads
    make tube contention (not SSD drain time) the dominant effect."""

    def __post_init__(self) -> None:
        if self.n_racks < 2:
            raise ConfigurationError("a multi-stop study needs >= 2 racks")
        if self.n_requests <= 0:
            raise ConfigurationError("n_requests must be >= 1")
        if self.mean_interarrival_s <= 0:
            raise ConfigurationError("mean_interarrival_s must be positive")
        if self.read_bytes is not None and self.read_bytes < 0:
            raise ConfigurationError("read_bytes must be >= 0")

    def generate_requests(self) -> list[TransferRequest]:
        """Poisson arrivals, racks drawn uniformly, one shard each."""
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(self.mean_interarrival_s, size=self.n_requests)
        arrivals = np.cumsum(gaps)
        racks = rng.integers(1, self.n_racks + 1, size=self.n_requests)
        return [
            TransferRequest(
                request_id=index,
                arrival_s=float(arrivals[index]),
                endpoint_id=int(racks[index]),
                shard_index=index,
            )
            for index in range(self.n_requests)
        ]

    def run(self) -> ContentionReport:
        """Simulate the load end to end and collect latency statistics."""
        from ..obs.metrics import UtilisationMonitor

        env = Environment()
        system = DhlSystem(
            env,
            params=self.params,
            n_racks=self.n_racks,
            stations_per_rack=self.stations_per_rack,
            library_slots=max(64, self.n_requests * 2),
        )
        tube_monitor = UtilisationMonitor(system.tracks[0].tube)
        dataset = synthetic_dataset(
            self.n_requests * self.params.storage_per_cart, name="multistop"
        )
        system.load_dataset(dataset)
        api = DhlApi(system)
        requests = self.generate_requests()
        done: Store = Store(env)

        def serve(request: TransferRequest):
            if request.arrival_s > env.now:
                yield env.timeout(request.arrival_s - env.now)
            started = env.now
            station = yield api.open(dataset.name, request.shard_index,
                                     request.endpoint_id)
            yield api.read(request.endpoint_id, dataset.name,
                           request.shard_index, n_bytes=self.read_bytes)
            yield api.close(station.cart, request.endpoint_id)
            yield done.put(
                RequestOutcome(
                    request=request, started_s=started, completed_s=env.now
                )
            )

        for request in requests:
            env.process(serve(request))

        def collect():
            outcomes = []
            for _ in requests:
                outcome = yield done.get()
                outcomes.append(outcome)
            return outcomes

        outcomes = env.run(until=env.process(collect()))
        return ContentionReport(
            params=self.params,
            n_racks=self.n_racks,
            outcomes=tuple(sorted(outcomes, key=lambda o: o.request.request_id)),
            tube_utilisation=tube_monitor.utilisation(),
        )


def speed_contention_sweep(
    speeds_m_s: tuple[float, ...] = (100.0, 200.0, 300.0),
    **experiment_kwargs: object,
) -> dict[float, ContentionReport]:
    """The paper's prediction, measured: higher speeds cut contention.

    Returns a report per top speed with otherwise identical seeds and
    load, so latency differences are attributable to the speed alone.
    """
    if not speeds_m_s:
        raise ConfigurationError("at least one speed is required")
    reports = {}
    for speed in speeds_m_s:
        experiment = MultiStopExperiment(
            params=DhlParams(max_speed=speed), **experiment_kwargs
        )
        reports[speed] = experiment.run()
    return reports
