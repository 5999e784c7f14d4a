"""Fault injection: in-flight SSD failures and RAID recovery (Section III-D).

The paper notes that "if an SSD fails in-flight, the endpoint's DHL API
will report the error, and RAID and backups can ameliorate the issue".
This module injects per-trip drive failures so tests and benches can
measure the cost of that recovery path.

The injector registers on :attr:`DhlSystem.pre_shuttle_hooks` rather
than monkey-patching the shuttle: multiple injectors compose cleanly
(each rolls its own RNG) and :meth:`FaultInjector.detach` removes one
without disturbing the others — the old wrapping approach silently
double-wrapped the shuttle and could never be undone.  Track, dock and
cart-stall faults live in :mod:`repro.dhlsim.reliability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, DataIntegrityError
from .cart import Cart
from .scheduler import DhlSystem, ShuttleAttempt


@dataclass
class FaultInjector:
    """Bernoulli per-drive, per-trip failure injection.

    ``per_drive_trip_failure_prob`` is the chance any single SSD fails
    during one shuttle (vibration, connector wear, induced currents).
    Deterministic under a fixed seed.
    """

    system: DhlSystem
    per_drive_trip_failure_prob: float
    seed: int = 0
    injected_failures: int = 0
    lost_carts: int = 0
    _rng: np.random.Generator = field(init=False)
    _attached: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_drive_trip_failure_prob <= 1.0:
            raise ConfigurationError(
                "per_drive_trip_failure_prob must be in [0, 1], got "
                f"{self.per_drive_trip_failure_prob}"
            )
        self._rng = np.random.default_rng(self.seed)
        self.system.pre_shuttle_hooks.append(self._on_shuttle)
        self._attached = True

    def detach(self) -> None:
        """Stop injecting; idempotent, leaves other hooks untouched.

        Safe even when the hook was already removed externally (a fuzzer
        clearing ``pre_shuttle_hooks`` wholesale, a test tearing the
        system down): a missing hook is treated as already detached
        rather than surfacing ``ValueError`` from ``list.remove``.
        """
        if self._attached:
            try:
                self.system.pre_shuttle_hooks.remove(self._on_shuttle)
            except ValueError:
                pass  # removed behind our back; detaching is still done
            self._attached = False

    def __enter__(self) -> "FaultInjector":
        """Context-manager form: ``with FaultInjector(...) as inj``.

        Guarantees the hook is detached on exit, so state machines and
        fuzzers cannot leak attached injectors across examples.
        """
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    @property
    def attached(self) -> bool:
        return self._attached

    def _on_shuttle(self, attempt: ShuttleAttempt) -> None:
        self.inject(attempt.cart)

    def inject(self, cart: Cart) -> int:
        """Roll failures for one trip; returns drives failed this trip."""
        n_drives = cart.array.count - cart.failed_drives
        if n_drives <= 0:
            return 0
        failures = int(
            self._rng.binomial(n_drives, self.per_drive_trip_failure_prob)
        )
        if failures:
            cart.fail_drive(failures)
            self.injected_failures += failures
            try:
                cart.check_integrity()
            except DataIntegrityError:
                self.lost_carts += 1
        return failures


def expected_failures_per_campaign(
    n_drives_per_cart: int,
    launches: int,
    per_drive_trip_failure_prob: float,
) -> float:
    """Closed-form expectation to validate the injector against."""
    if n_drives_per_cart <= 0 or launches < 0:
        raise ConfigurationError("drive and launch counts must be positive")
    if not 0.0 <= per_drive_trip_failure_prob <= 1.0:
        raise ConfigurationError("failure probability must be in [0, 1]")
    return n_drives_per_cart * launches * per_drive_trip_failure_prob
