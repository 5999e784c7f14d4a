"""Online policies over the fleet's joint action space — no heavy deps.

Two families, both seeded, picklable and cheap enough to run inside
the DES loop:

* :class:`FixedPolicy` — adapters pinning one joint action forever;
  every fixed (dispatch, eviction) combo from the fleet bench becomes
  a baseline the learner is scored against.
* :class:`TabularQ` — epsilon-greedy tabular Q-learning over the
  discretised observation vector.  Pure-Python float arithmetic
  end-to-end, which is what makes its fingerprints byte-identical
  across machines *and* across serial/process training fan-out.

Determinism contract: every policy's behaviour is a function of its
constructor arguments, the episode seed installed by
:meth:`Policy.seed_episode`, and the exact sequence of ``act`` /
``update`` calls.  :meth:`Policy.fingerprint` hashes the learned
parameters canonically, so "same training" is checkable as a string
equality.
"""

from __future__ import annotations

import copy
import hashlib
import random
import struct

from ..errors import ConfigurationError
from .env import ACTIONS, Action, N_ACTIONS, action_index

#: Bins per observation component for discretised (tabular) learners.
DEFAULT_BINS = 4


def discretise(obs: tuple[float, ...], bins: int = DEFAULT_BINS) -> tuple[int, ...]:
    """Map a normalised observation to a tuple of integer bins.

    Components are expected in ``[0, 1]`` (the :class:`FleetEnv`
    contract); values outside clamp to the edge bins, so a slightly
    out-of-range float can never invent a new state.
    """
    if bins < 1:
        raise ConfigurationError(f"bins must be >= 1, got {bins}")
    return tuple(
        min(bins - 1, max(0, int(value * bins))) for value in obs
    )


def _canonical_bytes(value) -> bytes:
    """Deterministic byte encoding of nested params for fingerprints."""
    if isinstance(value, float):
        return b"f" + struct.pack("<d", value)
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"s" + str(len(encoded)).encode() + b":" + encoded
    if isinstance(value, (tuple, list)):
        return (
            b"t" + str(len(value)).encode() + b"["
            + b"".join(_canonical_bytes(item) for item in value) + b"]"
        )
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return (
            b"d" + str(len(items)).encode() + b"{"
            + b"".join(
                _canonical_bytes(key) + b"=" + _canonical_bytes(item)
                for key, item in items
            )
            + b"}"
        )
    raise ConfigurationError(
        f"cannot canonically encode {type(value).__name__} for fingerprinting"
    )


def _mix_seed(seed: int, episode: int) -> int:
    """Distinct, stable per-episode stream id (no salted hashing)."""
    return (seed * 1_000_003 + episode * 7_919 + 12_345) % (2**63)


class Policy:
    """Base contract every learner and baseline adapter satisfies.

    Subclasses override :meth:`act` (and usually :meth:`update` and
    :meth:`params`).  Policies are plain picklable objects: training
    snapshots them with ``pickle`` to fan episodes out and the bench
    freezes them with :meth:`greedy` for evaluation.
    """

    n_actions: int = N_ACTIONS

    def seed_episode(self, episode_seed: int) -> None:
        """Re-seed the exploration stream for one episode."""
        self._rng = random.Random(_mix_seed(self.seed, episode_seed))

    def act(self, obs: tuple[float, ...]) -> int:
        raise NotImplementedError

    def update(self, obs, action: int, reward: float, next_obs, done: bool) -> None:
        """Absorb one transition; baselines ignore it."""

    def params(self):
        """The learned parameters in canonically encodable form."""
        return ()

    def fingerprint(self) -> str:
        """SHA-256 over the canonical parameter encoding."""
        digest = hashlib.sha256()
        digest.update(type(self).__name__.encode())
        digest.update(_canonical_bytes(self.params()))
        return digest.hexdigest()

    def greedy(self) -> "Policy":
        """A frozen copy for evaluation: no exploration, no learning."""
        frozen = copy.deepcopy(self)
        frozen.freeze()
        return frozen

    def freeze(self) -> None:
        """Disable exploration and learning in place."""

    def _argmax(self, values) -> int:
        """Deterministic argmax: ties break to the lowest action index."""
        best, best_value = 0, values[0]
        for index in range(1, len(values)):
            if values[index] > best_value:
                best, best_value = index, values[index]
        return best


class FixedPolicy(Policy):
    """Always the same joint action — the baseline adapter.

    ``FixedPolicy(Action("edf", "lru", "failover"))`` is the fleet
    bench's headline combo expressed as a policy, which is exactly how
    the learn bench scores learned against fixed control.
    """

    def __init__(self, action: Action | int):
        self.seed = 0
        self.action = (
            action_index(action) if isinstance(action, Action) else int(action)
        )
        if not 0 <= self.action < N_ACTIONS:
            raise ConfigurationError(
                f"action index {self.action} outside [0, {N_ACTIONS})"
            )

    def seed_episode(self, episode_seed: int) -> None:  # no RNG needed
        pass

    def act(self, obs) -> int:
        return self.action

    def params(self):
        return (self.action,)

    @property
    def label(self) -> str:
        return ACTIONS[self.action].label


def fixed_policy(dispatch: str, eviction: str,
                 overflow: str | None = None) -> FixedPolicy:
    """The baseline adapter for one fixed (dispatch, eviction) combo."""
    action = Action(
        dispatch=dispatch,
        eviction=eviction,
        overflow=overflow if overflow is not None else Action().overflow,
    )
    return FixedPolicy(action)


class TabularQ(Policy):
    """Epsilon-greedy tabular Q-learning over discretised observations.

    The committed-gate learner: state keys are integer bin tuples, the
    table is a plain dict, and every arithmetic step is pure-Python
    IEEE-754 — so two trainings that see the same transitions in the
    same order produce byte-identical fingerprints on any platform.
    """

    def __init__(self, epsilon: float = 0.15, alpha: float = 0.3,
                 gamma: float = 0.9, bins: int = DEFAULT_BINS,
                 seed: int = 0, n_actions: int = N_ACTIONS):
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be within [0, 1], got {epsilon}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be within (0, 1], got {alpha}"
            )
        if not 0.0 <= gamma < 1.0:
            raise ConfigurationError(
                f"gamma must be within [0, 1), got {gamma}"
            )
        self.epsilon = epsilon
        self.alpha = alpha
        self.gamma = gamma
        self.bins = bins
        self.seed = seed
        self.n_actions = n_actions
        self.q: dict[tuple[int, ...], list[float]] = {}
        self.frozen = False
        self.seed_episode(0)

    def _row(self, state: tuple[int, ...]) -> list[float]:
        row = self.q.get(state)
        if row is None:
            row = [0.0] * self.n_actions
            self.q[state] = row
        return row

    def act(self, obs) -> int:
        if not self.frozen and self._rng.random() < self.epsilon:
            return self._rng.randrange(self.n_actions)
        state = discretise(obs, self.bins)
        row = self.q.get(state)
        if row is None:
            return 0
        return self._argmax(row)

    def update(self, obs, action, reward, next_obs, done) -> None:
        if self.frozen:
            return
        state = discretise(obs, self.bins)
        row = self._row(state)
        if done:
            target = reward
        else:
            next_row = self.q.get(discretise(next_obs, self.bins))
            best_next = max(next_row) if next_row is not None else 0.0
            target = reward + self.gamma * best_next
        row[action] += self.alpha * (target - row[action])

    def freeze(self) -> None:
        self.frozen = True

    def params(self):
        return {
            state: tuple(row) for state, row in self.q.items()
        }


__all__ = [
    "DEFAULT_BINS",
    "FixedPolicy",
    "Policy",
    "TabularQ",
    "discretise",
    "fixed_policy",
]
