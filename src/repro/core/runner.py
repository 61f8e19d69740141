"""Supervised execution of long-running work (training, sweeps).

MobiRescue's models are trained *before* a disaster and must come back up
under pressure.  The supervisor here treats a long run the way the
dispatch pipeline (PR 1) treats a dispatch cycle: failures are expected,
bounded, and recovered from —

* each attempt runs under an optional wall-clock **deadline**;
* transient failures are retried with **exponential backoff + jitter**
  (seeded, so tests are deterministic);
* every failed or timed-out attempt is recorded as an :class:`Incident`
  and logged under ``repro.core.runner``.

:func:`repro.training.supervised_sentinel_training` wires the supervisor
to the checkpointing training loop, whose every attempt restarts from the
**latest valid checkpoint** (corrupt or partially written checkpoints are
detected by the integrity manifest, quarantined, and skipped).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

logger = logging.getLogger("repro.core.runner")

T = TypeVar("T")


class AttemptTimeoutError(RuntimeError):
    """An attempt exceeded its per-attempt deadline."""


class RetriesExhaustedError(RuntimeError):
    """Every attempt failed; the last underlying failure is ``__cause__``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter."""

    max_attempts: int = 3
    base_delay_s: float = 0.5
    backoff: float = 2.0
    max_delay_s: float = 30.0
    #: Fraction of the backoff delay added as uniform random jitter, so a
    #: fleet of restarted jobs does not thundering-herd shared resources.
    jitter: float = 0.5
    #: Wall-clock deadline per attempt (None disables).
    attempt_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff delay before retrying after failed attempt ``attempt``."""
        base = min(self.max_delay_s, self.base_delay_s * self.backoff**attempt)
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class Incident:
    """One recorded supervision event (for logs, tests and post-mortems)."""

    kind: str
    message: str
    attempt: int


@dataclass
class Supervisor:
    """Run attempts under a :class:`RetryPolicy`, recording incidents.

    ``sleep`` is injectable so tests assert the backoff schedule without
    waiting it out.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    name: str = "job"
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        self.incidents: list[Incident] = []
        self._rng = np.random.default_rng(self.seed)
        self._attempt = 0

    def record(self, kind: str, message: str) -> None:
        incident = Incident(kind=kind, message=message, attempt=self._attempt)
        self.incidents.append(incident)
        logger.warning("%s: [%s] %s (attempt %d)", self.name, kind, message, self._attempt)

    def run(
        self,
        attempt_fn: Callable[[int], T],
        retryable: tuple[type[BaseException], ...] = (Exception,),
    ) -> T:
        """Call ``attempt_fn(attempt_index)`` until it succeeds.

        Exceptions outside ``retryable`` (and ``KeyboardInterrupt`` /
        ``SystemExit``) propagate immediately.  When every attempt fails,
        :class:`RetriesExhaustedError` is raised from the last failure.
        """
        policy = self.policy
        last: BaseException | None = None
        for attempt in range(policy.max_attempts):
            self._attempt = attempt
            try:
                return self._call(attempt_fn, attempt)
            except retryable as exc:
                kind = (
                    "attempt-timeout"
                    if isinstance(exc, AttemptTimeoutError)
                    else "attempt-failed"
                )
                self.record(kind, f"{type(exc).__name__}: {exc}")
                last = exc
                if attempt + 1 < policy.max_attempts:
                    delay = policy.delay_s(attempt, self._rng)
                    logger.info(
                        "%s: retrying in %.2fs (attempt %d/%d)",
                        self.name, delay, attempt + 2, policy.max_attempts,
                    )
                    self.sleep(delay)
        raise RetriesExhaustedError(
            f"{self.name}: all {policy.max_attempts} attempts failed"
        ) from last

    def _call(self, attempt_fn: Callable[[int], T], attempt: int) -> T:
        timeout = self.policy.attempt_timeout_s
        if timeout is None:
            return attempt_fn(attempt)
        box: dict[str, object] = {}

        def target() -> None:
            try:
                box["result"] = attempt_fn(attempt)
            except BaseException as exc:  # repro: allow-broad-except -- the
                # supervisor's relay: the exception is re-raised in the
                # calling thread (see `raise box["error"]` below).
                box["error"] = exc

        # A daemon thread cannot be killed; on timeout it is abandoned (it
        # keeps no locks the supervisor needs) and the attempt is charged
        # as failed.  Checkpoint commits are atomic, so an abandoned
        # attempt can at worst leave an ignorable staging directory.
        worker = threading.Thread(
            target=target, name=f"{self.name}-attempt-{attempt}", daemon=True
        )
        worker.start()
        worker.join(timeout)
        if worker.is_alive():
            raise AttemptTimeoutError(
                f"attempt {attempt} exceeded deadline of {timeout:.1f}s"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]

