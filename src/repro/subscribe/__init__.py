"""Continuous kNN subscriptions: standing queries refreshed by deltas.

Public surface:

* :class:`~repro.subscribe.manager.SubscriptionManager` — registers
  ``(location, k)`` standing queries over a server, router, or front
  door backend; taps the update stream, marks dirty subscribers by the
  standing-answer rule (:mod:`repro.plan.standing`), and refreshes them
  per tick through batched epochs.
* :class:`~repro.subscribe.events.DeltaEvent` /
  :func:`~repro.subscribe.events.diff_topk` /
  :func:`~repro.subscribe.events.replay_deltas` — the lossless
  ``enter``/``leave``/``rerank`` result-delta stream.
* :func:`~repro.subscribe.harness.run_subscription_replay` — the
  differential twin replay proving incremental == from-scratch.
"""

from repro.subscribe.events import (
    EVENT_ENTER,
    EVENT_KINDS,
    EVENT_LEAVE,
    EVENT_RERANK,
    DeltaEvent,
    diff_topk,
    replay_deltas,
)
from repro.subscribe.harness import (
    SubscriptionReplayOutcome,
    run_subscription_replay,
)
from repro.subscribe.manager import (
    Subscription,
    SubscriptionManager,
    SubsInstruments,
    TickResult,
)

__all__ = [
    "DeltaEvent",
    "EVENT_ENTER",
    "EVENT_KINDS",
    "EVENT_LEAVE",
    "EVENT_RERANK",
    "Subscription",
    "SubscriptionManager",
    "SubscriptionReplayOutcome",
    "SubsInstruments",
    "TickResult",
    "diff_topk",
    "replay_deltas",
    "run_subscription_replay",
]
