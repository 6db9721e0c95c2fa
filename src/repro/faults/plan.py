"""Fault plans: declarative, seeded descriptions of injected faults.

A :class:`FaultPlan` is an immutable value object describing *what* to
inject — corruption-drop probability, duplication, reordering windows,
delay-jitter spikes, and link up/down flap schedules — plus a seed and
an optional channel-name filter.  It is composable onto any topology:
while a plan is armed (:func:`repro.faults.injecting`, the ``faults``
role of :mod:`repro.sim.observers`) every newly built channel whose
name matches the filter gets a
:class:`~repro.faults.injector.ChannelFaults` attached.

Plans parse from compact CLI specs::

    drop=0.01,dup=0.005,seed=3
    reorder=0.02,reorder-hold=0.02,target=r1->r2
    flap-period=5,flap-down=0.5

and three named profiles (``light``, ``heavy``, ``flap``) cover the
common sweeps.  :meth:`FaultPlan.describe` renders the canonical spec
string, which the harness folds into cache keys so faulted results
never collide with clean ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.errors import ConfigurationError

#: Named profiles accepted anywhere a spec string is.
PROFILES: Dict[str, str] = {
    "light": "drop=0.005,dup=0.002,reorder=0.005,jitter=0.01",
    "heavy": "drop=0.02,dup=0.01,reorder=0.02,jitter=0.05,jitter-max=0.02",
    "flap": "flap-period=5,flap-down=0.25",
}

_FLOAT_KEYS = {
    "drop": "drop",
    "dup": "duplicate",
    "duplicate": "duplicate",
    "reorder": "reorder",
    "reorder-hold": "reorder_hold",
    "jitter": "jitter",
    "jitter-max": "jitter_max",
    "flap-period": "flap_period",
    "flap-down": "flap_down",
}

_PROBABILITY_FIELDS = ("drop", "duplicate", "reorder", "jitter")


@dataclass(frozen=True)
class FaultPlan:
    """One immutable fault-injection configuration.

    Args:
        drop: per-packet corruption-drop probability at delivery time.
        duplicate: probability a delivered packet is delivered twice.
        reorder: probability a packet is held back so later packets
            overtake it (a reordering window).
        reorder_hold: how long (seconds) a held packet waits before a
            timer forces its release, bounding the reordering window.
        jitter: probability a delivery is hit by a delay spike.
        jitter_max: maximum extra delay (seconds) of one spike.
        flap_period: link up/down cycle length in seconds (0 disables).
        flap_down: seconds the link spends down in each cycle; packets
            arriving while down are dropped.
        target: substring filter on channel names; empty matches all.
        seed: root seed; each channel derives an independent stream
            from (seed, channel name), so plans are deterministic and
            independent of event interleaving across channels.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_hold: float = 0.01
    jitter: float = 0.0
    jitter_max: float = 0.01
    flap_period: float = 0.0
    flap_down: float = 0.0
    target: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault {name} must be a probability in [0, 1], "
                    f"got {value}")
        if self.reorder_hold < 0 or self.jitter_max < 0:
            raise ConfigurationError("fault durations must be non-negative")
        if self.flap_period < 0 or self.flap_down < 0:
            raise ConfigurationError("flap timings must be non-negative")
        if self.flap_down > self.flap_period:
            raise ConfigurationError(
                f"flap-down ({self.flap_down}) cannot exceed flap-period "
                f"({self.flap_period})")

    # ------------------------------------------------------------------
    # Parsing / rendering
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a profile name or ``k=v,...`` spec string."""
        spec = spec.strip()
        if spec in PROFILES:
            return cls.parse(PROFILES[spec])
        kwargs: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                known = ", ".join(sorted(PROFILES))
                raise ConfigurationError(
                    f"bad fault spec item {item!r} (expected key=value, or "
                    f"one of the profiles: {known})")
            key, _, raw = item.partition("=")
            key = key.strip().lower().replace("_", "-")
            raw = raw.strip()
            if key == "target":
                kwargs["target"] = raw
            elif key == "seed":
                try:
                    kwargs["seed"] = int(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"fault seed must be an integer, got {raw!r}"
                    ) from None
            elif key in _FLOAT_KEYS:
                try:
                    value = float(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"fault {key} must be a number, got {raw!r}"
                    ) from None
                # Validate ranges here, naming the token exactly as the
                # user spelled it — __post_init__ would catch the same
                # mistakes but reports canonical field names ("dup" has
                # already become "duplicate" by then).
                field_name = _FLOAT_KEYS[key]
                if field_name in _PROBABILITY_FIELDS and not 0.0 <= value <= 1.0:
                    raise ConfigurationError(
                        f"bad fault spec item {item!r}: {key} is a "
                        f"probability and must be in [0, 1]")
                if field_name not in _PROBABILITY_FIELDS and value < 0.0:
                    raise ConfigurationError(
                        f"bad fault spec item {item!r}: {key} is a "
                        f"duration in seconds and must be non-negative")
                kwargs[field_name] = value
            else:
                known = ", ".join(sorted(_FLOAT_KEYS) + ["seed", "target"])
                raise ConfigurationError(
                    f"unknown fault key {key!r} (known: {known})")
        return cls(**kwargs)

    def describe(self) -> str:
        """Canonical spec string: non-default fields, field order.

        Two plans are equal iff their descriptions are equal, which is
        what makes this safe to embed in cache keys.
        """
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            key = field.name.replace("_", "-")
            if isinstance(value, float):
                # repr() is the shortest exact round-trip form; %g
                # would truncate to 6 significant digits and alias
                # nearby plans onto one cache key.
                parts.append(f"{key}={value!r}")
            else:
                parts.append(f"{key}={value}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.drop == 0.0 and self.duplicate == 0.0
                and self.reorder == 0.0 and self.jitter == 0.0
                and (self.flap_period == 0.0 or self.flap_down == 0.0))

    def matches(self, channel_name: str) -> bool:
        """Does this plan apply to the channel named *channel_name*?"""
        return self.target in channel_name if self.target else True
