"""Working unit constants.

Atomic-style conventions: hbar and the elementary charge are 1 by
default, and the speed of light is the inverse fine-structure constant.
Masses are numbers in units of the electron mass; no formula needs the
mass constant itself, so it is not kept.  Every physics routine threads a
``Units`` instance so alternative conventions stay a one-line change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 137.035999


@dataclass(frozen=True)
class Units:
    hbar: float = 1.0
    charge: float = 1.0
    light_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field.name} must be positive and finite, got {value}")


ATOMIC = Units()
