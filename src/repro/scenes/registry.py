"""Scene registry: look scenes up by code or name.

``get_scene("SP")`` (or ``"crytek_sponza"``) returns the stand-in scene;
the ``detail`` knob scales triangle counts, so experiments can trade
fidelity for simulation time uniformly across all seven scenes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.scenes import generators
from repro.scenes.scene import Scene

#: Scene codes in the order the paper's figures list them.
SCENE_CODES: List[str] = ["SB", "SP", "LE", "LR", "FR", "BI", "CK"]

_GENERATORS: Dict[str, Callable[[float], Scene]] = {
    "SB": generators.sibenik,
    "SP": generators.crytek_sponza,
    "LE": generators.lost_empire,
    "LR": generators.living_room,
    "FR": generators.fireplace_room,
    "BI": generators.bistro_interior,
    "CK": generators.country_kitchen,
}

_ALIASES: Dict[str, str] = {
    "sibenik": "SB",
    "crytek_sponza": "SP",
    "sponza": "SP",
    "lost_empire": "LE",
    "living_room": "LR",
    "fireplace_room": "FR",
    "bistro_interior": "BI",
    "bistro": "BI",
    "country_kitchen": "CK",
    "kitchen": "CK",
}


def available_scenes() -> List[str]:
    """Scene codes known to the registry, in paper order."""
    return list(SCENE_CODES)


def scene_code(name: str) -> str:
    """The registry code of a scene code or alias, case-insensitive.

    Raises:
        KeyError: if the scene is unknown (the message lists the codes
            and aliases).
    """
    code = name.upper()
    if code not in _GENERATORS:
        code = _ALIASES.get(name.lower(), "")
    if code not in _GENERATORS:
        raise KeyError(
            f"unknown scene {name!r}; available: {SCENE_CODES} "
            f"or aliases {sorted(_ALIASES)}"
        )
    return code


def get_scene(name: str, detail: float = 1.0) -> Scene:
    """Build the scene identified by code (``"SP"``) or name (``"sponza"``).

    Args:
        name: scene code or alias, case-insensitive.
        detail: triangle-budget multiplier (1.0 = default few-thousand tris).

    Raises:
        KeyError: if the scene is unknown.
        ValueError: if ``detail`` is not a positive finite number.
    """
    if not math.isfinite(detail):
        raise ValueError("detail must be a positive finite number")
    if detail <= 0.0:
        raise ValueError("detail must be positive")
    return _GENERATORS[scene_code(name)](detail)
