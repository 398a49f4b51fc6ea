"""Benchmark scenes.

The paper evaluates on seven standard graphics scenes (Table 1): Sibenik,
Crytek Sponza, Lost Empire, Living Room, Fireplace Room, Bistro Interior
and Country Kitchen.  Those .obj assets are not redistributable here, so
this package provides deterministic *procedural stand-ins* with matching
character (indoor architectural interiors of varying complexity; a voxel
terrain for Lost Empire) at configurable triangle budgets.
"""

from repro.scenes.registry import SCENE_CODES, available_scenes, get_scene
from repro.scenes.scene import CameraSpec, Scene

__all__ = [
    "SCENE_CODES",
    "CameraSpec",
    "Scene",
    "available_scenes",
    "get_scene",
]
