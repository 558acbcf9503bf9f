"""Deterministic synthetic test sequences.

Three generators: a globally translating random texture (wrap-around), a set
of textured rectangles drifting over a static background, and per-frame
re-seeded noise as the worst case for motion search.  Every frame is a pure
function of the spec, so runs reproduce bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import MV_MAX
from .errors import InputError, check_geometry
from .stream import Plane


class SynthPattern(enum.Enum):
    GLOBAL_SHIFT = "shift"
    MULTI_OBJECT = "objects"
    NOISE_TEXTURE = "noise"


@dataclass(frozen=True)
class MovingRect:
    """A textured rectangle with a constant per-frame velocity in pels."""

    x: int
    y: int
    width: int
    height: int
    vel_x: int
    vel_y: int


@dataclass(frozen=True)
class SynthSpec:
    pattern: SynthPattern
    width: int
    height: int
    frame_count: int
    seed: int = 0
    amplitude: tuple[int, int] = (1, 0)
    objects: tuple[MovingRect, ...] | None = None

    def __post_init__(self):
        try:  # a pattern may be given by its value, as in `SynthSpec("shift", ...)`
            object.__setattr__(self, "pattern", SynthPattern(self.pattern))
        except ValueError:
            names = [p.value for p in SynthPattern]
            raise InputError(f"unknown pattern {self.pattern!r}, expected one of {names}") from None
        check_geometry(self.width, self.height, self.frame_count, "size", "frame_count")
        if self.seed < 0:
            raise InputError(f"seed {self.seed} must be >= 0")
        ax, ay = self.amplitude
        if max(abs(ax), abs(ay)) > MV_MAX // 4:  # an object's velocity is drawn within the amplitude
            raise InputError(f"amp {ax}x{ay} exceeds the {MV_MAX // 4} pels a motion vector carries")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def _default_objects(spec: SynthSpec) -> tuple[MovingRect, ...]:
    rng = _rng(spec.seed, 1)
    cap = max(abs(spec.amplitude[0]), abs(spec.amplitude[1]), 1)
    rects = []
    for _ in range(3):
        ow = int(rng.integers(spec.width // 4, max(spec.width // 2, spec.width // 4 + 1)))
        oh = int(rng.integers(spec.height // 4, max(spec.height // 2, spec.height // 4 + 1)))
        ox = int(rng.integers(0, spec.width))
        oy = int(rng.integers(0, spec.height))
        vx, vy = 0, 0
        while vx == 0 and vy == 0:
            vx = int(rng.integers(-cap, cap + 1))
            vy = int(rng.integers(-cap, cap + 1))
        rects.append(MovingRect(ox, oy, max(ow, 1), max(oh, 1), vx, vy))
    return tuple(rects)


def _paint_wrapped(frame: np.ndarray, tex: np.ndarray, x: int, y: int) -> None:
    h, w = frame.shape
    rows = (np.arange(tex.shape[0]) + y) % h
    cols = (np.arange(tex.shape[1]) + x) % w
    frame[np.ix_(rows, cols)] = tex


def synthesize(spec: SynthSpec) -> list[Plane]:
    """Generate the frames described by `spec`."""
    if spec.pattern is SynthPattern.GLOBAL_SHIFT:
        base = _texture(_rng(spec.seed, 0), spec.height, spec.width)
        ax, ay = spec.amplitude
        return [
            Plane(np.roll(base, shift=(k * ay, k * ax), axis=(0, 1)))
            for k in range(spec.frame_count)
        ]

    if spec.pattern is SynthPattern.MULTI_OBJECT:
        background = _texture(_rng(spec.seed, 0), spec.height, spec.width)
        rects = spec.objects if spec.objects is not None else _default_objects(spec)
        textures = [
            _texture(_rng(spec.seed, 2 + i), min(r.height, spec.height), min(r.width, spec.width))
            for i, r in enumerate(rects)
        ]
        frames = []
        for k in range(spec.frame_count):
            frame = background.copy()
            for rect, tex in zip(rects, textures):
                _paint_wrapped(frame, tex, rect.x + k * rect.vel_x, rect.y + k * rect.vel_y)
            frames.append(Plane(frame))
        return frames

    # SynthPattern.NOISE_TEXTURE
    return [Plane(_texture(_rng(spec.seed, 0, k), spec.height, spec.width)) for k in range(spec.frame_count)]
