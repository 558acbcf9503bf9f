"""Synthetic sequence generators: shapes, determinism, recoverable motion."""

import numpy as np
import pytest

from mvpo import (
    InputError,
    MotionVector,
    MovingRect,
    RdParams,
    SynthPattern,
    SynthSpec,
    encode_sequence,
    synthesize,
)

from mvpo.synth import _default_objects

from mvpo_testutil import encode_synth


def test_shapes_and_dtype():
    for pattern in SynthPattern:
        spec = SynthSpec(pattern, 48, 32, 4, seed=1)
        frames = synthesize(spec)
        assert len(frames) == 4
        assert all((f.width, f.height) == (48, 32) for f in frames)
        assert all(f.data.dtype == np.uint8 for f in frames)


def test_synthesis_is_deterministic():
    for pattern in SynthPattern:
        spec = SynthSpec(pattern, 32, 32, 3, seed=7)
        a = synthesize(spec)
        b = synthesize(spec)
        assert all(x == y for x, y in zip(a, b))
    different = synthesize(SynthSpec(SynthPattern.GLOBAL_SHIFT, 32, 32, 3, seed=8))
    base = synthesize(SynthSpec(SynthPattern.GLOBAL_SHIFT, 32, 32, 3, seed=7))
    assert base[0] != different[0]


def test_global_shift_wraps_by_amplitude():
    frames = synthesize(SynthSpec(SynthPattern.GLOBAL_SHIFT, 16, 8, 3, seed=2, amplitude=(1, 0)))
    f0, f1, f2 = (f.data for f in frames)
    assert np.array_equal(f1, np.roll(f0, 1, axis=1))
    assert np.array_equal(f2, np.roll(f0, 2, axis=1))
    vertical = synthesize(SynthSpec(SynthPattern.GLOBAL_SHIFT, 16, 8, 2, seed=2, amplitude=(0, 3)))
    assert np.array_equal(vertical[1].data, np.roll(vertical[0].data, 3, axis=0))


def test_noise_frames_are_all_distinct():
    frames = synthesize(SynthSpec(SynthPattern.NOISE_TEXTURE, 32, 32, 5, seed=3))
    blobs = {f.data.tobytes() for f in frames}
    assert len(blobs) == 5


def test_static_amplitude_freezes_content():
    frames = synthesize(SynthSpec(SynthPattern.GLOBAL_SHIFT, 32, 32, 3, seed=4, amplitude=(0, 0)))
    assert frames[0] == frames[1] == frames[2]


def test_multi_object_moves_only_the_objects():
    rect = MovingRect(x=16, y=16, width=48, height=48, vel_x=2, vel_y=1)
    spec = SynthSpec(SynthPattern.MULTI_OBJECT, 96, 96, 2, seed=5, objects=(rect,))
    f0, f1 = (f.data for f in synthesize(spec))
    # the object body translates by its velocity
    assert np.array_equal(f1[17 : 17 + 48, 18 : 18 + 48], f0[16 : 16 + 48, 16 : 16 + 48])
    # background far from both object positions stays put
    assert np.array_equal(f1[80:96, 0:12], f0[80:96, 0:12])
    assert not np.array_equal(f0, f1)


def test_multi_object_motion_is_recoverable_by_search():
    rect = MovingRect(x=16, y=16, width=48, height=48, vel_x=2, vel_y=1)
    spec = SynthSpec(SynthPattern.MULTI_OBJECT, 96, 96, 2, seed=5, objects=(rect,))
    stream, field = encode_sequence(synthesize(spec), RdParams(qp=25, pu_size=32, search_range=8))
    # the centre PU lies fully inside the object in both frames
    assert field.get(1, 32, 32) == MotionVector(8, 4)


def test_default_objects_are_seed_stable_and_in_motion():
    a = synthesize(SynthSpec(SynthPattern.MULTI_OBJECT, 64, 64, 3, seed=6, amplitude=(2, 2)))
    b = synthesize(SynthSpec(SynthPattern.MULTI_OBJECT, 64, 64, 3, seed=6, amplitude=(2, 2)))
    assert all(x == y for x, y in zip(a, b))
    assert a[0] != a[1]  # something moved


@pytest.mark.parametrize("amp", [(0, 0), (1, 0), (2, 2), (0, 3), (-2, 1)], ids=lambda a: f"{a[0]}x{a[1]}")
def test_default_objects_draw_both_axes_within_the_largest_amplitude(amp):
    # each of the 3 rectangles moves on both axes by up to max(|ax|, |ay|, 1) pels a frame, never (0, 0)
    cap = max(abs(amp[0]), abs(amp[1]), 1)
    seen_x, seen_y = set(), set()
    for seed in range(20):
        rects = _default_objects(SynthSpec(SynthPattern.MULTI_OBJECT, 64, 48, 2, seed=seed, amplitude=amp))
        assert len(rects) == 3
        for rect in rects:
            assert (rect.vel_x, rect.vel_y) != (0, 0)
            seen_x.add(rect.vel_x)
            seen_y.add(rect.vel_y)
    # every velocity in [-cap, cap] is reached on both axes, whatever the sign or axis of amp
    assert seen_x == seen_y == set(range(-cap, cap + 1))


def test_noise_ignores_the_amplitude():
    frames = synthesize(SynthSpec(SynthPattern.NOISE_TEXTURE, 32, 32, 3, seed=3, amplitude=(0, 0)))
    for amp in ((1, 0), (2, 2), (-2, 1)):
        assert synthesize(SynthSpec(SynthPattern.NOISE_TEXTURE, 32, 32, 3, seed=3, amplitude=amp)) == frames


def test_spec_validation():
    with pytest.raises(InputError, match=r"^size 0x32 must be positive$"):
        SynthSpec(SynthPattern.GLOBAL_SHIFT, 0, 32, 2)
    with pytest.raises(InputError, match=r"^frame_count 0 must be >= 1$"):
        SynthSpec(SynthPattern.GLOBAL_SHIFT, 32, 32, 0)


def test_a_pattern_given_by_its_value_is_that_pattern():
    for pattern in SynthPattern:
        spec = SynthSpec(pattern.value, 32, 32, 3, seed=4)
        assert spec == SynthSpec(pattern, 32, 32, 3, seed=4)
        assert spec.pattern is pattern
        assert synthesize(spec) == synthesize(SynthSpec(pattern, 32, 32, 3, seed=4))
    with pytest.raises(InputError, match=r"^unknown pattern 'shiftx', expected one of \['shift', 'objects', 'noise'\]$"):
        SynthSpec("shiftx", 32, 32, 2)


def test_encoded_synthetic_sequences_have_full_grids():
    stream, _, _ = encode_synth("objects", size=(48, 32), frames=4, amp=(1, 1), seed=9)
    assert stream.n_records == (48 // 16) * (32 // 16) * 3
