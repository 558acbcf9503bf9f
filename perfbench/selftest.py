#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload emits every metric named in BENCHMARK.json
with its unit, and that the correctness gate can fail: a cover with one
flipped candidate index and a wrong pinned digest must both be counted as
failed operations.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import run

TINY = run.Scale(cif=(64, 48), frames=4, grid=(32, 32), grid_frames=4, setup_reps=1)
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def flip_first_ambiguous_index(workload) -> None:
    """Flip the idx byte of the first cover PU whose two candidates differ."""
    mvpo = workload.mvpo
    path = Path("cover.mvpo")
    stream = mvpo.load_stream(path)
    k = next(k for k, (_, cands, _) in enumerate(mvpo.decode_walk(stream)) if not cands.identical)
    data = bytearray(path.read_bytes())
    data[mvpo.formats.HEADER_SIZE + k * mvpo.formats.RECORD_SIZE + 8] ^= 1  # idx is byte 8 of a record
    path.write_bytes(bytes(data))


class BenchmarkSmokeTest(unittest.TestCase):
    def _run(self, name: str, trace: bool, **kwargs) -> dict:
        return run.run_workload(name, seed=0, seconds=0, trace=trace, scale=TINY, **kwargs)

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record = self._run(name, trace)
                    self.assertEqual(record["failures"], [])
                    self.assertTrue(record["correct"])
                    self.assertGreaterEqual(record["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {k: v["unit"] for k, v in record["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in record["metrics"].values():
                        self.assertIsInstance(metric["value"], float)

    def test_corrupted_cover_is_counted_as_failed(self):
        record = self._run("stego-cif", False, after_setup=flip_first_ambiguous_index)
        self.assertFalse(record["correct"])
        self.assertGreaterEqual(record["failed"], 1)

    def test_wrong_digest_is_counted_as_failed(self):
        record = self._run("encode-cif", False, pins={"objects.mvpo": "0" * 64})
        self.assertFalse(record["correct"])
        self.assertEqual(record["failed"], 1)
        self.assertIn("objects.mvpo", record["failures"][0]["argv"])


if __name__ == "__main__":
    unittest.main()
