#!/usr/bin/env python3
"""The mvpo benchmark: one workload per run, driven through `mvpo.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload encode-cif --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn.

Workloads (BENCHMARK.json gives the reason for each, perfbench/spec.json
the layers each stresses and which metric each layer should move):

* ``encode-cif``  ``mvpo encode --yuv`` of a CIF `objects` and a CIF `noise`
  sequence, 31 frames each;
* ``stego-cif``   tar1/tar2/tar3 embeds into one CIF `objects` cover and a
  JSON analysis of the cover and of each stego stream;
* ``grid-64``     ``mvpo experiment --jobs 2`` on the 48-cell 64x64 plan.

Every operation is an in-process ``mvpo.cli.main(argv)`` call with its output
captured: one process, one caller, a closed loop.  The inputs are generated
from ``--seed``.  A run sets the workload up several times (interpreter start
plus ``import mvpo.cli`` in a child process, then the inputs), then repeats
passes of the workload's operations for ``--seconds`` seconds.  After each
pass, outside the timed region, the outputs are checked; a nonzero exit code
or a failed check counts the operation as failed.  At the default seed the
generated streams and the experiment CSV must also match the sha256 digests
pinned in spec.json.

With ``--trace 0`` the last line of stdout is the end-to-end result:
``pass_s`` (median seconds of one pass of timed operations), ``setup_s``
(median seconds of one set-up) and ``peak_rss_mb``.  Both times are wall times
rescaled to a reference machine speed by `SpeedProbe`; the raw medians are
printed too.  The lines before the result give the environment, the
throughput of each kind of operation and the share of failed operations.  With ``--trace 1`` every second pass runs under
`tracer.Tracer` and the last line carries the per-layer metrics, including
the tracing overhead (traced minus untraced pass time).  A full record goes
to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((HERE / "spec.json").read_text())

QP, PU_SIZE, SEARCH_RANGE = 25, 16, 8
TAR1_E, TAR2_T, TAR3_BPAP = "0.3", "5", "0.3"
GRID_JOBS = 2
GRID_CELLS = 48


@dataclass(frozen=True)
class Scale:
    """Input sizes and set-up repeats; `FULL` is the benchmark, the self-test shrinks it."""

    cif: tuple[int, int] = (352, 288)
    frames: int = 31
    grid: tuple[int, int] = (64, 64)
    grid_frames: int = 31
    setup_reps: int = 3

    @property
    def cif_pus(self) -> int:
        w, h = self.cif
        return (self.frames - 1) * (w // PU_SIZE) * (h // PU_SIZE)


FULL = Scale()


def load_mvpo():
    """Import mvpo from this checkout's sources, never from an installed copy."""
    if not (SRC / "mvpo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mvpo sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mvpo = importlib.import_module("mvpo")
    importlib.import_module("mvpo.cli")
    if Path(mvpo.__file__).resolve().parent != SRC / "mvpo":
        raise SystemExit(f"perfbench: imported mvpo from {mvpo.__file__}, not from {SRC}")
    return mvpo


def start_cli_process() -> None:
    """Interpreter start plus `import mvpo.cli`, in a child process."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", "import mvpo.cli"],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # e.g. an exported tree that is not a git checkout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


PROBE_REF_S = 0.005  # reference CPU time of one speed-probe kernel
PROBE_PAD_S = 0.5  # probe samples this close to a measurement are used to rescale it


class SpeedProbe:
    """Rescales wall times to a reference machine speed, with `speedprobe.py` running alongside.

    The machines this runs on are shared: their speed drifts by a fifth or
    more, in bursts of a second to tens of seconds, so raw wall times of the
    same code differ by that much from run to run.  A child process samples
    a fixed kernel every 50 ms for the whole run.  A measurement from `start`
    to `end` is multiplied by PROBE_REF_S over the median kernel CPU time
    sampled from PROBE_PAD_S before it to PROBE_PAD_S after it.  On a shared
    2-vCPU Xeon, 30-second medians of analyze, embed and encode calls spread
    by 39-52% raw and by 4-7% rescaled, and single 5 s CIF encodes by 27% raw
    and 8% rescaled.
    """

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speedprobe.py"), str(path)])
        self.t = self.cpu = None

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        rows = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # the last line may be cut by the termination
                    rows.append((float(fields[0]), float(fields[1])))
        if not rows:
            raise RuntimeError(f"speed probe wrote no samples (exit code {self.proc.returncode})")
        self.t, self.cpu = np.array(rows).T

    def scale(self, start: float, end: float) -> float:
        """The `end - start` wall seconds, rescaled to the reference speed."""
        near = np.flatnonzero((self.t >= start - PROBE_PAD_S) & (self.t <= end + PROBE_PAD_S))
        if len(near) < 3:
            near = np.argsort(np.abs(self.t - (start + end) / 2))[:3]
        return (end - start) * PROBE_REF_S / float(np.median(self.cpu[near]))


@dataclass
class Op:
    """One `mvpo` command line; `metric` names the throughput it feeds.

    `start` and `end` bracket the call; `seconds` is its wall time rescaled by the `SpeedProbe`.
    """

    argv: list[str]
    metric: str
    tag: str
    pus: int = 0
    timed: bool = True
    traced: bool = False
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0
    rc: int | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


class Runner:
    """Calls the CLI in-process, times each call and keeps every operation's outcome."""

    def __init__(self, mvpo, tracer: Tracer | None = None, pins: dict | None = None):
        self.mvpo = mvpo
        self.tracer = tracer
        self.pins = pins or {}
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}

    def call(self, op: Op, traced: bool = False) -> Op:
        self.ops.append(op)
        op.traced = traced
        out, err = io.StringIO(), io.StringIO()
        tr = self.tracer if traced else None
        op.start = time.perf_counter()
        if tr:
            tr.op = len(self.ops) - 1
            row = tr.begin(tr.name_id("cli." + op.command), tr.tag_id(op.tag))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op.rc = self.mvpo.cli.main(op.argv)
        except SystemExit as exc:
            op.rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails this operation, not the benchmark
            op.rc = -1
            err.write(repr(exc))
        finally:
            if tr:
                tr.end(row, op.pus)
                tr.op = -1
            op.end = time.perf_counter()
        if op.rc != 0:
            op.errors.append(f"exit code {op.rc}: {err.getvalue().strip()[-400:]}")
        return op

    def pin(self, op: Op, path: str) -> None:
        """Record the output's digest; a digest pinned for it must match."""
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.digests[path] = digest
        pinned = self.pins.get(path)
        if pinned is not None and pinned != digest:
            op.errors.append(f"{path}: sha256 {digest} differs from the pinned {pinned}")


def write_yuv(path: str, planes) -> None:
    """Write luma planes as 4:2:0 frames with flat chroma."""
    with open(path, "wb") as f:
        for plane in planes:
            f.write(plane.data.tobytes())
            f.write(np.full(plane.data.size // 2, 128, np.uint8).tobytes())


class Workload:
    """Inputs made by `setup`, the CLI operations of one pass, and the checks of their outputs.

    Every method runs inside the run's work directory under .bench_work, so paths are relative.
    """

    name = ""

    def __init__(self, mvpo, runner: Runner, scale: Scale, seed: int):
        self.mvpo = mvpo
        self.runner = runner
        self.scale = scale
        self.seed = seed

    def setup(self) -> None:
        """Make the inputs; timed as part of setup_s."""

    def check_setup(self) -> None:
        """Check what setup produced, untimed."""

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        raise NotImplementedError

    def check_cover(self, op: Op, path: str) -> None:
        """The stream decodes, analyzes as cover, and every PU of the grid is optimal."""
        mvpo = self.mvpo
        try:
            report = mvpo.optimal_rate(mvpo.load_stream(path))
        except mvpo.MvpoError as exc:
            op.errors.append(f"{path}: {exc}")
            return
        expected = self.scale.cif_pus
        if report.verdict is not mvpo.Verdict.COVER or not report.n_optimal == report.n_pus == expected:
            op.errors.append(
                f"{path}: {report.verdict.value} with {report.n_optimal}/{report.n_pus} optimal, "
                f"expected cover with {expected}/{expected}"
            )

    def cif_yuv(self, content: str) -> None:
        mvpo = self.mvpo
        w, h = self.scale.cif
        if content == "objects":
            spec = mvpo.SynthSpec(mvpo.SynthPattern.MULTI_OBJECT, w, h, self.scale.frames, seed=self.seed, amplitude=(2, 2))
        else:
            spec = mvpo.SynthSpec(mvpo.SynthPattern.NOISE_TEXTURE, w, h, self.scale.frames, seed=self.seed)
        write_yuv(content + ".yuv", mvpo.synthesize(spec))

    def encode_op(self, content: str, out: str, metric: str, timed: bool = True) -> Op:
        w, h = self.scale.cif
        argv = ["encode", "--yuv", content + ".yuv", "--size", f"{w}x{h}", "--qp", str(QP),
                "--pu-size", str(PU_SIZE), "--search-range", str(SEARCH_RANGE), "--out", out]
        return Op(argv, metric, content, self.scale.cif_pus, timed)


class EncodeCif(Workload):
    name = "encode-cif"
    contents = ("objects", "noise")

    def setup(self) -> None:
        for content in self.contents:
            self.cif_yuv(content)

    def pass_ops(self) -> list[Op]:
        return [self.encode_op(c, c + ".mvpo", f"encode_{c}_pu_per_s") for c in self.contents]

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.rc == 0:
                self.check_cover(op, op.argv[-1])
                self.runner.pin(op, op.argv[-1])


class StegoCif(Workload):
    name = "stego-cif"
    embeds = {"tar1": ["--e", TAR1_E], "tar2": ["--T", TAR2_T], "tar3": ["--bpap", TAR3_BPAP]}

    def setup(self) -> None:
        self.cif_yuv("objects")
        self.cover_op = self.runner.call(self.encode_op("objects", "cover.mvpo", "", timed=False))

    def check_setup(self) -> None:
        op = self.cover_op
        self.reference = None
        if op.rc == 0:
            self.check_cover(op, "cover.mvpo")
            self.runner.pin(op, "cover.mvpo")
            self.reference = self.mvpo.reconstruct_mvs(self.mvpo.load_stream("cover.mvpo"))

    def embed_op(self, method: str, params: list[str], out: str, timed: bool = True) -> Op:
        argv = ["embed", "--in", "cover.mvpo", "--method", method, *params, "--seed", str(self.seed), "--out", out]
        return Op(argv, f"embed_{method}_pu_per_s", method, self.scale.cif_pus, timed)

    def pass_ops(self) -> list[Op]:
        ops = [self.embed_op(m, p, m + ".mvpo") for m, p in self.embeds.items()]
        for stream in ("cover", *self.embeds):
            argv = ["analyze", "--in", stream + ".mvpo", "--format", "json", "--out", stream + ".json"]
            ops.append(Op(argv, "analyze_pu_per_s", "analyze", self.scale.cif_pus))
        # the T=0 embed only touches identical candidate pairs, so it must stay invisible
        ops.append(self.embed_op("tar2", ["--T", "0"], "tar2-t0.mvpo", timed=False))
        return ops

    def check(self, ops: list[Op]) -> None:
        mvpo = self.mvpo
        by_out = {op.argv[-1]: op for op in ops if op.rc == 0}
        n = self.scale.cif_pus
        for stream in ("cover", *self.embeds):
            op = by_out.get(stream + ".json")
            if op is None:
                continue
            doc = json.loads(Path(op.argv[-1]).read_text())
            # tar3 is not required to be caught: at bpap 0.3 on objects every PU stays optimal
            want = {"cover": "cover", "tar1": "stego"}.get(stream, doc["verdict"])
            if doc["verdict"] != want or doc["n_pus"] != n or (stream == "cover" and doc["n_optimal"] != n):
                op.errors.append(f"{stream}: {doc['verdict']} {doc['n_optimal']}/{doc['n_pus']}, expected {want} over {n} PUs")
        for out in ("tar1.mvpo", "tar2.mvpo", "tar3.mvpo", "tar2-t0.mvpo"):
            op = by_out.get(out)
            if op is None:
                continue
            self.runner.pin(op, out)
            if out == "tar1.mvpo":
                continue
            try:
                stream = mvpo.load_stream(out)
                field = mvpo.reconstruct_mvs(stream)
            except mvpo.MvpoError as exc:
                op.errors.append(f"{out}: {exc}")
                continue
            if field != self.reference:
                op.errors.append(f"{out}: reconstructed motion field differs from the cover's")
            if out == "tar2-t0.mvpo" and mvpo.optimal_rate(stream).verdict is not mvpo.Verdict.COVER:
                op.errors.append(f"{out}: tar2 at T=0 is not invisible")
            if out == "tar3.mvpo":
                bits = json.loads(Path(out + ".report.json").read_text())["bits_embedded"]
                want = math.ceil(Fraction(TAR3_BPAP) * n)
                if bits != want:
                    op.errors.append(f"{out}: {bits} bits embedded, expected {want}")


class Grid64(Workload):
    name = "grid-64"

    def setup(self) -> None:
        w, h = self.scale.grid
        base = f"size={w}x{h},frames={self.scale.grid_frames}"
        s = self.seed
        sequences = [
            f"pattern=shift,{base},seed={s},amp=1x0",
            f"pattern=objects,{base},seed={s + 1},amp=2x2",
            f"pattern=noise,{base},seed={s + 2}",
            f"pattern=objects,{base},seed={s + 3},amp=1x1",
        ]
        Path("plan.txt").write_text(
            f"sequences = {' | '.join(sequences)}\n"
            "qp = 20, 25, 30\n"
            "methods = cover, tar1, tar2, tar3\n"
            f"pu_size = {PU_SIZE}\nsearch_range = {SEARCH_RANGE}\nseed = {s}\nout = results.csv\n"
        )

    def pass_ops(self) -> list[Op]:
        argv = ["experiment", "--plan", "plan.txt", "--jobs", str(GRID_JOBS), "--out", "results.csv"]
        return [Op(argv, "experiment_s", "experiment")]

    def check(self, ops: list[Op]) -> None:
        (op,) = ops
        if op.rc != 0:
            return
        with open("results.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        bad = [r for r in rows if r["n_errors"] != "0" or r["n_sequences"] != "4"]
        bad += [r for r in rows if r["method"] == "cover" and r["prop_at_100_pct"] != "100.0000"]
        if len(rows) != GRID_CELLS or bad:
            op.errors.append(f"results.csv: {len(rows)} rows, {len(bad)} with errors or a cover below 100%")
        self.runner.pin(op, "results.csv")


WORKLOADS = {w.name: w for w in (EncodeCif, StegoCif, Grid64)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL,
                 pins: dict | None = None, after_setup=None, out_dir: Path | None = None) -> dict:
    """Set up, run passes for `seconds`, check, and return the full record of the run.

    `after_setup(workload)` runs once the inputs exist (the self-test corrupts
    them there); with `out_dir` the record and the spans are written there.
    """
    mvpo = load_mvpo()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(mvpo) if trace else None
    runner = Runner(mvpo, tracer, pins)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    probe = SpeedProbe(work / "speed.txt")
    try:
        wl = WORKLOADS[name](mvpo, runner, scale, seed)
        setup = []  # (start, end) of each set-up
        for _ in range(scale.setup_reps):
            t0 = time.perf_counter()
            start_cli_process()
            wl.setup()
            setup.append((t0, time.perf_counter()))
        wl.check_setup()
        if after_setup is not None:
            after_setup(wl)

        passes: list[tuple[bool, list[Op]]] = []  # (traced, timed operations)
        t_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            ops = wl.pass_ops()
            timed = [op for op in ops if op.timed]
            if traced:
                tracer.install()
            try:
                for op in timed:
                    runner.call(op, traced)
            finally:
                if traced:
                    tracer.uninstall()
            for op in ops:
                if not op.timed:
                    runner.call(op)
            passes.append((traced, timed))
            wl.check(ops)
            if time.perf_counter() - t_start >= seconds and len(passes) >= (2 if trace else 1):
                break
    finally:
        probe.stop()
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    for op in runner.ops:
        op.seconds = probe.scale(op.start, op.end)
    setup_s = [probe.scale(*span) for span in setup]
    pass_s = [(traced, sum(op.seconds for op in ops), sum(op.end - op.start for op in ops)) for traced, ops in passes]
    untraced = [s for t, s, _ in pass_s if not t]
    traced_s = [s for t, s, _ in pass_s if t]
    if trace:
        spans = tracer.table()
        raw = layer_metrics(tracer, spans, len(traced_s))
        raw["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
        wanted = bench["per_layer"]
    else:
        raw = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": statistics.median(untraced),
        }
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw.get(m["name"])
        if value is None:
            if name in SPEC["metrics"].get(m["name"], {}).get("exercised_on", []):
                continue  # expected on this workload but no longer called: absent, not zero
            value = 0.0  # the workload does not exercise this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    kinds: dict[str, list[Op]] = {}
    for op in runner.ops:
        if op.timed and not op.traced:
            kinds.setdefault(op.metric, []).append(op)
    op_metrics = {}
    for metric, ops in kinds.items():
        if metric == "experiment_s":
            op_metrics[metric] = statistics.median(op.seconds for op in ops)
        else:
            op_metrics[metric] = sum(op.pus for op in ops) / sum(op.seconds for op in ops)
    failed = [op for op in runner.ops if op.errors]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "failed_op_ratio": len(failed) / len(runner.ops),
        "metrics": metrics,
        "op_metrics": op_metrics,
        "pass_wall_s": statistics.median(w for t, _, w in pass_s if not t),
        "setup_wall_s": statistics.median(end - start for start, end in setup),
        "passes": [{"traced": t, "seconds": s, "wall": w} for t, s, w in pass_s],
        "failures": [{"argv": op.argv, "errors": op.errors} for op in failed],
        "digests": runner.digests,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if tracer is not None:
            tracer.save(out_dir / f"{stem}.spans.npz", spans)
    return record


def report(record: dict) -> None:
    """Print a run's record; the last line is the result the benchmark contract asks for."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, value in sorted(record["op_metrics"].items()):
        print(f"# {name} = {value:.6g} {SPEC['op_metrics'][name]['unit']}")
    print(f"# pass_wall_s = {record['pass_wall_s']:.6g} s, setup_wall_s = {record['setup_wall_s']:.6g} s (not rescaled)")
    print(f"# failed_op_ratio = {record['failed_op_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"# FAILED {' '.join(failure['argv'])}: {'; '.join(failure['errors'])}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    correct = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        pins = SPEC["pins"][name] if args.seed == SPEC["default_seed"] else {}
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), pins=pins, out_dir=WORK / "results")
        report(record)
        correct &= record["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
