"""Grid experiments: encode, embed, analyze over (sequence, qp, method, parameter) cells.

A plan is a plain key=value text file.  Each cell aggregates every sequence
into the two table statistics: the mean optimality percentage and the
proportion of sequences still at exactly 100 percent.  Failures are recorded
per cell and the run continues.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

from . import codec, formats
from .analyzer import optimal_rate, stream_rates
from .codec import encode_sequence
from .core import RdParams
from .errors import InputError, MvpoError, check_geometry
from .formats import YuvSpec
from .stego import METHOD_TAGS, EmbedConfig, MethodTag, embed
from .stream import SequenceStream
from .synth import SynthPattern, SynthSpec, synthesize

def _parse_size(key: str, text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise InputError(f"bad {key} {text!r}, expected WxH") from exc


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"bad {key} value {text.strip()!r}, expected an integer") from exc


def _parse_geometry(kind: str, kv: dict[str, str], text: str) -> tuple[int, int, int]:
    """Pop a spec's size= and frames=; a bad value is refused by its key and the spec's text."""
    if "size" not in kv or "frames" not in kv:
        raise InputError(f"{kind} needs size= and frames=: {text!r}")
    width, height = _parse_size("size", kv.pop("size"))
    frames = _parse_int("frames", kv.pop("frames"))
    check_geometry(width, height, frames, "size", "frames", f": {text.strip()!r}")
    return width, height, frames


def _parse_kv(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad spec field {part!r}, expected key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in out:  # the last value would silently win
            raise InputError(f"spec field {key} given twice: {text!r}")
        out[key] = value.strip()
    return out


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse e.g. "pattern=shift,size=64x64,frames=31,seed=5,amp=1x0"."""
    kv = _parse_kv(text)
    try:
        pattern = SynthPattern(kv.pop("pattern"))
    except (KeyError, ValueError) as exc:
        raise InputError(f"synth spec needs pattern= one of "
                         f"{[p.value for p in SynthPattern]}: {text!r}") from exc
    width, height, frames = _parse_geometry("synth spec", kv, text)
    seed = _parse_int("seed", kv.pop("seed", "0"))
    ax, ay = _parse_size("amp", kv.pop("amp", "1x0"))
    if kv:
        raise InputError(f"unknown synth spec fields {sorted(kv)}")
    return SynthSpec(pattern, width, height, frames, seed=seed, amplitude=(ax, ay))


@dataclass(frozen=True)
class SequenceSource:
    """One input sequence, a synthetic spec or a raw YUV file, as `mvpo encode` and the experiment read it."""

    name: str
    synth: SynthSpec | None = None
    yuv_path: str | None = None
    yuv_spec: YuvSpec | None = None

    def encode(self, params: RdParams) -> SequenceStream:
        """The sequence coded with `params`; a yuv file is opened when the encode first reads it, read a plane
        at a time, and closed on every exit, a failed encode's too.
        """
        if self.synth is not None:
            return encode_sequence(synthesize(self.synth), params)[0]
        # the reader looked up on `formats`, where perfbench's tracer wraps it
        with contextlib.closing(formats.iter_yuv_lumas(self.yuv_path, self.yuv_spec)) as frames:
            return encode_sequence(frames, params)[0]


def parse_sequence_source(text: str) -> SequenceSource:
    """A synth spec as above, or "yuv=path,size=WxH,frames=N"."""
    kv = _parse_kv(text)
    if "yuv" in kv:
        path = kv.pop("yuv")
        if "\0" in path:  # no file can have it, and `open` would raise ValueError on it
            raise InputError(f"yuv path {path!r} holds a NUL byte")
        spec = YuvSpec(*_parse_geometry("yuv source", kv, text))
        if kv:
            raise InputError(f"unknown yuv source fields {sorted(kv)}")
        return SequenceSource(name=os.path.basename(path), yuv_path=path, yuv_spec=spec)
    spec = parse_synth_spec(text)
    name = f"{spec.pattern.value}-{spec.width}x{spec.height}x{spec.frame_count}-s{spec.seed}"
    return SequenceSource(name=name, synth=spec)


@dataclass
class ExperimentPlan:
    sequences: list[SequenceSource]
    qps: list[int]
    methods: list[str]
    grids: dict[str, list[float | int]]  # method tag -> its parameter's values
    pu_size: int = 16
    search_range: int = 8
    seed: int = 0
    out: str = "results.csv"

    def rd_params(self) -> dict[int, RdParams]:
        """The coding parameters of each qp; a value `RdParams` rejects is an input error."""
        try:
            return {qp: RdParams(qp, search_range=self.search_range, pu_size=self.pu_size) for qp in self.qps}
        except ValueError as exc:
            raise InputError(f"plan {exc}") from exc


def _grid_value(key: str, tag: MethodTag, text: str) -> float | int:
    """Convert one plan grid value and check its range, so a bad one fails before any encode."""
    try:
        value = tag.convert(text)
        EmbedConfig(tag.method, value)
    except ValueError as exc:
        raise InputError(f"plan {key} value {text.strip()!r}: {exc}") from exc
    return value


def _unique(key: str, values: list, show: Callable[[object], str] = repr) -> list:
    """`values`, checked for repeats: a repeated sequence or value would run its cells twice.

    Values equal after conversion (0.1 and 0.10, two spellings of one synth spec) repeat too.
    """
    for i, value in enumerate(values):
        if value in values[:i]:
            raise InputError(f"plan {key} lists {show(value)} twice")
    return values


def parse_plan(text: str) -> ExperimentPlan:
    """Parse the key=value plan format; see the README for the field list."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"plan line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:  # the last line would silently win
            raise InputError(f"plan line {lineno}: {key} given twice")
        fields[key] = value.strip()

    if "sequences" not in fields:
        raise InputError("plan needs a sequences= line")
    sequences = [parse_sequence_source(s) for s in fields.pop("sequences").split("|") if s.strip()]
    if not sequences:
        raise InputError("plan lists no sequences")
    _unique("sequences", sequences, lambda source: repr(source.name))

    def _list(key: str, default: Iterable, conv) -> list:
        if key not in fields:
            return list(default)
        values = [conv(v) for v in fields.pop(key).split(",") if v.strip()]
        if not values:
            raise InputError(f"plan {key} lists no values")
        return _unique(key, values)

    methods = _list("methods", ["cover"], lambda s: s.strip().lower())
    for m in methods:
        if m != "cover" and m not in METHOD_TAGS:
            raise InputError(f"unknown method {m!r}, expected cover/{'/'.join(METHOD_TAGS)}")
    grids = {}
    for name, tag in METHOD_TAGS.items():
        key = f"{name}_{tag.param.lower()}"
        grids[name] = _list(key, tag.grid, functools.partial(_grid_value, key, tag))
    seed = _parse_int("seed", fields.pop("seed", "0"))
    if seed < 0:  # checked here, like the grid values, so it fails before any encode
        raise InputError(f"plan seed {seed} must be >= 0")
    plan = ExperimentPlan(
        sequences=sequences,
        qps=_list("qp", [25], functools.partial(_parse_int, "qp")),
        methods=methods,
        grids=grids,
        pu_size=_parse_int("pu_size", fields.pop("pu_size", "16")),
        search_range=_parse_int("search_range", fields.pop("search_range", "8")),
        seed=seed,
        out=fields.pop("out", "results.csv"),
    )
    if fields:  # the known keys were popped; a leftover one, say a misspelt `qps`, would leave qp at its default
        raise InputError(f"unknown plan keys {sorted(fields)}")
    plan.rd_params()  # like the grid values, checked before any encode
    return plan


@dataclass(frozen=True)
class CellRow:
    method: str
    qp: int
    param: str
    value: str
    n_sequences: int
    n_errors: int
    mean_optimal_rate_pct: float | None
    prop_at_100_pct: float | None


def summarize(tallies: Iterable[tuple[int, int]]) -> tuple[float | None, float | None]:
    """The two table statistics over a cell's (n_pus, n_optimal) per sequence, in sequence order."""
    counted = [(n, k) for n, k in tallies if n]
    if not counted:
        return None, None
    # exact counts: a float percentage rounds to 100.0 with a violation left
    at_100 = sum(1 for n, k in counted if k == n)
    return sum(100.0 * k / n for n, k in counted) / len(counted), 100.0 * at_100 / len(counted)


def _cells(plan: ExperimentPlan) -> list[tuple[str, int, str, float | int | str]]:
    cells = []
    for method in plan.methods:
        for qp in plan.qps:
            if method == "cover":
                cells.append((method, qp, "", ""))
            else:
                cells.extend((method, qp, METHOD_TAGS[method].param, v) for v in plan.grids[method])
    return cells


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> tuple[list[CellRow], list[str]]:
    """Run the whole grid; returns the sorted cell rows and any per-item errors.

    Each cover is coded with `SequenceSource.encode`, as `mvpo encode` codes
    it; one that cannot be read or encoded is an error of its (sequence, qp),
    returned by its worker as a message, so no exception keeps its frames.
    Each cell scores its streams with `optimal_rate`, as `mvpo analyze` does;
    `n_errors` counts the sequences it could not score.  The tar2 cells of a
    cover share one walk of it.  A stream keeps its decode and rates: a cover
    is decoded and rated once for all its cells, a tar2 or tar3 stego inherits
    its cover's, and a tar1 stego is decoded once, by its embed's output check.
    Errors come encodes first, then by cell, then by sequence.  `jobs`, the
    threads that encode the covers, must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs {jobs} must be at least 1")
    params = plan.rd_params()
    pairs = [(si, source, qp) for si, source in enumerate(plan.sequences) for qp in plan.qps]

    def _encode(pair: tuple[int, SequenceSource, int]) -> tuple[SequenceStream | None, str | None]:
        _, source, qp = pair
        try:
            return source.encode(params[qp]), None
        except (MvpoError, OSError) as exc:
            return None, f"encode {source.name} qp={qp}: {exc}"

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        encoded = list(pool.map(_encode, pairs))
    errors = [message for _, message in encoded if message is not None]

    cells = _cells(plan)
    tallies: list[list[tuple[int, int]]] = [[] for _ in cells]  # per cell, in sequence order
    cell_errors: list[tuple[int, int, str]] = []  # (cell, sequence, message)
    for (si, source, qp), (cover, _) in zip(pairs, encoded):
        if cover is None:
            continue
        walk = None
        for ci, (method, cell_qp, param, value) in enumerate(cells):
            if cell_qp != qp:
                continue
            cfg = None if method == "cover" else EmbedConfig(METHOD_TAGS[method].method, value, plan.seed)
            try:
                stream = cover
                if cfg is not None:
                    if walk is None and method == "tar2":  # the one embedder that walks its input
                        walk = list(codec.decode_walk(cover))
                        stream_rates(cover)  # kept on the cover, for its tar2 stegos to inherit
                    stream = embed(cover, cfg, walk)[0]
                report = optimal_rate(stream)
                tallies[ci].append((report.n_pus, report.n_optimal))
            except MvpoError as exc:
                cell_errors.append((ci, si, f"{method} {param}={value} qp={qp} {source.name}: {exc}"))
    errors.extend(message for _, _, message in sorted(cell_errors))

    rows = []
    for (method, qp, param, value), cell_tallies in sorted(zip(cells, tallies), key=lambda c: c[0]):
        mean_pct, prop_100 = summarize(cell_tallies)
        n_errors = len(plan.sequences) - len(cell_tallies)
        rows.append(CellRow(method, qp, param, str(value), len(cell_tallies), n_errors, mean_pct, prop_100))
    return rows, errors


def rows_to_csv(rows: list[CellRow]) -> str:
    def fmt(x: float | None) -> str:
        return "" if x is None else f"{x:.4f}"

    lines = ["method,qp,param,value,n_sequences,n_errors,mean_optimal_rate_pct,prop_at_100_pct"]
    for r in rows:
        lines.append(
            f"{r.method},{r.qp},{r.param},{r.value},{r.n_sequences},{r.n_errors},"
            f"{fmt(r.mean_optimal_rate_pct)},{fmt(r.prop_at_100_pct)}"
        )
    return "\n".join(lines) + "\n"
