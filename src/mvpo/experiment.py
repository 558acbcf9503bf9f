"""Grid experiments: encode, embed, analyze over (sequence, qp, method, parameter) cells.

A plan is a plain key=value text file.  Each cell aggregates every sequence
into the two table statistics: the mean optimality percentage and the
proportion of sequences still at exactly 100 percent.  Failures are recorded
per cell and the run continues.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

from .analyzer import iter_pu_checks, optimal_rate, rechecked
from .codec import encode_sequence
from .core import RdParams
from .errors import InputError, MvpoError
from .formats import YuvSpec, read_yuv
from .stego import METHOD_TAGS, EmbedConfig, MethodTag, embed
from .stream import Plane, SequenceStream
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
    if "size" not in kv or "frames" not in kv:
        raise InputError(f"synth spec needs size= and frames=: {text!r}")
    width, height = _parse_size("size", kv.pop("size"))
    frames = _parse_int("frames", kv.pop("frames"))
    seed = _parse_int("seed", kv.pop("seed", "0"))
    ax, ay = _parse_size("amp", kv.pop("amp", "1x0"))
    if kv:
        raise InputError(f"unknown synth spec fields {sorted(kv)}")
    return SynthSpec(pattern, width, height, frames, seed=seed, amplitude=(ax, ay))


@dataclass(frozen=True)
class SequenceSource:
    """One input sequence: either a synthetic spec or a raw YUV file."""

    name: str
    synth: SynthSpec | None = None
    yuv_path: str | None = None
    yuv_spec: YuvSpec | None = None

    def load(self) -> list[Plane]:
        if self.synth is not None:
            return synthesize(self.synth)
        return read_yuv(self.yuv_path, self.yuv_spec)


def parse_sequence_source(text: str) -> SequenceSource:
    """A synth spec as above, or "yuv=path,size=WxH,frames=N"."""
    kv = _parse_kv(text)
    if "yuv" in kv:
        path = kv.pop("yuv")
        if "size" not in kv or "frames" not in kv:
            raise InputError(f"yuv source needs size= and frames=: {text!r}")
        width, height = _parse_size("size", kv.pop("size"))
        spec = YuvSpec(width, height, _parse_int("frames", kv.pop("frames")))
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

    The covers are encoded first.  Then each cover's cells run against one
    held decode of it, `list(iter_pu_checks(cover))`, built when the first
    cover, tar2 or tar3 cell reads it and dropped before the next cover.  Once
    it is held, each stego is analyzed from it by `rechecked`, which re-rates
    only the records that differ from the cover's: tar2 and tar3 stegos are
    never decoded, and a tar1 stego is decoded by its analysis only when it
    moves a vector.  Errors come encodes first, then by cell, then by sequence.
    `jobs`, the threads that encode the covers, must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs {jobs} must be at least 1")
    params = plan.rd_params()
    errors: list[str] = []

    def _encode(source: SequenceSource, qp: int) -> SequenceStream:
        return encode_sequence(source.load(), params[qp])[0]

    covers: dict[tuple[int, int], SequenceStream | None] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {
            (si, qp): pool.submit(_encode, source, qp)
            for si, source in enumerate(plan.sequences)
            for qp in plan.qps
        }
        for (si, qp), future in futures.items():
            try:
                covers[(si, qp)] = future.result()
            except MvpoError as exc:
                covers[(si, qp)] = None
                errors.append(f"encode {plan.sequences[si].name} qp={qp}: {exc}")

    cells = _cells(plan)
    tallies: list[list[tuple[int, int]]] = [[] for _ in cells]  # per cell, in sequence order
    n_errors = [0] * len(cells)
    cell_errors: list[tuple[int, int, str]] = []  # (cell, sequence, message)
    for (si, qp), cover in covers.items():
        checks = None
        for ci, (method, cell_qp, param, value) in enumerate(cells):
            if cell_qp != qp:
                continue
            if cover is None:
                n_errors[ci] += 1
                continue
            cfg = None if method == "cover" else EmbedConfig(METHOD_TAGS[method].method, value, plan.seed)
            try:
                # tar1 decodes its own output, so only it leaves the held decode unread
                if checks is None and method != "tar1":
                    checks = list(iter_pu_checks(cover))
                if cfg is None:
                    report = optimal_rate(cover, checks)
                else:
                    stego = embed(cover, cfg, checks)[0]
                    # an index flip moves no vector, so a tar2 or tar3 stego is the held decode re-rated
                    # where it differs; a tar1 stego that moves a vector is decoded by its analysis
                    report = optimal_rate(stego, None if checks is None else rechecked(stego, cover, checks))
                tallies[ci].append((report.n_pus, report.n_optimal))
            except MvpoError as exc:
                n_errors[ci] += 1
                cell_errors.append((ci, si, f"{method} {param}={value} qp={qp} {plan.sequences[si].name}: {exc}"))
    errors.extend(message for _, _, message in sorted(cell_errors))

    rows = []
    for (method, qp, param, value), cell_tallies, n_err in zip(cells, tallies, n_errors):
        mean_pct, prop_100 = summarize(cell_tallies)
        rows.append(CellRow(method, qp, param, str(value), len(cell_tallies), n_err, mean_pct, prop_100))
    rows.sort(key=lambda r: (r.method, r.qp, r.param, _numeric(r.value)))
    return rows, errors


def _numeric(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        return -1.0


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
