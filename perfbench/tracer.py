"""Span tracing for the mvpo benchmark, installed from outside the package.

`Tracer.install()` replaces public functions at the module attributes where
the program looks them up (``mvpo.codec.motion_estimate``,
``mvpo.analyzer.decode_walk``, ...) with wrappers that record one span per
call, or per ``next()`` for generators.  `Tracer.uninstall()` puts the
originals back, so untraced passes run the unmodified program.

A span is (start, end, name, parent, op, tag, n): `parent` is the row of the
enclosing span on the same thread, `op` the benchmark operation it belongs
to, `tag` a label inherited from the parent unless the wrapper sets one (the
synthetic content, the embed method, ``analyze``), and `n` the work units the
call handled (PUs, records, frames).  Spans stay in per-thread arrays until
`table()` joins them at the end, for `save()` and `layer_metrics()`.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

START, END, NAME, PARENT, OP, TAG, N = range(7)
WIDTH = 7

# (modules looked up in, attribute, span name, kind); a name missing from a
# module is skipped, so its metrics come out absent rather than zero
TARGETS = [
    (("cli", "experiment"), "encode_sequence", "codec.encode_sequence", "call"),
    (("cli", "experiment"), "embed", "stego.embed", "call"),
    (("cli", "experiment"), "optimal_rate", "analyzer.optimal_rate", "call"),
    (("cli", "experiment"), "synthesize", "synth.synthesize", "call"),
    (("cli",), "report_to_json", "formats.report_to_json", "call"),
    (("cli",), "run_experiment", "experiment.run_experiment", "call"),
    (("formats",), "read_stream", "formats.read_stream", "call"),
    (("formats",), "write_stream", "formats.write_stream", "call"),
    (("formats",), "iter_yuv_lumas", "formats.iter_yuv_lumas", "gen"),
    (("codec",), "derive_candidates", "codec.derive_candidates", "call"),
    (("codec",), "motion_estimate", "codec.motion_estimate", "call"),
    (("codec",), "select_mvp", "codec.select_mvp", "call"),
    (("codec", "analyzer", "stego"), "decode_walk", "codec.decode_walk", "gen"),
    (("analyzer", "stego"), "rate_of", "core.rate_of", "count"),
]

METHOD_TAGS = {"mvd-parity": "tar1", "index-threshold": "tar2", "index-adaptive": "tar3"}


@dataclass
class _ThreadState:
    buf: array = field(default_factory=lambda: array("d"))
    stack: list = field(default_factory=list)  # (row, tag) of open spans
    counts: dict = field(default_factory=dict)  # (name id, tag id) -> count
    default_tag: int = 0


class Tracer:
    def __init__(self, package):
        self.names: dict[str, int] = {}
        self.tags: dict[str, int] = {"": 0}
        self.op = -1
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()  # guards _states registration only
        self._patches = []  # (module, attribute, original, wrapper)
        for modules, attr, name, kind in TARGETS:
            for mod_name in modules:
                module = getattr(package, mod_name)
                original = getattr(module, attr, None)
                if original is not None:
                    self._patches.append((module, attr, original, self._wrap(original, name, kind)))

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def tag_id(self, tag: str) -> int:
        return self.tags.setdefault(tag, len(self.tags))

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def set_default_tag(self, tag: str) -> None:
        self._state().default_tag = self.tag_id(tag)

    def begin(self, name: int, tag: int = -1) -> int:
        st = self._state()
        parent, parent_tag = st.stack[-1] if st.stack else (-1, st.default_tag)
        if tag < 0:
            tag = parent_tag
        row = len(st.buf) // WIDTH
        st.stack.append((row, tag))
        st.buf.extend((time.perf_counter(), 0.0, name, parent, self.op, tag, 0.0))
        return row

    def end(self, row: int, n: int = 0) -> None:
        t = time.perf_counter()
        st = self._local.st
        st.stack.pop()
        st.buf[row * WIDTH + END] = t
        st.buf[row * WIDTH + N] = n

    def count(self, name: int, amount: int = 1, tag: int = -1) -> None:
        st = self._state()
        if tag < 0:
            tag = st.stack[-1][1] if st.stack else st.default_tag
        key = (name, tag)
        st.counts[key] = st.counts.get(key, 0) + amount

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        nid = self.name_id(name)
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(nid)
                return fn(*args, **kwargs)

            return counted

        if kind == "gen":

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    row = self.begin(nid)
                    n = 0
                    try:
                        item = next(it)
                        n = 1
                    except StopIteration:
                        return
                    finally:
                        self.end(row, n)
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            row = self.begin(nid, self._tag(name, args))
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = self._units(name, args, result)
                return result
            finally:
                self.end(row, n)

        return call

    def _tag(self, name: str, args) -> int:
        if name == "stego.embed":
            return self.tag_id(METHOD_TAGS[args[1].method.value])
        if name == "analyzer.optimal_rate":
            return self.tag_id("analyze")
        if name == "synth.synthesize":
            # experiment threads synthesize then encode; the encode inherits the content
            self.set_default_tag(args[0].pattern.value)
            return self._state().default_tag
        return -1

    def _units(self, name: str, args, result) -> int:
        if name == "codec.encode_sequence":
            return result[0].n_records
        if name == "stego.embed":
            report = result[1]
            tag = self._state().stack[-1][1]
            self.count(self.name_id("stego.bits"), report.bits_embedded, tag)
            self.count(self.name_id("stego.modified"), report.pus_modified, tag)
            return report.pus_visited
        if name == "analyzer.optimal_rate":
            return result.n_pus
        if name == "formats.read_stream":
            return result.n_records
        if name == "formats.write_stream":
            return args[0].n_records
        return 1

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- output ----------------------------------------------------------

    def table(self) -> np.ndarray:
        """All spans as one (n, 7) array, parents re-indexed across threads."""
        parts, offset = [], 0
        for st in self._states:
            t = np.frombuffer(st.buf, dtype=np.float64).reshape(-1, WIDTH).copy()
            t[t[:, PARENT] >= 0, PARENT] += offset
            parts.append(t)
            offset += len(t)
        return np.concatenate(parts) if parts else np.zeros((0, WIDTH))

    def counts(self) -> dict[tuple[str, str], int]:
        names = {v: k for k, v in self.names.items()}
        tags = {v: k for k, v in self.tags.items()}
        out: dict[tuple[str, str], int] = {}
        for st in self._states:
            for (nid, tid), c in st.counts.items():
                key = (names[nid], tags[tid])
                out[key] = out.get(key, 0) + c
        return out

    def save(self, path, spans: np.ndarray) -> None:
        np.savez_compressed(
            path,
            spans=spans,
            columns=np.array(["start", "end", "name", "parent", "op", "tag", "n"]),
            names=np.array(sorted(self.names, key=self.names.get)),
            tags=np.array(sorted(self.tags, key=self.tags.get)),
        )


def layer_metrics(tracer: Tracer, t: np.ndarray, traced_passes: int) -> dict[str, float | None]:
    """Reduce the span table `t` to the per-layer metrics; None where nothing was measured."""
    dur = t[:, END] - t[:, START]
    n = t[:, N]
    parent = t[:, PARENT].astype(np.int64)
    child = np.zeros(len(t))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    name = t[:, NAME].astype(np.int64)
    tag = t[:, TAG].astype(np.int64)
    counts = tracer.counts()

    def sel(span: str, label: str | None = None) -> np.ndarray:
        mask = name == tracer.names.get(span, -1)
        if label is not None:
            mask &= tag == tracer.tags.get(label, -1)
        return mask

    def ratio(num: float, den: float, scale: float = 1.0) -> float | None:
        return None if den == 0 else scale * num / den

    def count_ratio(count: float, den: float) -> float | None:
        # a layer that is no longer called reads as absent, not as zero
        return ratio(count, den) if count else None

    def mean(span: str, values: np.ndarray = dur, scale: float = 1e6, label: str | None = None) -> float | None:
        m = sel(span, label)
        return ratio(values[m].sum(), m.sum(), scale)

    def per_unit_us(span: str, values: np.ndarray, label: str | None = None) -> float | None:
        m = sel(span, label)
        return ratio(values[m].sum(), n[m].sum(), 1e6)

    enc = sel("codec.encode_sequence")
    top = enc | sel("stego.embed") | sel("analyzer.optimal_rate")
    out: dict[str, float | None] = {
        "codec.motion_estimate.us_per_call.objects": mean("codec.motion_estimate", label="objects"),
        "codec.motion_estimate.us_per_call.noise": mean("codec.motion_estimate", label="noise"),
        "codec.motion_estimate.share": ratio(dur[sel("codec.motion_estimate")].sum(), dur[enc].sum()),
        "codec.derive_candidates.us_per_call": mean("codec.derive_candidates"),
        "codec.select_mvp.us_per_call": mean("codec.select_mvp"),
        "codec.encode_sequence.self_us_per_pu": per_unit_us("codec.encode_sequence", self_time),
        "formats.iter_yuv_lumas.us_per_frame": per_unit_us("formats.iter_yuv_lumas", dur),
        "formats.read_stream.us_per_record": per_unit_us("formats.read_stream", dur),
        "formats.write_stream.us_per_record": per_unit_us("formats.write_stream", dur),
        "codec.decode_walk.us_per_pu": per_unit_us("codec.decode_walk", dur),
        "analyzer.optimal_rate.self_us_per_pu": per_unit_us("analyzer.optimal_rate", self_time),
        "formats.report_to_json.ms": mean("formats.report_to_json", scale=1e3),
        "codec.derive_candidates.calls_per_pu": count_ratio(sel("codec.derive_candidates").sum(), n[top].sum()),
    }
    for label in ("analyze", "tar2", "tar3"):
        m = sel("stego.embed", label) | sel("analyzer.optimal_rate", label)
        out[f"core.rate_of.calls_per_pu.{label}"] = count_ratio(counts.get(("core.rate_of", label), 0), n[m].sum())
    for label in ("tar1", "tar2", "tar3"):
        out[f"stego.{label}.self_us_per_pu"] = per_unit_us("stego.embed", self_time, label)
    bits = {label: counts.get(("stego.bits", label), 0) for label in ("tar1", "tar2", "tar3")}
    modified = {label: counts.get(("stego.modified", label), 0) for label in ("tar1", "tar3")}
    out["stego.tar1.modified_per_bit"] = ratio(modified["tar1"], bits["tar1"])
    out["stego.tar2.bits_per_pu"] = ratio(bits["tar2"], n[sel("stego.embed", "tar2")].sum())
    out["stego.tar3.modified_per_bit"] = ratio(modified["tar3"], bits["tar3"])

    # experiment phases: encoding ends when the last encode of that run ends
    op = t[:, OP]
    encode_phase, cells_phase, busy = 0.0, 0.0, 0.0
    runs = np.flatnonzero(sel("experiment.run_experiment"))
    for r in runs:
        encs = enc & (op == op[r])
        if not encs.any():
            continue
        last = t[encs, END].max()
        encode_phase += last - t[r, START]
        cells_phase += t[r, END] - last
        busy += dur[encs].sum()
    out["experiment.encode_phase_s"] = ratio(encode_phase, len(runs)) if encode_phase else None
    out["experiment.cells_phase_s"] = ratio(cells_phase, len(runs)) if encode_phase else None
    out["experiment.encode_parallelism"] = ratio(busy, encode_phase) if encode_phase else None
    for span in ("synth.synthesize", "stego.embed", "analyzer.optimal_rate"):
        out[span + ".calls"] = count_ratio(sel(span).sum(), traced_passes)
    for command in ("encode", "embed", "analyze"):
        out[f"cli.{command}.self_ms"] = mean("cli." + command, self_time, 1e3)
    return out
