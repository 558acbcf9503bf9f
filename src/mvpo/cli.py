"""Command-line harness: encode, embed, analyze, experiment.

Exit codes: 0 success (including an indeterminate verdict, which warns on
stderr), 1 usage error, 2 I/O or input-data error, 3 malformed stream, named
by its file (also a tar1 output that would not decode), 70 internal error:
any other failure is a fault in mvpo and is reported with its traceback.
Every output path, sidecars included, is checked before any work: it must
name a file, not a directory, in a directory that exists.  Outputs are
written only after a command has fully succeeded, and every artifact gets a
sidecar or inline record of the invocation that produced it, so reruns are
auditable.  Each file is written whole through a temp file and a rename, a
sidecar just before the file it describes and put back if that file's rename
fails.  `encode` codes its source with `SequenceSource.encode`, as the
experiment does: a `--yuv` clip is read once, a frame at a time, while it is
encoded, so a frame that cannot be read fails it there, and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__
from .analyzer import mvd_rates, optimal_rate
from .core import RdParams
from .errors import InputError, MalformedStreamError, check_geometry
from .experiment import (
    SequenceSource,
    _parse_size,
    parse_plan,
    parse_synth_spec,
    rows_to_csv,
    run_experiment,
)
from .formats import (
    YuvSpec,
    load_stream,
    report_to_csv,
    report_to_json,
    save_stream,
    write_atomic,
)
from .stego import METHOD_TAGS, EmbedConfig, embed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_MALFORMED = 3
EXIT_INTERNAL = 70  # sysexits.h EX_SOFTWARE


class UsageError(Exception):
    """A command-line value the command cannot run with."""


def _from_args(make, *args, **kwargs):
    """Build a value object from command-line values; a value it rejects is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def positive_int(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for I/O, so usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _invocation(command: str, args: dict) -> dict:
    return {"tool": "mvpo", "version": __version__, "command": command, "args": args}


def _to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_out_path(path: str) -> None:
    """Refuse an output path the final rename would fail on, before the work that would be lost there.

    The path must name a file: not be empty, end in a path separator or be
    an existing directory; and its directory must exist.
    """
    if not os.path.basename(path):
        raise InputError(f"output path {path!r} names no file")
    if os.path.isdir(path):
        raise InputError(f"output {path} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise InputError(f"output directory {folder} does not exist")


# the suffix of the record each command writes beside its output; a JSON analysis holds its record inline
_SIDECARS = {"encode": ".meta.json", "embed": ".report.json", "analyze": ".meta.json", "experiment": ".meta.json"}


def _sidecar(args, out: str) -> str | None:
    """The path of the record written beside output `out`: the up-front check and the writers both read it."""
    return None if args.command == "analyze" and args.format == "json" else out + _SIDECARS[args.command]


def _check_outputs(args, out: str) -> None:
    """Refuse output `out`, or the sidecar written beside it, before any work, as `_check_out_path` does."""
    for path in (out, _sidecar(args, out)):
        if path is not None:
            _check_out_path(path)


def _source(args) -> SequenceSource:
    if bool(args.synth) == bool(args.yuv):
        raise UsageError("encode needs exactly one of --synth or --yuv")
    if args.synth:
        # the spec gives both, and the sidecar records the flags, so an ignored one would read as applied
        if args.size is not None or args.frames is not None:
            raise UsageError("--synth takes its size and frames from the spec, not --size or --frames")
        return SequenceSource(args.synth, synth=parse_synth_spec(args.synth))
    if not args.size:
        raise UsageError("--yuv needs --size WxH")
    w, h = _parse_size("size", args.size)
    frames = args.frames
    # the geometry is checked before a frame size is derived from it
    check_geometry(w, h, 1 if frames is None else frames, "--size", "--frames")
    frame_bytes = YuvSpec(w, h, 1).frame_bytes  # and 4:2:0's even dimensions
    if frames is None:
        total = os.stat(args.yuv).st_size
        if total == 0 or total % frame_bytes:
            raise InputError(f"{args.yuv}: size {total} is not a whole number of {w}x{h} 4:2:0 frames")
        frames = total // frame_bytes
    return SequenceSource(args.yuv, yuv_path=args.yuv, yuv_spec=YuvSpec(w, h, frames))


def cmd_encode(args) -> int:
    source = _source(args)
    params = _from_args(RdParams, qp=args.qp, search_range=args.search_range, pu_size=args.pu_size)
    stream = source.encode(params)
    flags = ("synth", "yuv", "size", "frames", "qp", "pu_size", "search_range")
    meta = _invocation("encode", {flag: getattr(args, flag) for flag in flags})
    save_stream(stream, args.out, sidecar=(_sidecar(args, args.out), _to_json(meta)))
    total_bits = int(mvd_rates(stream.table["dx"], stream.table["dy"]).sum())
    print(f"pus={stream.n_records} total_rate_bits={total_bits} out={args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    tag = METHOD_TAGS[args.method]
    for other in METHOD_TAGS.values():
        # the sidecar records every method's parameter, so an ignored one would read as applied
        if other is not tag and getattr(args, other.param) is not None:
            raise UsageError(f"--method {args.method} takes no --{other.param}")
    value = getattr(args, tag.param)
    if value is None:
        raise UsageError(f"--method {args.method} needs --{tag.param}")
    cfg = _from_args(EmbedConfig, tag.method, value, args.seed)
    stego, report = embed(load_stream(args.input), cfg)
    doc = report.to_dict()
    params = {t.param: getattr(args, t.param) for t in METHOD_TAGS.values()}
    doc["invocation"] = _invocation("embed", {"in": args.input, "method": args.method, **params, "seed": args.seed})
    save_stream(stego, args.out, sidecar=(_sidecar(args, args.out), _to_json(doc)))
    print(
        f"method={args.method} pus={report.pus_visited} bits={report.bits_embedded} "
        f"modified={report.pus_modified} out={args.out}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    stream = load_stream(args.input)
    report = optimal_rate(stream)
    invocation = _invocation("analyze", {"in": args.input, "format": args.format})
    if args.format == "json":
        rendered = report_to_json(report, invocation=invocation)
    else:
        rendered = report_to_csv(report)
    if report.n_pus == 0:
        print("warning: stream carries no inter PUs, verdict is indeterminate", file=sys.stderr)
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        pct = report.optimal_rate_pct
        pct_text = "n/a" if pct is None else f"{pct:.4f}"
        print(
            f"n_pus={report.n_pus} n_optimal={report.n_optimal} "
            f"optimal_rate_pct={pct_text} verdict={report.verdict.value}"
        )
        if args.out:
            sidecar = _sidecar(args, args.out)
            write_atomic(args.out, rendered, sidecar=None if sidecar is None else (sidecar, _to_json(invocation)))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        with open(args.plan, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a fault in mvpo
        raise InputError(f"plan {args.plan} is not UTF-8 text: {exc}") from exc
    plan = parse_plan(text)
    out = plan.out if args.out is None else args.out  # an empty --out is refused, not replaced
    _check_outputs(args, out)  # the plan's out, when --out is not given
    rows, errors = run_experiment(plan, jobs=args.jobs)
    meta = _invocation("experiment", {"plan": args.plan, "jobs": args.jobs, "seed": plan.seed})
    write_atomic(out, rows_to_csv(rows), sidecar=(_sidecar(args, out), _to_json(meta)))
    for line in errors:
        print(f"warning: {line}", file=sys.stderr)
    print(f"cells={len(rows)} errors={len(errors)} out={out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvpo", description="AMVP codec model, MV embedders, predictor-optimality analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a sequence to an MVPO stream")
    enc.add_argument("--synth", help="synthetic source, e.g. pattern=shift,size=64x64,frames=9,seed=1,amp=1x0")
    enc.add_argument("--yuv", help="raw YUV 4:2:0 input file")
    enc.add_argument("--size", help="YUV frame size WxH")
    enc.add_argument("--frames", type=int, help="YUV frame count (default: derived from file size)")
    enc.add_argument("--qp", type=int, default=25)
    enc.add_argument("--pu-size", type=int, default=16, dest="pu_size")
    enc.add_argument("--search-range", type=int, default=8, dest="search_range")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=cmd_encode)

    emb = sub.add_parser("embed", help="embed a payload into an MVPO stream")
    emb.add_argument("--in", required=True, dest="input")
    emb.add_argument("--method", choices=sorted(METHOD_TAGS), required=True)
    for name, tag in METHOD_TAGS.items():
        emb.add_argument(f"--{tag.param}", type=tag.convert, help=f"the {name} parameter, {tag.bounds}")
    emb.add_argument("--seed", type=int, default=0)
    emb.add_argument("--out", required=True)
    emb.set_defaults(func=cmd_embed)

    ana = sub.add_parser("analyze", help="report the predictor-optimality rate of a stream")
    ana.add_argument("--in", required=True, dest="input")
    ana.add_argument("--format", choices=["json", "csv"], default="json")
    ana.add_argument("--out", help="report file path, or - for stdout")
    ana.set_defaults(func=cmd_analyze)

    exp = sub.add_parser("experiment", help="run a (sequence, qp, method, parameter) grid")
    exp.add_argument("--plan", required=True)
    exp.add_argument("--out", help="results CSV path (default: from the plan)")
    exp.add_argument("--jobs", type=positive_int, default=1)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None and (args.out, args.command) != ("-", "analyze"):  # "-" is analyze's stdout
            _check_outputs(args, args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"mvpo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"mvpo: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MalformedStreamError as exc:  # the reader's or a decode's refusal of --in: only embed and analyze read one
        print(f"mvpo: malformed stream: {args.input}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:
        # not a fault of the arguments or the input: say so, with the traceback to report
        traceback.print_exc()
        print(f"mvpo: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
