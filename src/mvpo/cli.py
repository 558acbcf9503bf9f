"""Command-line harness: encode, embed, analyze, experiment.

Exit codes: 0 success (including an indeterminate verdict, which warns on
stderr), 1 usage error, 2 I/O or input-data error, 3 malformed stream (also
a tar1 output that would not decode), 70 internal error: any other failure
is a fault in mvpo and is reported with its traceback.  Outputs are written
only after a command has fully succeeded, and every artifact gets a sidecar
or inline record of the invocation that produced it, so reruns are
auditable.  Each file is written whole through a temp file and a rename, a
sidecar just before the file it describes and put back if that file's rename
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__
from .analyzer import optimal_rate
from .codec import encode_sequence
from .core import RdParams, rate_of
from .errors import InputError, MalformedStreamError
from .experiment import (
    _parse_size,
    parse_plan,
    parse_synth_spec,
    rows_to_csv,
    run_experiment,
)
from .formats import (
    YuvSpec,
    load_stream,
    read_yuv,
    report_to_csv,
    report_to_json,
    save_stream,
    write_atomic,
)
from .stego import METHOD_TAGS, EmbedConfig, embed
from .synth import synthesize

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


def _load_frames(args):
    if bool(args.synth) == bool(args.yuv):
        raise UsageError("encode needs exactly one of --synth or --yuv")
    if args.synth:
        return synthesize(parse_synth_spec(args.synth))
    if not args.size:
        raise UsageError("--yuv needs --size WxH")
    w, h = _parse_size("size", args.size)
    frames = args.frames
    if frames is None:
        frame_bytes = w * h * 3 // 2
        total = os.stat(args.yuv).st_size
        if total == 0 or total % frame_bytes:
            raise InputError(f"{args.yuv}: size {total} is not a whole number of {w}x{h} 4:2:0 frames")
        frames = total // frame_bytes
    return read_yuv(args.yuv, YuvSpec(w, h, frames))


def cmd_encode(args) -> int:
    frames = _load_frames(args)
    params = _from_args(RdParams, qp=args.qp, search_range=args.search_range, pu_size=args.pu_size)
    stream, _ = encode_sequence(frames, params)
    meta = _invocation(
        "encode",
        {
            "synth": args.synth,
            "yuv": args.yuv,
            "size": args.size,
            "frames": args.frames,
            "qp": args.qp,
            "pu_size": args.pu_size,
            "search_range": args.search_range,
        },
    )
    save_stream(stream, args.out, sidecar=(args.out + ".meta.json", _to_json(meta)))
    total_bits = sum(rate_of(r.mvd) for r in stream.records)
    print(f"pus={stream.n_records} total_rate_bits={total_bits} out={args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    stream = load_stream(args.input)
    tag = METHOD_TAGS[args.method]
    value = getattr(args, tag.param)
    if value is None:
        raise UsageError(f"--method {args.method} needs --{tag.param}")
    stego, report = embed(stream, _from_args(EmbedConfig, tag.method, value, args.seed))
    doc = report.to_dict()
    params = {t.param: getattr(args, t.param) for t in METHOD_TAGS.values()}
    doc["invocation"] = _invocation(
        "embed", {"in": args.input, "method": args.method, **params, "seed": args.seed}
    )
    save_stream(stego, args.out, sidecar=(args.out + ".report.json", _to_json(doc)))
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
            # a JSON report holds its invocation inline, a CSV report's goes in a sidecar
            sidecar = None if args.format == "json" else (args.out + ".meta.json", _to_json(invocation))
            write_atomic(args.out, rendered, sidecar=sidecar)
    return EXIT_OK


def cmd_experiment(args) -> int:
    with open(args.plan) as f:
        plan = parse_plan(f.read())
    rows, errors = run_experiment(plan, jobs=args.jobs)
    out = args.out or plan.out
    meta = _invocation("experiment", {"plan": args.plan, "jobs": args.jobs, "seed": plan.seed})
    write_atomic(out, rows_to_csv(rows), sidecar=(out + ".meta.json", _to_json(meta)))
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
        return args.func(args)
    except UsageError as exc:
        print(f"mvpo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"mvpo: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MalformedStreamError as exc:
        print(f"mvpo: malformed stream: {exc}", file=sys.stderr)
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
