"""Batch command-line interface.

Exit codes: 0 success, 1 usage or parameter error, 2 I/O or file format
error, 3 model/config/evaluation mismatch; each error carries its own as
`LbpxError.exit_code`. Outputs are byte-reproducible for identical inputs;
timing figures from `bench` are the one exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classify import METRICS, load_model, predict, serialize_model
from .descriptor import describe_image
from .detect import _lattice_suppress, _scan
from .errors import LbpxError, ParameterError
from .evaluate import benchmark_fps, evaluate, load_manifest_file, train_model
from .lbp import SAMPLING_MODES, LbpParams, lbp_map, lbp_map_to_image
from .image import load_pgm_file, open_file, save_pgm_file
from .mapping import MAPPING_MODES


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ParameterError(f"{what} must be two integers separated by 'x', got {text!r}")
    try:
        first, second = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParameterError(f"{what} must contain two integers, got {text!r}") from None
    if first < 1 or second < 1:
        raise ParameterError(f"{what} components must be positive, got {text!r}")
    return first, second


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--neighbors", type=int, default=8, help="sampling points P (default 8)")
    p.add_argument("--radius", type=float, default=1.0, help="circle radius R (default 1.0)")
    p.add_argument(
        "--sampling",
        choices=SAMPLING_MODES,
        default="square3x3",
        help="neighborhood sampling mode (default square3x3)",
    )
    p.add_argument(
        "--mapping",
        choices=MAPPING_MODES,
        default="u2",
        help="code-to-label mapping (default u2)",
    )


def _add_grid_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", default="3x3", help="descriptor grid ROWSxCOLS (default 3x3)")


def _add_metric_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=METRICS, default="chi2", help="distance (default chi2)")


def _params_from_args(args) -> LbpParams:
    return LbpParams(
        neighbors=args.neighbors,
        radius=args.radius,
        sampling=args.sampling,
        mapping=args.mapping,
    )


def _emit_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open_file(output, "w") as fh:
            fh.write(text)


def _map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input PGM image")
    p.add_argument("--output", required=True, help="output PGM label map")
    _add_params_flags(p)


def _cmd_map(args) -> int:
    params = _params_from_args(args)
    lmap = lbp_map(load_pgm_file(args.input), params)
    save_pgm_file(lbp_map_to_image(lmap), args.output)
    return 0


def _describe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input PGM image")
    p.add_argument("--output", help="output JSON path (default: stdout)")
    _add_params_flags(p)
    _add_grid_flag(p)


def _cmd_describe(args) -> int:
    params = _params_from_args(args)
    rows, cols = _parse_pair(args.grid, "grid")
    desc = describe_image(load_pgm_file(args.input), params, rows, cols)
    _emit_text(json.dumps(desc.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="CSV manifest (path,label,split)")
    p.add_argument("--output", help="output model JSON path (default: stdout)")
    _add_params_flags(p)
    _add_grid_flag(p)


def _cmd_train(args) -> int:
    params = _params_from_args(args)
    rows, cols = _parse_pair(args.grid, "grid")
    manifest = load_manifest_file(args.manifest)
    model = train_model(manifest, params, rows, cols, base_dir=Path(args.manifest).parent)
    _emit_text(serialize_model(model), args.output)
    return 0


def _classify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", required=True, help="input PGM image")
    _add_metric_flag(p)


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    desc = describe_image(
        load_pgm_file(args.input), model.params, model.grid_rows, model.grid_cols
    )
    label, scores = predict(model, desc, args.metric)
    lines = [label]
    for class_label, score in zip(model.class_labels, scores):
        lines.append(f"{class_label}\t{score:.6f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="CSV manifest (path,label,split)")
    p.add_argument("--output", help="output report JSON path (default: stdout)")
    _add_params_flags(p)
    _add_grid_flag(p)
    _add_metric_flag(p)


def _cmd_evaluate(args) -> int:
    params = _params_from_args(args)
    rows, cols = _parse_pair(args.grid, "grid")
    manifest = load_manifest_file(args.manifest)
    report = evaluate(
        manifest, params, rows, cols, metric=args.metric, base_dir=Path(args.manifest).parent
    )
    _emit_text(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def _detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True, help="scene PGM image")
    p.add_argument("--model", required=True, help="single-class model JSON file")
    p.add_argument("--window", required=True, help="window WIDTHxHEIGHT, e.g. 32x32")
    p.add_argument("--stride", type=int, default=1, help="scan stride in pixels (default 1)")
    p.add_argument(
        "--threshold",
        type=float,
        default=float("inf"),
        help="maximum chi-square distance to report (default: no limit)",
    )
    p.add_argument(
        "--nms-iou",
        type=float,
        default=0.3,
        help="suppress boxes with IoU above this against a better hit (default 0.3)",
    )
    p.add_argument("--output", help="output JSON-lines path (default: stdout)")


def _cmd_detect(args) -> int:
    scene = load_pgm_file(args.scene)
    model = load_model(args.model)
    win_w, win_h = _parse_pair(args.window, "window")
    # the hits stay arrays through suppression; only kept boxes become lines
    stride = args.stride
    cols, rows, scores = _scan(scene, model, (win_w, win_h), stride, args.threshold)
    keep = _lattice_suppress(cols, rows, (win_w, win_h), stride, args.nms_iou)
    lines = [
        f'{{"x":{j * stride},"y":{i * stride},"w":{win_w},"h":{win_h},"score":{score:.6f}}}'
        for j, i, score in zip(cols[keep].tolist(), rows[keep].tolist(), scores[keep].tolist())
    ]
    _emit_text("".join(line + "\n" for line in lines), args.output)
    return 0


def _bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input PGM image")
    p.add_argument("--iterations", type=int, default=100, help="timed iterations (default 100)")
    _add_params_flags(p)


def _cmd_bench(args) -> int:
    params = _params_from_args(args)
    img = load_pgm_file(args.input)
    result = benchmark_fps(img, params, iterations=args.iterations)
    config = json.dumps(params.to_json_dict())
    sys.stdout.write(
        "{\n"
        f'  "fps": {result.fps:.6f},\n'
        f'  "ms_per_frame": {result.ms_per_frame:.6f},\n'
        f'  "iterations": {result.iterations},\n'
        f'  "image": [{result.image_width}, {result.image_height}],\n'
        f'  "config": {config}\n'
        "}\n"
    )
    return 0


# name -> (help, flag setup, handler), in the order `lbpx --help` lists them
_COMMANDS = {
    "map": ("compute an LBP label map and write it as PGM", _map_flags, _cmd_map),
    "describe": ("compute a grid histogram descriptor as JSON", _describe_flags, _cmd_describe),
    "train": ("build per-class templates from a manifest's train split", _train_flags, _cmd_train),
    "classify": ("classify one image against a trained model", _classify_flags, _cmd_classify),
    "evaluate": ("train/test evaluation over a manifest", _evaluate_flags, _cmd_evaluate),
    "detect": ("sliding-window detection against a one-class model", _detect_flags, _cmd_detect),
    "bench": ("throughput benchmark of the map operator", _bench_flags, _cmd_bench),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `lbpx` parser. When `command` names a command, only its subparser
    is built; otherwise all are, for the full help and choice list."""
    parser = _Parser(prog="lbpx", description="Local binary pattern texture engine")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, add_flags, _ = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads COLUMNS while it builds, so the parser is never reused
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command][2](args)
    except LbpxError as exc:
        print(f"lbpx: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{name}: {exc.strerror}" if name else str(exc)
        print(f"lbpx: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
