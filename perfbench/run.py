"""lbpx benchmark: one seeded workload through the real CLI, in-process.

    python3 perfbench/run.py --workload texture_eval --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from --seed under .perfbench_work/, then runs
its op mix (see workloads.py) with one closed-loop client: one
`lbpx.cli.run_cli` call at a time, stdout captured, every output checked.
--trace 0 measures the end-to-end metrics untraced; --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics. The
metric names and units are those declared in BENCHMARK.json. A copy of the
result with the environment, and the spans of a traced run, go to
.perfbench_out/.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the cold-start children.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("LBPX_THREADS", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import corpus
import numpy as np
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
COLD_RUNS = 9
# Ops of one kind do the same work, and a shared host runs them at two speeds
# about 1.8x apart, switching every few seconds in a proportion that drifts
# over minutes. A median falls in whichever mode holds half the run, so it
# jumps between runs; a low and a high percentile each stay inside one mode.
QUIET_PERCENTILE = 10
TAIL_PERCENTILE = 90
COLD_TIMEOUT_S = 60
# a traced op's cli.run_cli span must cover the op's measured time to within
# the larger of these two
SPAN_GAP_S = 0.002
SPAN_GAP_SHARE = 0.05


class Runner:
    """Runs ops one at a time, checks each output, counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.first_output: dict[str, str] = {}
        self.stdout_bytes = 0

    def fail(self, op_index: int, problem: str) -> None:
        if len(self.failed_ops) < 5:
            print(f"op {op_index} failed: {problem}", file=sys.stderr)
        self.failed_ops.add(op_index)

    def run(self, op) -> float:
        """Runs one op; returns its wall time in seconds."""
        index = self.attempted
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_cli(op.argv)
        except Exception:
            code, problem = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        self.stdout_bytes += len(text.encode("utf-8"))
        if problem is None and code != 0:
            problem = f"{op.kind} exited with {code}: {err.getvalue().strip()}"
        if problem is None:
            try:
                if op.output_file is not None:
                    text = op.output_file.read_text(encoding="utf-8")
                problem = op.check(text)
            except Exception:
                problem = f"{op.kind} output could not be checked:\n{traceback.format_exc()}"
        if problem is None and self.first_output.setdefault(op.key, text) != text:
            problem = f"{op.key}: output differs from an earlier run of the same op"
        if problem is not None:
            self.fail(index, problem)
        return elapsed

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first_output):
            h.update(key.encode("utf-8") + b"\0" + self.first_output[key].encode("utf-8") + b"\0")
        return h.hexdigest()


def environment(args) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "LBPX_THREADS": os.environ.get("LBPX_THREADS", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "tiny" if args.tiny else "full",
    }


def cold_probe(workload) -> dict:
    """import + first call of each command in a fresh interpreter (coldstart.py)."""
    ops = json.dumps(workload.cold_ops())
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), ops]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(runner: Runner, workload, seconds: float) -> tuple[dict[str, list[float]], list[dict]]:
    """Closed loop over the op mix for `seconds` of op time, every op kind at least once.

    The COLD_RUNS cold-start probes are spread evenly over the run, between
    ops, so that a slow spell of the machine reaches few of them.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    probes: list[dict] = []
    kinds = {op.kind for op in workload.iteration()}
    busy = 0.0
    while True:
        for op in workload.iteration():
            if len(probes) < COLD_RUNS and busy >= len(probes) * seconds / COLD_RUNS:
                probes.append(cold_probe(workload))
            samples[op.kind].append(runner.run(op))
            busy += samples[op.kind][-1]
            if busy >= seconds and kinds <= samples.keys() and len(probes) == COLD_RUNS:
                return samples, probes


def end_to_end(runner: Runner, workload, seconds: float) -> tuple[dict, list[str], dict]:
    samples, probes = measure(runner, workload, seconds)
    setup = [sum(probe["ops"].values()) for probe in probes]
    fig = workload.figures(samples)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p10": (1e3 * percentile(fig.op_samples, QUIET_PERCENTILE), "ms"),
        "op_ms_p90": (1e3 * percentile(fig.op_samples, TAIL_PERCENTILE), "ms"),
        "items_per_s": (fig.items_per_s, "1/s"),
        "quality": (fig.quality, "ratio"),
        "peak_rss_mb": (statistics.median(probe["peak_rss_mb"] for probe in probes), "MB"),
    }
    cold_names = ", ".join(name for name, _ in workload.cold_ops())
    notes = [
        f"note setup_s and peak_rss_mb: median of {len(probes)} fresh processes spread over the run, "
        f"each timing import + first {cold_names}",
        f"note op_ms_*: {fig.op_name}, n={len(fig.op_samples)}; "
        f"median {1e3 * statistics.median(fig.op_samples):.6g} ms",
        f"note items_per_s and quality: {fig.items_note}",
    ]
    for name, (v, unit, n) in fig.info.items():
        notes.append(f"info {name} = {v:.6g} {unit} (n={n})")
    return values, notes, {"samples": samples, "cold_probes": probes}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def check_spans(runner: Runner, summary, traced_ops: list[tuple[int, float]]) -> float:
    """Each traced op's layer self-times, cli included, add up to its measured time.

    The sum equals the op's root span by construction, so this checks that
    the one root is the wrapped `cli.run_cli` and that it covers the time the
    runner measured around the call, less the redirect of stdout. Returns
    the largest uncovered share.
    """
    worst = 0.0
    for op, elapsed in traced_ops:
        entry = summary.ops.get(op)
        if entry is None or entry["roots"] != ["cli.run_cli"]:
            runner.fail(op, f"traced op has root spans {entry and entry['roots']}, not cli.run_cli")
            continue
        gap = elapsed - sum(entry["layers"].values())
        worst = max(worst, gap / elapsed)
        if not 0 <= gap <= max(SPAN_GAP_S, SPAN_GAP_SHARE * elapsed):
            runner.fail(op, f"layer self-times miss {gap * 1e3:.3f} ms of the {elapsed * 1e3:.3f} ms op")
        elif entry["layers"]["cli"] < 0:
            runner.fail(op, "cli self-time is negative")
    return worst


def per_layer(runner: Runner, workload, seconds: float, trace_file: Path) -> tuple[dict, list[str], dict]:
    from lbpx import LbpParams, mapping

    params = LbpParams(**workload.params)
    build = mapping.build_mapping
    cold = []
    for _ in range(COLD_RUNS):
        build.cache_clear()
        start = time.perf_counter()
        table = build(params.neighbors, params.mapping)
        cold.append(time.perf_counter() - start)

    tracer = Tracer()
    untraced, traced = [], []  # wall time of each iteration
    traced_ops = []  # (op id, wall time)
    stdout_bytes = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(runner.run(op) for op in workload.iteration()))
        before = runner.stdout_bytes
        traced.append(0.0)
        with tracer.installed():
            for op in workload.iteration():
                tracer.begin_op(runner.attempted)
                traced_ops.append((runner.attempted, runner.run(op)))
                traced[-1] += traced_ops[-1][1]
        stdout_bytes += runner.stdout_bytes - before
    summary = tracer.summary()
    worst_gap = check_spans(runner, summary, traced_ops)
    iterations = len(traced)
    durations, selfs = summary.durations, summary.self_durations
    op_layers = [entry["layers"] for entry in summary.ops.values()]

    def per_iteration(name):
        return len(durations[name]) / iterations

    def ms(name, spans=durations):
        return 1e3 * median_or_zero(spans[name])

    def rate(amount, name):
        busy = sum(durations[name])
        return amount / busy if busy else 0.0

    hits, kept = tracer.counter_total("hits"), tracer.counter_total("kept")
    values = {
        "image.load_pgm_file.calls": (per_iteration("image.load_pgm_file"), "count"),
        "image.load_pgm_file.ms_p50": (ms("image.load_pgm_file"), "ms"),
        "image.decode_mb_per_s": (rate(tracer.counter_total("decoded_bytes") / 1e6, "image.load_pgm_file"), "MB/s"),
        "lbp.lbp_map.calls": (per_iteration("lbp.lbp_map"), "count"),
        "lbp.lbp_map.ms_p50": (ms("lbp.lbp_map"), "ms"),
        "lbp.kernel.self_ms_p50": (ms("lbp.lbp_map", selfs), "ms"),
        "lbp.mpix_per_s": (rate(tracer.counter_total("pixels_coded") / 1e6, "lbp.lbp_map"), "Mpix/s"),
        "mapping.build_mapping.cold_s": (statistics.median(cold), "s"),
        "mapping.apply.ms_p50": (ms("mapping.apply"), "ms"),
        "mapping.table_mb": (table.table.nbytes / 1e6, "MB"),
        "descriptor.grid_descriptor.ms_p50": (ms("descriptor.grid_descriptor"), "ms"),
        "descriptor.grid_values.calls": (per_iteration("descriptor.grid_values"), "count"),
        "descriptor.grid_values.total_s": (sum(durations["descriptor.grid_values"]) / iterations, "s"),
        "classify.distance.calls": (per_iteration("classify.distance"), "count"),
        "classify.distance.total_s": (sum(durations["classify.distance"]) / iterations, "s"),
        "classify.predict.ms_p50": (ms("classify.predict"), "ms"),
        "classify.build_templates.ms_p50": (ms("classify.build_templates"), "ms"),
        "classify.load_model.ms_p50": (ms("classify.load_model"), "ms"),
        "classify.serialize_model.ms_p50": (ms("classify.serialize_model"), "ms"),
        "detect.scan_detect.ms_p50": (ms("detect.scan_detect"), "ms"),
        "detect.scan.self_ms_p50": (ms("detect.scan_detect", selfs), "ms"),
        "detect.windows_scanned": (tracer.counter_total("windows") / iterations, "count"),
        "detect.hits": (hits / iterations, "count"),
        "detect.nms.ms_p50": (ms("detect.nms"), "ms"),
        "detect.nms.kept": (kept / iterations, "count"),
        "detect.nms.kept_ratio": (kept / hits if hits else 0.0, "ratio"),
        "evaluate.load_manifest_file.ms_p50": (ms("evaluate.load_manifest_file"), "ms"),
        "evaluate.train_model.s_p50": (ms("evaluate.train_model") / 1e3, "s"),
        "evaluate.evaluate.s_p50": (ms("evaluate.evaluate") / 1e3, "s"),
        "cli.self_ms_p50": (1e3 * statistics.median(layers["cli"] for layers in op_layers), "ms"),
        "cli.stdout_bytes": (stdout_bytes / iterations, "bytes"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (sum(layers[layer] for layers in op_layers) / iterations, "s")

    tracer.write_jsonl(trace_file)
    notes = [
        f"note .calls, .total_s, .self_s and counts are per iteration of the op mix, "
        f"{iterations} traced iterations alternating with {len(untraced)} untraced",
        f"note spans written to {trace_file.relative_to(ROOT)}; largest share of a traced op "
        f"outside its cli.run_cli span {worst_gap:.3g}",
    ]
    return values, notes, {"untraced_iteration_s": untraced, "traced_iteration_s": traced}


def run(args, work: Path) -> tuple[Runner, dict, list[str], dict]:
    sizes = corpus.TINY if args.tiny else corpus.FULL
    workload = WORKLOADS[args.workload](args.workload, work, args.seed, sizes)
    import lbpx.cli

    runner = Runner(lbpx.cli)
    for op in workload.prepare():
        runner.run(op)
    if args.trace:
        trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
        return (runner, *per_layer(runner, workload, args.seconds, trace_file))
    return (runner, *end_to_end(runner, workload, args.seconds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not (SRC / "lbpx" / "__init__.py").is_file():
        print(f"lbpx sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, values, notes, samples = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    produced = {name: unit for name, (_, unit) in values.items()}
    if produced != declared:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(produced) ^ set(declared))}", file=sys.stderr)
        return 1
    failed = len(runner.failed_ops)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    record = {"environment": env, "digest": runner.digest(), "notes": notes, **result, **samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"perfbench {' '.join(f'{k}={v}' for k, v in env.items())}")
    for name, (v, unit) in values.items():
        print(f"metric {name} = {v:.6g} {unit}")
    for line in notes:
        print(line)
    print(f"info error_rate = {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} ops)")
    print(f"digest sha256 {runner.digest()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
