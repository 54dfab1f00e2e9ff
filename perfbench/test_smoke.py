"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric_with_no_errors(workload):
    digests = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert "info error_rate = 0 ratio" in "\n".join(lines)
        for metric in SPEC[kind]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines)
        assert len(result["metrics"]) == len(SPEC[kind])
        digests |= {line for line in lines if line.startswith("digest ")}
    # the traced and untraced runs of one seed see the same inputs and outputs
    assert len(digests) == 1


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    def make(name, seed):
        corpus.make_textures(tmp_path / name / "textures", seed, corpus.TINY)
        corpus.make_scenes(tmp_path / name / "scenes", seed, corpus.TINY)
        return {sub: _files(tmp_path / name / sub) for sub in ("textures", "scenes")}

    first, again, other = make("a", 11), make("b", 11), make("c", 12)
    assert first == again
    for sub in first:
        changed = [n for n in first[sub] if n.endswith(".pgm") and first[sub][n] != other[sub][n]]
        assert changed, sub
