"""gradsurf benchmark: `gradsurf run` workloads measured end to end.

Usage, from the root of a gradsurf source tree:

    python3 perfbench/run.py --workload default-serial --seed 0 --seconds 35 --trace 0

Each sample runs ``gradsurf.cli.main(["run", ...])`` once in a fresh child
interpreter (child.py) with the sources under ./src, the config seed set to
--seed, and OPENBLAS/OMP/MKL thread variables removed from its environment.
With --trace 0 samples repeat while the next one is expected to end within
--seconds, and the end-to-end metrics are medians over samples.  With
--trace 1 one untraced sample is followed by two traced ones; the per-layer
metrics come from the traced spans.  Every sample's artifact tree is checked
(see ``check_tree``) and the last stdout line is the JSON result.  --smoke
shrinks every workload to one cell per fit mode.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import COUNT_METRICS, layer_metrics  # noqa: E402

# name -> (config keys besides the seed, worker threads)
WORKLOADS = {
    "default-serial": ({}, 1),
    "default-workers2": ({}, 2),
    "c1-serial": ({"centre_list": [1], "repeats": 8}, 1),
}
SMOKE = {"batch_max_list": [3], "centre_list": [1], "repeats": 1}
MODES = ("f", "fg", "g")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
STATE_DIR = ".perfbench"
ALL_CELLS = "*"  # a failed check that fails every cell of the sample


class BenchError(RuntimeError):
    """The benchmark cannot measure: missing sources or a crashed child."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(out: Path) -> dict[str, str]:
    """SHA-256 per cell directory, plus ALL_CELLS for everything outside cells/."""
    groups: dict[str, list[str]] = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        parts = rel.split("/")
        key = parts[1] if parts[0] == "cells" else ALL_CELLS
        groups.setdefault(key, []).append(f"{rel} {_sha256(path)}")
    return {
        key: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for key, lines in groups.items()
    }


def check_tree(out: Path, expected_cells: int) -> tuple[dict, dict[str, set[str]]]:
    """Quality figures of one artifact tree and its failed checks.

    Checks: every cell of the matrix is in index.json with status ok, and
    every g report surface has min_value 0.0 and no negative node.  Failed
    checks map a check name to the cell ids that failed it.
    """
    index = json.loads((out / "index.json").read_text(encoding="utf-8"))
    cells = index["cells"]
    failed: dict[str, set[str]] = {}
    if len(cells) != expected_cells:
        failed["matrix-incomplete"] = {ALL_CELLS}
    rmse: dict[str, list[float]] = {m: [] for m in MODES}
    single_min = []
    for cell in cells:
        if cell["status"] != "ok":
            failed.setdefault("cell-not-ok", set()).add(cell["id"])
            continue
        report_path = out / "cells" / cell["id"] / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))["report_surface"]
        rmse[cell["mode"]].append(report["rmse_vs_reference"])
        if cell["mode"] == "g":
            single_min.append(report["local_min_count"] == 1)
            if report["min_value"] != 0.0:
                failed.setdefault("g-min-not-zero", set()).add(cell["id"])
            if report["negative_fraction"] != 0:
                failed.setdefault("g-negative", set()).add(cell["id"])
    quality = {f"rmse_{m}": statistics.fmean(v) for m, v in rmse.items() if v}
    if single_min:
        quality["g_single_min_share"] = sum(single_min) / len(single_min)
    return quality, failed


def _cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    """Share of CPU ticks the hypervisor gave to other guests in between."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(_sha256(path).encode())
    return h.hexdigest()


class TreeLedger:
    """Artifact digests of earlier runs, keyed by source, config and seed.

    Both default workloads share a config, so a default-workers2 tree is
    compared with a default-serial tree of the same seed and vice versa.
    """

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key

    def compare_and_record(self, digests: dict[str, str]) -> set[str]:
        """Groups whose digest differs from the recorded run; records the first run."""
        ledger = json.loads(self.path.read_text()) if self.path.exists() else {}
        earlier = ledger.get(self.key)
        if earlier is None:
            ledger[self.key] = digests
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return set()
        return {k for k in earlier.keys() | digests.keys() if earlier.get(k) != digests.get(k)}


class Bench:
    """One benchmark run: its config, child interpreters, checks and tallies."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        overrides, self.workers = WORKLOADS[workload]
        config = {**overrides, **(SMOKE if smoke else {}), "seed": seed}
        self.expected_cells = (
            len(config.get("batch_max_list", [3, 30]))
            * len(MODES)
            * len(config.get("centre_list", [1, 100]))
            * config.get("repeats", 2)
        )
        self.root = root
        state = root / STATE_DIR
        self.work = state / f"{workload}-s{seed}-p{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True))
        key = hashlib.sha256(
            (_source_digest(root) + json.dumps(config, sort_keys=True)).encode()
        ).hexdigest()
        self.ledger = TreeLedger(state / "trees.json", key)
        self.env = dict(os.environ)
        self.removed_env = {v: self.env.pop(v) for v in BLAS_THREAD_VARS if v in self.env}
        self.env["PYTHONPATH"] = str(root / "src")
        self.samples: list[dict] = []
        self.setups: list[float] = []
        self.failed: dict[str, set[str]] = {}
        self.attempted = 0
        self.failed_cells = 0
        self.digests: dict[str, str] | None = None
        self.quality: dict = {}
        self.machine: dict | None = None

    def spawn(self, tag: str, out: Path | None = None, spans: Path | None = None) -> dict:
        """One child interpreter: set-up only, or set-up and a measured run."""
        result = self.work / f"{tag}.json"
        cmd = [
            sys.executable,
            str(Path(__file__).resolve().parent / "child.py"),
            "--src", str(self.root / "src"),
            "--config", str(self.config_path),
            "--result", str(result),
        ]
        if out is not None:
            cmd += ["--out", str(out), "--workers", str(self.workers)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--t0", repr(time.perf_counter())]
        proc = subprocess.run(
            cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()}")
        data = json.loads(result.read_text())
        self.setups.append(data["setup_s"])
        return data

    def sample(self, tag: str, traced: bool = False) -> dict:
        """One `gradsurf run`, its output checks, and its measurements."""
        out = self.work / tag
        spans_path = self.work / f"{tag}.spans.json" if traced else None
        data = self.spawn(tag, out=out, spans=spans_path)
        if data["rc"] != 0:
            raise BenchError(f"gradsurf run exited {data['rc']} in sample {tag}")
        self.machine = self.machine or data["machine"]
        quality, failed = check_tree(out, self.expected_cells)
        digests = tree_digests(out)
        if self.digests is None:
            self.digests = digests
            self.quality = quality
            differs = self.ledger.compare_and_record(digests)
            if differs:
                failed["tree-differs-from-earlier-run"] = differs
        else:
            differs = {k for k in self.digests.keys() | digests.keys()
                       if self.digests.get(k) != digests.get(k)}
            if differs:
                failed["tree-differs-within-run"] = differs
        self.attempted += self.expected_cells
        self.record_failures(failed)
        if traced:
            data["spans"] = json.loads(spans_path.read_text())
        shutil.rmtree(out)
        self.samples.append(data)
        return data

    def record_failures(self, failed: dict[str, set[str]]) -> None:
        bad = set().union(*failed.values())
        self.failed_cells += self.expected_cells if ALL_CELLS in bad else len(bad)
        for name, ids in failed.items():
            self.failed.setdefault(name, set()).update(ids)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(s["wall_s"] for s in self.samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in self.samples),
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in self.samples),
            "cell_ok_ratio": (self.attempted - self.failed_cells) / self.attempted,
            **{k: v for k, v in self.quality.items() if k.startswith("rmse_")},
        }


def traced_metrics(bench: Bench) -> dict[str, float]:
    """One untraced and two traced samples; per-layer metrics of the traced ones.

    Integer counts must repeat exactly between the two traced samples.
    """
    untraced = bench.sample("untraced")
    per_run = [
        layer_metrics(bench.sample(f"traced{i}", traced=True)["spans"]) for i in range(2)
    ]
    differ = {n for n in COUNT_METRICS if per_run[0][n] != per_run[1][n]}
    if differ:
        print(f"trace counts differ: {', '.join(sorted(differ))}")
        bench.record_failures({"trace-counts-differ": {ALL_CELLS}})
    metrics = {
        name: (per_run[0][name] if name in COUNT_METRICS
               else statistics.median(m[name] for m in per_run))
        for name in per_run[0]
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall_s"]
    metrics["analysis.g_single_min_share"] = bench.quality["g_single_min_share"]
    return metrics


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "gradsurf" / "cli.py").is_file():
        raise BenchError(f"no gradsurf sources under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root, args.workload, args.seed, args.smoke)
    ticks = _cpu_ticks()
    try:
        bench.spawn("warmup")  # compiles bytecode; not measured
        bench.setups.clear()
        if args.trace:
            metrics = traced_metrics(bench)
        else:
            start = time.perf_counter()
            last = 0.0
            while not bench.samples or time.perf_counter() - start + last <= args.seconds:
                t = time.perf_counter()
                bench.sample(f"sample{len(bench.samples)}")
                last = time.perf_counter() - t
            while len(bench.setups) < SETUP_SAMPLES:
                bench.spawn(f"setup{len(bench.setups)}")
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    machine = dict(
        bench.machine,
        blas_env_removed=bench.removed_env,
        steal_share=_steal_share(ticks, _cpu_ticks()),
    )
    print(json.dumps({
        "machine": machine, "workload": args.workload, "seed": args.seed,
        "sample_wall_s": [s["wall_s"] for s in bench.samples], "setup_s": bench.setups,
    }))
    for name, ids in sorted(bench.failed.items()):
        print(f"check failed: {name}: {', '.join(sorted(ids))}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": min(bench.failed_cells, bench.attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one cell per fit mode")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
