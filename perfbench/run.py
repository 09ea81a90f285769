"""decolab benchmark: the CLI end to end, and its layers from a traced replay.

    python3 perfbench/run.py --workload closed_form --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a list of ``decolab`` CLI
invocations generated from ``--seed`` (see ``workloads.py``); one run of the
list is a pass.  The benchmark is a closed loop with one client: it starts an
invocation only after the previous one has been reaped, with ``--workers 2``.

``--trace 0`` times passes for ``--seconds`` and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` times untraced passes the same
way, then replays the workload in one process with every public ``decolab``
function wrapped in a span (``tracer.py``) and reports the per-layer metrics.
Every run checks the CLI's outputs; the last line of standard output is one
JSON object, and the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy

import checks
import stats
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
WORKERS = 2
SETUP_RUNS = 9
INVOCATION_TIMEOUT_S = 150
# One BLAS thread per process: with the default (one per core) the 2-worker
# pool oversubscribes the cores and pass-to-pass spread grows several-fold.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Invocation(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int


def invoke(argv, cwd: str, env: dict, stderr_path: str) -> Invocation:
    """Run one process tree; time it from spawn to reap.

    ``os.wait4`` returns the rusage of this child and of every descendant it
    reaped (its pool workers), so CPU time and peak RSS belong to this
    invocation alone, unlike ``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is a
    high-water mark over every child the benchmark ever reaped.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode)


class Bench:
    """One benchmark run: generated inputs, invocations and their checks."""

    def __init__(self, workload: str, seed: int, work: str, capture: bool):
        self.work = work
        self.steps, self.setup = workloads.generate(workload, seed, work)
        self.env = {k: v for k, v in os.environ.items() if k != "DECOLAB_SEED"}
        self.env.update(THREAD_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.capture = capture
        self.digests: dict[str, dict] | None = None
        if seed == DEFAULT_SEED:
            self.digests = {}
            if not capture:
                with open(REFERENCE, encoding="utf-8") as fh:
                    self.reference = json.load(fh)[workload]

    def argv(self, sub: str, config: str, out: str, workers: int = WORKERS) -> list[str]:
        return [sub, "--config", config, "--out", out, "--workers", str(workers), "--quiet"]

    def step(self, sub: str, config: str, artifacts: list[str]) -> Invocation:
        out = os.path.join(self.work, "out")
        inv = invoke([sys.executable, "-m", "decolab"] + self.argv(sub, config, out),
                     self.work, self.env, os.path.join(self.work, "stderr.txt"))
        self.attempted += 1
        failed_before = len(self.problems)
        if inv.exit_code != 0:
            with open(os.path.join(self.work, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                tail = " | ".join(fh.read().strip().splitlines()[-2:])
            self.problems.append(f"{sub} {config}: exit code {inv.exit_code}: {tail}")
        else:
            self._check_outputs(config, out, artifacts)
        self.failed += len(self.problems) > failed_before
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def _check_outputs(self, config: str, out: str, artifacts: list[str]) -> None:
        for name in checks.missing(out, artifacts):
            self.problems.append(f"{config}: expected artifact {name} is missing")
        for name in artifacts:
            path = os.path.join(out, name)
            if not os.path.isfile(path):
                continue
            key = f"{config}:{name}"
            digest = checks.sha256(path)
            if self.hashes.setdefault(key, digest) != digest:
                self.problems.append(f"{key}: rerun is not byte-identical")
            if self.digests is not None and key not in self.digests:
                self.digests[key] = checks.digest(path)
                if not self.capture:
                    want = self.reference.get(key)
                    diffs = ["no reference value"] if want is None else checks.compare(
                        self.digests[key], want)
                    self.problems += [f"{key}{line}" for line in diffs]

    def setup_times(self) -> list[float]:
        self.step(*self.setup)  # warm-up: bytecode cache and page cache
        return [self.step(*self.setup).wall_s for _ in range(SETUP_RUNS)]

    def passes(self, seconds: float) -> list[list[Invocation]]:
        """Whole passes until the next one would end past ``seconds`` (at least two)."""
        done: list[list[Invocation]] = []
        deadline = time.perf_counter() + seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            done.append([self.step(*step) for step in self.steps])
            longest = max(longest, time.perf_counter() - start)
            if len(done) >= 2 and time.perf_counter() + longest > deadline:
                return done

    def traced_replay(self) -> dict | None:
        out = os.path.join(self.work, "traced")

        def pass_argvs(workers):
            return [self.argv(sub, config, os.path.join(out, sub), workers)
                    for sub, config, _ in self.steps]

        # The first in-process pass pays one-off costs (lazy imports, first
        # allocations) and is discarded.  Untraced and traced pooled passes
        # then run in the order A B B A, so a steady drift in machine speed
        # cancels out of the tracing overhead.
        plan = {"src": os.path.join(ROOT, "src"), "cwd": self.work, "passes": [
            {"id": pass_id, "traced": traced, "argvs": pass_argvs(workers)}
            for pass_id, traced, workers in [
                ("warm-up", False, WORKERS), ("plain-1", False, WORKERS),
                ("pooled", True, WORKERS), ("pooled-2", True, WORKERS),
                ("plain-2", False, WORKERS), ("serial", True, 1)]
        ]}
        plan_path = os.path.join(self.work, "plan.json")
        result_path = os.path.join(self.work, "trace.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        inv = invoke([sys.executable, os.path.join(HERE, "tracer.py"), plan_path, result_path],
                     self.work, self.env, os.path.join(self.work, "stderr.txt"))
        self.attempted += 1
        if inv.exit_code != 0:
            self.failed += 1
            self.problems.append(f"traced replay: exit code {inv.exit_code}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        codes = {pass_id: info["exit_codes"] for pass_id, info in result["passes"].items()}
        if any(code != 0 for c in codes.values() for code in c):
            self.failed += 1
            self.problems.append(f"traced replay: exit codes {codes}")
        return result


# --------------------------------------------------------------------------
# metrics


def end_to_end(bench: Bench, setup: list[float], done: list[list[Invocation]]) -> dict:
    walls = [sum(inv.wall_s for inv in p) for p in done]
    out = {
        "wall_s": stats.median(walls),
        "peak_rss_mb": stats.median([max(inv.maxrss_mb for inv in p) for p in done]),
        "setup_s": stats.median(setup),
    }
    for i, (sub, _, _) in enumerate(bench.steps):
        out[f"{sub}.wall_s"] = stats.median([p[i].wall_s for p in done])
    return out


def per_layer(untraced: list[list[Invocation]], result: dict) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's self time (serial traced pass)."""
    spans = [tracer.Span(*row) for row in result["spans"]]
    passes = result["passes"]
    serial = tracer.aggregate(spans, "serial")
    unused = {"calls": 0, "self_s": 0.0}
    pooled = tracer.aggregate(spans, "pooled")
    counts = defaultdict(float, passes["serial"]["counts"])
    walls = [sum(inv.wall_s for inv in p) for p in untraced]
    cpus = [sum(inv.cpu_s for inv in p) for p in untraced]
    builds = serial.get("dephasing_hamiltonian", unused)["calls"]
    points_s = serial.get("decoherence_factor", unused)["self_s"]
    out = {
        "cli.import_s": result["import_s"],
        "cli.out_rows": counts["cli.out_rows"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "cli.pool.starts": passes["pooled"]["counts"].get("cli.pool.starts", 0),
        "cli.pool.s": pooled.get("cli.pool", {}).get("total_s", 0.0),
        "cli.cpu_s": stats.median(cpus),
        "cli.cpu_per_wall": stats.median([c / w for c, w in zip(cpus, walls)]),
        "decoherence_factor.points": counts["decoherence_factor.points"],
        "decoherence_factor.points_per_s":
            counts["decoherence_factor.points"] / points_s if points_s else 0.0,
        "oracle.hamiltonian_reuse": passes["serial"]["distinct"].get(
            "oracle.hamiltonian_sets", 0) / builds if builds else 0.0,
        "pointer.dense_amps": counts["pointer.dense_amps"],
        "StateVector.amps": counts["StateVector.amps"],
        "DensityMatrix.eig_work": counts["DensityMatrix.eig_work"],
        "KrausSet.ops": counts["KrausSet.ops"],
        "fock.coherent_bytes": counts["fock.coherent_bytes"],
        "trace.overhead": sum(passes[k]["wall_s"] for k in ("pooled", "pooled-2"))
        / sum(passes[k]["wall_s"] for k in ("plain-1", "plain-2")),
    }
    layers = defaultdict(float)
    for name, layer in result["layer_of"].items():
        row = serial.get(name, unused)
        out[f"{name}.calls"], out[f"{name}.self_s"] = row["calls"], row["self_s"]
        layers[layer] += row["self_s"]
    out.update((f"layer.{layer}.self_s", value) for layer, value in layers.items())
    return out, dict(layers)


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
        "cli_workers": WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store output digests at seed {DEFAULT_SEED} in reference.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "decolab", "cli.py")):
        print(f"no decolab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("environment " + json.dumps(environment(), sort_keys=True))
    results = {name: run_workload(name, args, spec) for name in names}
    if args.workload == "all":
        metrics = {f"{name}.{metric}": value for name, (_, _, _, got) in results.items()
                   for metric, value in got.items()}
    else:
        metrics = results[args.workload][3]
    correct = all(r[0] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r[1] for r in results.values()),
                      "failed": sum(r[2] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_workload(workload: str, args, spec: dict) -> tuple[bool, int, int, dict]:
    """Run and report one workload; returns (correct, attempted, failed, metrics)."""
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    try:
        bench = Bench(workload, args.seed, work, args.write_reference)
        setup = [] if args.trace else bench.setup_times()
        done = bench.passes(args.seconds)
        result = bench.traced_replay() if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    walls = [sum(inv.wall_s for inv in p) for p in done]
    tail = stats.tail_percentile(walls)
    print(f"passes {len(done)}: " + " ".join(f"{w:.4f}" for w in walls) + " s; tail percentile "
          + ("none (fewer than 10 passes beyond the median)" if tail is None
             else f"p{tail[0]:g} = {tail[1]:.4f} s"))
    print("pass cpu: " + " ".join(f"{sum(inv.cpu_s for inv in p):.4f}" for p in done) + " s")
    available, wanted = {}, []
    if result is not None:
        available, layers = per_layer(done, result)
        wanted = spec["per_layer"]
        total = sum(layers.values()) or 1.0
        print("self time by layer (serial traced pass): " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / total:.1f}%)"
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    elif not args.trace:
        available = end_to_end(bench, setup, done)
        wanted = spec["end_to_end"] + [
            {"name": f"{sub}.wall_s", "unit": "s"} for sub, _, _ in bench.steps]
    for m in wanted:
        print(f"{m['name']} {available[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio {bench.failed / bench.attempted:.6g} ({bench.failed} failed of "
          f"{bench.attempted} invocations)")
    for problem in bench.problems:
        print(f"FAIL {problem}")
    if args.write_reference:
        reference = {}
        if os.path.isfile(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)
        reference[workload] = bench.digests
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(available[m["name"]]), "unit": m["unit"]}
               for m in section} if available else {}
    return not bench.problems and bool(available), bench.attempted, bench.failed, metrics


if __name__ == "__main__":
    sys.exit(main())
