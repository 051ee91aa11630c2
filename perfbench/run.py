"""Benchmark `dnsflow run` and `dnsflow verify` end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh single-threaded Python process
(perfbench/child.py), one after another, until S seconds of measuring
have passed and enough steps are pooled for the tail percentile. Every
command's outputs are checked; a command that exits non-zero or fails a
check counts as failed.

--trace 0 reports the end-to-end metrics, medians over the commands:
wall_s, setup_s (process start to the first dns_step entry), step_ms_p50
and step_ms_tail over the pooled step intervals, post_s (run returning
to exit) and peak_rss_mb. --trace 1 runs traced commands and reports the
per-layer metrics of perfbench/layers.py and trace.overhead_s (the
wrapper and hook cost each traced command measures of itself), medians
over the commands. Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (machine, seed,
every sample, output-check values) goes to
.perfbench_out/results/<workload>-seed<N>-trace<T>-<stamp>.json, and a
traced run writes its spans to .perfbench_out/spans/. Compare two
result sets with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import layer_metrics
from workloads import WORKLOADS, Workload, check_outputs, prepare

perf_counter = time.perf_counter
STARTED = perf_counter()

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SPEC = Path("BENCHMARK.json")
MIN_COMMANDS = 3          # untraced commands in a --trace 0 run
MIN_TRACED = 2            # traced commands in a --trace 1 run
MAX_ATTEMPTS = 60
HARD_LIMIT_S = 120.0      # start no command after this long
KILL_AFTER_S = 170.0      # kill a command still running this long after start


def machine_record() -> dict:
    import numpy

    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DNS_FLOW_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"))
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; returns (exit code, start, end, max RSS MB).

    The child is reaped with wait4 so that its own peak RSS is read; a
    timer kills it if it is still running KILL_AFTER_S after this
    benchmark process started, so that the benchmark ends in time.
    """
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, STARTED + KILL_AFTER_S - start),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def step_intervals(steps: list[float], returns: list[float]) -> list[float]:
    """A step runs from its dns_step entry to the next entry, or to the
    return of its run for the last step of that run."""
    events = sorted([(t, 0) for t in steps] + [(t, 1) for t in returns])
    return [events[k + 1][0] - t for k, (t, kind) in enumerate(events[:-1])
            if kind == 0]


class Bench:
    def __init__(self, root: Path, w: Workload, seed: int, stamp: str):
        self.root = root
        self.w = w
        self.seed = seed
        self.work = OUT / "work" / f"{w.name}-{os.getpid()}"
        self.env = child_env(root)
        self.stamp = stamp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict = {}
        self.samples = {"untraced": [], "traced": []}
        self.spans: list[dict] = []

    def setup(self) -> None:
        """Inputs from the seed, then one import to fill the bytecode and
        file caches; all outside the timed region."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.cfg = prepare(self.w, self.work, self.seed).resolve()
        code, *_ = spawn([sys.executable, "-c", "import dnsflow.cli"],
                         self.env, self.work / "warmup.log")
        if code != 0:
            raise SystemExit(f"perfbench: cannot import dnsflow from "
                             f"{self.root / 'src'} (see {self.work}/warmup.log)")

    def command(self, traced: bool) -> None:
        k = self.attempted
        self.attempted += 1
        out = self.work / f"out{k}"
        record = self.work / f"record{k}.json"
        run_id = f"{self.w.name}-s{self.seed}-{self.stamp}-{k}"
        argv = [sys.executable, str(HERE / "child.py"),
                "--trace", "1" if traced else "0", "--record", str(record),
                "--run-id", run_id, "--",
                self.w.command, "--config", str(self.cfg), "--out", str(out),
                "--threads", "1", "--seed", str(self.seed)]
        code, start, end, rss = spawn(argv, self.env, self.work / f"log{k}.txt")
        try:
            problems, seen = check_outputs(self.w, out, code)
            rec = json.loads(record.read_text()) if code == 0 else {}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, seen, rec = [f"unreadable output: {exc!r}"], {}, {}
        src = str((self.root / "src").resolve())
        if rec and not rec.get("dnsflow_file", "").startswith(src):
            problems.append(f"imported dnsflow from {rec.get('dnsflow_file')}")
        if problems:
            self.failed += 1
            self.problems += [f"{run_id}: {p}" for p in problems]
            print(f"perfbench: {run_id} failed: {'; '.join(problems)} "
                  f"(log kept in {self.work})", file=sys.stderr)
            return
        for key, value in seen.items():
            self.observed.setdefault(key, []).append(value)
        sample = {"wall_s": end - start, "peak_rss_mb": rss}
        if traced:
            sample["layers"] = layer_metrics(rec["spans"])
            sample["layers"]["trace.overhead_s"] = rec["overhead_s"]
            self.spans += rec["spans"]
        else:
            sample["setup_s"] = rec["steps"][0] - start
            sample["post_s"] = end - rec["run_returns"][-1]
            sample["steps_s"] = step_intervals(rec["steps"], rec["run_returns"])
        self.samples["traced" if traced else "untraced"].append(sample)
        shutil.rmtree(out, ignore_errors=True)
        record.unlink()

    def measure(self, seconds: float, trace: bool) -> None:
        begin = perf_counter()
        walls: list[float] = []
        kept = self.samples["traced" if trace else "untraced"]
        while self.attempted < MAX_ATTEMPTS:
            t0 = perf_counter()
            self.command(trace)
            walls.append(perf_counter() - t0)
            now = perf_counter()
            if now - STARTED > HARD_LIMIT_S:
                break
            if trace:
                short = len(kept) < MIN_TRACED
            else:
                short = (len(kept) < MIN_COMMANDS
                         or sum(len(s["steps_s"]) for s in kept)
                         < self.w.min_steps)
            if self.failed >= MIN_COMMANDS and not kept:
                break
            if not short and now - begin + statistics.median(walls) > seconds:
                break

    def end_to_end(self) -> tuple[dict[str, float], dict]:
        import numpy as np

        runs = self.samples["untraced"]
        pooled = [t for s in runs for t in s["steps_s"]]
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in runs),
            "setup_s": statistics.median(s["setup_s"] for s in runs),
            "step_ms_p50": 1e3 * statistics.median(pooled),
            "step_ms_tail": 1e3 * float(np.percentile(pooled, self.w.tail_pct)),
            "post_s": statistics.median(s["post_s"] for s in runs),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs),
        }
        beyond = sum(t > metrics["step_ms_tail"] / 1e3 for t in pooled)
        info = {"tail_percentile": self.w.tail_pct, "steps_pooled": len(pooled),
                "steps_beyond_tail": beyond, "commands": len(runs)}
        return metrics, info

    def per_layer(self) -> tuple[dict[str, float], dict]:
        traced = self.samples["traced"]
        metrics = {n: statistics.median(s["layers"][n] for s in traced)
                   for n in traced[0]["layers"]}
        return metrics, {"traced_commands": len(traced)}

    def write_spans(self) -> Path:
        path = OUT / "spans" / f"{self.w.name}-seed{self.seed}-{self.stamp}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dnsflow" / "cli.py").is_file():
        print("perfbench: run from the root of a dnsflow checkout "
              "(src/dnsflow/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(x["why"] for x in spec["workloads"] if x["name"] == args.workload)

    w = WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    bench = Bench(root, w, args.seed, stamp)
    t0 = perf_counter()
    bench.setup()
    bench_setup_s = perf_counter() - t0
    bench.measure(args.seconds, bool(args.trace))

    if not bench.samples["traced" if args.trace else "untraced"]:
        print(f"perfbench: every command of {w.name} failed", file=sys.stderr)
        for p in bench.problems[:10]:
            print(f"  {p}", file=sys.stderr)
        return 1
    if args.trace:
        values, info = bench.per_layer()
        info["spans_file"] = str(bench.write_spans())
    else:
        values, info = bench.end_to_end()
    if values.keys() != units.keys():
        print(f"perfbench: metrics {sorted(values.keys() ^ units.keys())} are "
              f"not both measured and listed in {SPEC}", file=sys.stderr)
        return 1
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record = {
        "workload": w.name, "seed": args.seed, "seeds_matter": w.seeded,
        "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
        "why": why, "lead": w.lead, "flat": list(w.flat),
        "fail_frac": bench.failed / bench.attempted,
        "bench_setup_s": bench_setup_s, "machine": machine_record(),
        "child_env": {k: bench.env.get(k) for k in
                      ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                       "MKL_NUM_THREADS", "DNS_FLOW_THREADS", "PYTHONHASHSEED")},
        "observed": bench.observed, "problems": bench.problems,
        "info": info, "samples": bench.samples, "result": result,
    }
    path = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    if not bench.problems:
        shutil.rmtree(bench.work, ignore_errors=True)

    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          f"fail_frac={record['fail_frac']:.3g} {json.dumps(info)}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# record {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
