#!/usr/bin/env python3
"""Benchmark of meshrates: figure sweeps, region dumps and the oracle suite.

    python3 perfbench/run.py --workload figures|regions|verify|all \\
        [--seed 0] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in a fresh
single-threaded process (perfbench/workload.py) importing ``src/``; set-up
time is the median of SETUP_PROBES further fresh processes. Times are
scaled to a reference speed (see ``reference`` in workload.py). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). Scratch files, spans and run records go to ``bench_runs/``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / "bench_runs"
WORKLOADS = ("figures", "regions", "verify")
SETUP_PROBES = 7
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ["src/meshrates/__init__.py"] + [
    f"{d}/{name}.{ext}" for d, ext in (("configs", "cfg"), ("out", "csv"))
    for name in ("fig3_p0db", "fig3_p10db", "fig4_p3db", "fig5_p10db")]


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py with ``args``; returns the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload.py {' '.join(args)} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def version(name: str) -> str:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "click": version("click"), "commit": commit,
        "src_lines": src_lines, "threads_pinned": list(PINNED_THREADS),
    }


def bench(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One workload: set-up probes, then the measured child process."""
    OUT_DIR.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out-dir", str(OUT_DIR)]
    probes = [run_child(common + ["--setup-probe"], deadline)
              for _ in range(0 if trace else SETUP_PROBES)]
    child = run_child(common, deadline)
    result = {
        "record": run_record(workload, seed, seconds, trace) | {"cpus": child["cpus"]},
        "attempted": child["attempted"],
        "failed": child["failed"],
        "reasons": child["reasons"],
        "passes": child["passes"],
    }
    if trace:
        result["per_layer"] = child["layers"]
        result["record"]["absent"] = child["absent"]
        return result
    units = [s for s in child["unit_s"] if s != float("inf")]
    if len(units) < 2:
        raise BenchError(f"{workload}: fewer than two requests completed")
    wall = [s for s in child["unit_wall_s"] if s != float("inf")]
    result["wall"] = {
        "setup_s": statistics.median(p["setup_wall_s"] for p in probes),
        "pass_s": sum(wall),
        "request_ms_p50": 1000.0 * statistics.median(wall),
    }
    result["unit_s"] = units
    result["end_to_end"] = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "pass_s": (sum(units), "s"),
        "request_ms_p50": (1000.0 * statistics.median(units), "ms"),
        "request_ms_p90": (1000.0 * statistics.quantiles(units, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    return result


# What a request and a pass are on each workload.
MEANING = {
    "figures": "a request is one alpha2 point of all four sweeps; pass_s is figures_s",
    "regions": "a request is one seeded draw (region_ms_p50, region_ms_p90)",
    "verify": "a request is one oracle check; pass_s is verify_s",
}


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    rec = result["record"]
    print(f"# {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']}: {MEANING[rec['workload']]}; {result['passes']} passes")
    for metric, (value, unit) in result.get("end_to_end", {}).items():
        print(f"{metric:<22} {value:14.6f} {unit}")
    for metric, value in result.get("wall", {}).items():
        print(f"{metric + ' (wall)':<22} {value:14.6f} plain median, not scaled to reference speed")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'ops_failed_frac':<22} {frac:14.6f} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for reason in result["reasons"]:
        print(f"  failed: {reason}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"{metric:<40} {value:16.6f}")
    print("record: " + json.dumps(rec, sort_keys=True))


def contract_line(result: dict, trace: int, units: dict[str, str]) -> str:
    if trace:
        missing = sorted(set(units) - set(result["per_layer"]))
        if missing:
            raise BenchError(f"per-layer metrics not measured: {', '.join(missing)}")
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["end_to_end"].items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def summary(results: list[dict]) -> None:
    """The end-to-end metrics of all workloads under the names users know."""
    by_name = {r["record"]["workload"]: r["end_to_end"] for r in results}
    print("# summary")
    lines = [("figures_s", by_name["figures"]["pass_s"][0], "s"),
             ("region_ms_p50", by_name["regions"]["request_ms_p50"][0], "ms"),
             ("region_ms_p90", by_name["regions"]["request_ms_p90"][0], "ms"),
             ("verify_s", by_name["verify"]["pass_s"][0], "s")]
    for r in results:
        workload = r["record"]["workload"]
        lines += [(f"setup_s[{workload}]", r["end_to_end"]["setup_s"][0], "s"),
                  (f"peak_rss_mb[{workload}]", r["end_to_end"]["peak_rss_mb"][0], "MB"),
                  (f"ops_failed_frac[{workload}]", r["failed"] / r["attempted"],
                   f"failed/attempted of {r['attempted']}")]
    for name, value, unit in lines:
        print(f"{name:<26} {value:14.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length; sets the number of passes (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a meshrates checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    results = []
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            deadline = time.monotonic() + DEADLINE_S
            result = bench(workload, args.seed, args.seconds, args.trace, deadline)
            report(result)
            with open(OUT_DIR / f"record-{workload}-seed{args.seed}-trace{args.trace}.json",
                      "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            results.append(result)
        if args.workload == "all":
            if not args.trace:
                summary(results)
        else:
            print(contract_line(results[0], args.trace, units))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
