"""One workload of the benchmark, run in a process of its own.

``run.py`` starts this file with ``PYTHONPATH=src`` and the BLAS/OpenMP
thread counts pinned to 1. It prints one JSON object as its last stdout
line. With ``--setup-probe`` it only imports meshrates, runs the
workload's first unit and prints how long that took.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fig3_p0db", "fig3_p10db", "fig4_p3db", "fig5_p10db")
RATE_COLUMNS = {"single_rate", "rate_splitting", "coop", "mcp", "first_hop_bound"}
GOLDEN_TOL = 1e-9
CHECK_TOL = 1e-12
REGION_UNITS = 400  # seeded draws of the regions workload
MIN_PASSES = 3
REF_S = 0.005  # the reference kernel's time on the baseline machine, see reference()
SAMPLE_S = 0.25  # period of the reference runs inside a long unit
SETUP_REFS = 5
CPUS = sorted(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Each workload is a fixed list of units, run in passes. ``run(i)`` is the
# timed call into meshrates; ``check(i, result)`` is the untimed correctness
# check and returns (attempted, failed, reasons). ``nominal_pass_s`` is a
# pass's length on the baseline machine; it fixes the number of passes.
# ``chunk`` units run between two runs of the reference kernel.
# ---------------------------------------------------------------------------

def _sweep_points(config: Path) -> list[float]:
    """The swept values of a config's ``range=start:stop:step``, computed as
    ``sweep`` computes them, so that a one-point sweep at each value gives
    the same row as the full sweep."""
    text = next(line.split("=", 1)[1].strip() for line in config.read_text().splitlines()
                if line.strip().startswith("range="))
    start, stop, step = (float(part) for part in text.split(":"))
    values = []
    while (v := start + len(values) * step) <= stop + step / 2.0:
        values.append(min(v, stop))
    return values


class Figures:
    """The four checked-in sweeps through the CLI, compared with out/.

    Unit k is the k-th point of every sweep: one ``sweep`` call per config
    with a one-point ``--range``. The CSVs go to the scratch directory,
    never into out/.
    """

    nominal_pass_s = 5.0
    chunk = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.points = {name: _sweep_points(ROOT / "configs" / f"{name}.cfg") for name in CONFIGS}
        self.golden = {name: _read_csv(ROOT / "out" / f"{name}.csv") for name in CONFIGS}
        self.units = max(len(points) for points in self.points.values())

    def run(self, k: int) -> dict[str, int]:
        from meshrates import cli

        codes = {}
        for name, points in self.points.items():
            if k < len(points):
                v = repr(points[k])
                codes[name] = cli.main(["sweep", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                                        "--range", f"{v}:{v}:1",
                                        "--output", str(self.scratch / f"{name}.csv")])
        return codes

    def check(self, k: int, codes: dict[str, int]) -> tuple[int, int, list[str]]:
        """Header equal, swept value and bottleneck labels equal, rates within
        GOLDEN_TOL. Split fractions are not compared: an exact optimizer may
        move them without changing any rate."""
        failed = []
        for name, code in codes.items():
            header, want = self.golden[name][0], self.golden[name][k + 1]
            if code != 0:
                failed.append(f"{name} point {k}: sweep exited {code}")
                continue
            fresh = _read_csv(self.scratch / f"{name}.csv")
            if fresh[0] != header or len(fresh) != 2 or not _row_matches(header, want, fresh[1]):
                failed.append(f"{name} point {k}: {fresh[1:]} != {want}")
        return len(codes), len(failed), failed


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _row_matches(header: list[str], want: list[str], got: list[str]) -> bool:
    if len(got) != len(want) or got[0] != want[0]:
        return False
    for column, w, g in zip(header[1:], want[1:], got[1:]):
        if column.endswith("_bottleneck") and g != w:
            return False
        if column in RATE_COLUMNS and not abs(float(g) - float(w)) <= GOLDEN_TOL:
            return False
    return True


class Regions:
    """Seeded region requests: builds, vertex dumps and max-sum LPs.

    Draws: gains on [0.2, 2.5]; cross gains up to the direct ones, except
    every fourth draw, where both lie between once and twice the direct
    ones (outside the paper regime); powers log-uniform on [0.05, 20];
    split fractions uniform on [0, 1].
    """

    nominal_pass_s = 1.8
    chunk = 8

    def __init__(self, seed: int, scratch: Path) -> None:
        import numpy as np
        from meshrates import NetworkParams

        rng = np.random.default_rng(seed)
        self.draws = []
        for i in range(REGION_UNITS):
            low = 1.0 if i % 4 == 3 else 0.0
            beta2 = float(rng.uniform(0.2, 2.5))
            gamma2 = float(rng.uniform(0.2, 2.5))
            params = NetworkParams(
                alpha2=float(rng.uniform(low * beta2, (1.0 + low) * beta2)),
                beta2=beta2,
                gamma2=gamma2,
                eta2=float(rng.uniform(low * gamma2, (1.0 + low) * gamma2)),
                p1=math.exp(rng.uniform(math.log(0.05), math.log(20.0))),
                p2=math.exp(rng.uniform(math.log(0.05), math.log(20.0))),
            )
            self.draws.append((params, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))))
        self.units = len(self.draws)

    def run(self, i: int):
        import meshrates as mr

        params, f1, f2 = self.draws[i]
        s1, s2 = mr.HopSplit(f1), mr.HopSplit(f2)
        hop1 = mr.hop1_region(params, s1)
        coop = mr.hop2_coop_region(params, s2)
        mcp = mr.hop2_mcp_region(params, s2)
        regions = (hop1, mr.hop2_rs_region(params, s2), coop, mcp)
        vertices = [mr.vertices(r) for r in regions]
        lps = [mr.max_sum_rate(r) for r in regions]
        joint = [((0, 2), mr.max_sum_rate(hop1, coop)), ((0, 3), mr.max_sum_rate(hop1, mcp))]
        return regions, vertices, lps, joint

    @staticmethod
    def check(i: int, out) -> tuple[int, int, list[str]]:
        import meshrates as mr

        regions, vertices, lps, joint = out
        found = []
        for region, verts, lp in zip(regions, vertices, lps):
            best = max(v.r_private + v.r_common for v in verts)
            if lp.value < best - CHECK_TOL:
                found.append(f"{region.short_name}: LP {lp.value!r} below vertex sum {best!r}")
            if not mr.contains(region, lp.point):
                found.append(f"{region.short_name}: LP point infeasible")
        for pair, lp in joint:
            for j in pair:
                name = regions[j].short_name
                if not mr.contains(regions[j], lp.point):
                    found.append(f"{name}: joint LP point infeasible")
                if lp.value > lps[j].value + CHECK_TOL:
                    found.append(f"joint LP {lp.value!r} above {name} max {lps[j].value!r}")
        bounds = {(h.coef_private, h.coef_common): h.bound for h in regions[3].halfspaces}
        if bounds[(1, 1)] < max(bounds[(1, 0)], bounds[(0, 1)]) - CHECK_TOL:
            found.append(f"mcp sum bound below a single bound: {bounds}")
        return 1, 1 if found else 0, [f"draw {i}: {f}" for f in found]


class Verify:
    """The oracle suite at the seed, one check per unit.

    ``oracle.run_suite`` is ``[check(seed) for check in _CHECKS]`` plus a
    name filter; calling the checks one by one is the same work, timed per
    check. ``_CHECKS`` is looked up on every call, so the traced passes run
    the wrapped checks.
    """

    nominal_pass_s = 5.5
    chunk = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        from meshrates import oracle

        self.seed = seed
        self.units = len(oracle._CHECKS)

    def run(self, i: int):
        from meshrates import oracle

        return oracle._CHECKS[i](self.seed)

    @staticmethod
    def check(i: int, report) -> tuple[int, int, list[str]]:
        return 1, 0 if report.passed else 1, [] if report.passed else [report.line()]


# ---------------------------------------------------------------------------
# measuring loops
# ---------------------------------------------------------------------------

def reference() -> float:
    """Seconds taken by a fixed piece of work outside meshrates: interpreted
    float arithmetic and small numpy calls, the mix meshrates itself runs.

    Other tenants share the cores of the machine the bounds were set on,
    and it runs the same code up to twice as slowly for seconds to minutes
    at a time, on both vCPUs at once. Dividing a unit's time by the time
    of this kernel run next to it takes that factor out: across the
    six-second windows of one minute, the median of the ratio moved by 2%
    where the plain median moved by 15%.
    """
    import numpy as np

    gains = np.linspace(0.1, 1.0, 64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        x = 0.5 * i
        acc += math.log1p(x) / (1.0 + x)
    for i in range(800):
        acc += float(np.sum(np.log2(1.0 + gains * (i % 7))))
    return time.perf_counter() - start


def setup(name: str, seed: int, scratch: Path):
    """Import meshrates and run the workload's first unit once, as warm-up.
    Returns the seconds taken, that time scaled to the reference speed,
    and the workload."""
    start = time.perf_counter()
    from meshrates import cli  # noqa: F401  (cli pulls in click, as users pay)

    imported = time.perf_counter() - start
    workload = WORKLOADS[name](seed, scratch)
    start = time.perf_counter()
    result = workload.run(0)
    setup_s = imported + time.perf_counter() - start
    _, failed, reasons = workload.check(0, result)
    if failed:
        raise RuntimeError(f"warm-up unit failed: {reasons}")
    ref = statistics.median(reference() for _ in range(SETUP_REFS))
    return setup_s, setup_s * REF_S / ref, workload


class Sampler:
    """Runs the reference kernel every SAMPLE_S seconds while it is active,
    from a SIGALRM handler, so that a unit lasting seconds is scaled by the
    speed during it and not only by the speed at its ends. The handler's
    time is kept in ``paused`` and taken out of the unit's time."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(reference())
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        self.refs, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


class Outcome:
    def __init__(self, units: int) -> None:
        self.seconds: list[list[float]] = [[] for _ in range(units)]
        self.ratios: list[list[float]] = [[] for _ in range(units)]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run_unit(self, workload, i: int, sampler: Sampler | None = None) -> float | None:
        """Time unit ``i`` once and check its result; returns its seconds,
        or None if it raised."""
        start = time.perf_counter()
        try:
            result = workload.run(i)
        except Exception as exc:  # a failed unit counts; the run goes on
            self.attempted += 1
            self.failed += 1
            self.reasons.append(f"unit {i}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start - (sampler.paused if sampler else 0.0)
        self.seconds[i].append(seconds)
        attempted, failed, reasons = workload.check(i, result)
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)
        return seconds

    def unit_s(self) -> list[float]:
        """Each unit's median over passes of its time over the reference
        kernel's, times REF_S: its seconds at the reference speed."""
        return [REF_S * statistics.median(r) if r else math.inf for r in self.ratios]


def _pin(pass_index: int) -> None:
    """Run pass k on the k-th allowed CPU in turn, so that a unit and the
    reference runs around it share one CPU and both CPUs are sampled."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[pass_index % len(CPUS)]})


def passes_for(workload, seconds: float) -> int:
    """Passes in a run of ``seconds``. They follow from the workload's
    nominal pass time, not from how fast the code under test runs, so two
    versions of the code are measured over the same number of passes."""
    return max(MIN_PASSES, round(seconds / workload.nominal_pass_s))


def measure(workload, passes: int) -> Outcome:
    """Run ``passes`` passes over all units, ``chunk`` units at a time
    between two reference runs; each unit's ratio is its time over the
    mean of those two and of the reference runs sampled during the unit."""
    outcome = Outcome(workload.units)
    sampler = Sampler()
    for k in range(passes):
        _pin(k)
        before = reference()
        for first in range(0, workload.units, workload.chunk):
            times = []
            for i in range(first, min(first + workload.chunk, workload.units)):
                sampler.start()
                try:
                    times.append((i, outcome.run_unit(workload, i, sampler), sampler.refs))
                finally:
                    sampler.stop()
            after = reference()
            for i, seconds, during in times:
                if seconds is not None:
                    refs = [before, after, *during]
                    outcome.ratios[i].append(seconds * len(refs) / sum(refs))
            before = after
        outcome.passes += 1
    return outcome


def measure_traced(workload, passes: int, tracer) -> tuple[Outcome, float]:
    """Run each unit untraced and traced back to back, alternating which
    goes first, for ``passes`` passes.

    Returns the traced outcome (with the untraced failures added) and the
    tracing overhead: traced over untraced sum of per-unit best times,
    minus one. Both sides have the same number of tries per unit.
    """
    plain, traced = Outcome(workload.units), Outcome(workload.units)
    for k in range(passes):
        _pin(k)
        for i in range(workload.units):
            tracer.request += 1
            for outcome in (plain, traced) if (i + k) % 2 else (traced, plain):
                if outcome is traced:
                    tracer.install()
                try:
                    outcome.run_unit(workload, i)
                finally:
                    tracer.uninstall()
        traced.passes += 1
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.reasons += plain.reasons

    def total(outcome: Outcome) -> float:
        return sum(min(s, default=math.inf) for s in outcome.seconds)

    return traced, total(traced) / total(plain) - 1.0


WORKLOADS = {"figures": Figures, "regions": Regions, "verify": Verify}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True,
                        help="directory for scratch files and the traced run's spans")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=args.out_dir))
    try:
        wall_s, setup_s, workload = setup(args.workload, args.seed, scratch)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall_s}))
            return 0
        passes = passes_for(workload, args.seconds)
        result = {}
        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            outcome, overhead = measure_traced(workload, max(1, passes // 2), tracer)
            result["layers"] = layer_metrics(tracer, outcome.passes)
            result["layers"]["trace.overhead_frac"] = overhead
            unreached = tracer.unreached(args.workload)
            outcome.attempted += len(unreached)
            outcome.failed += len(unreached)
            outcome.reasons += [f"{name} was never reached" for name in unreached]
            result["absent"] = tracer.absent
            tracer.write_spans(args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            outcome = measure(workload, passes)
            result["unit_s"] = outcome.unit_s()
        result.update(
            unit_wall_s=[statistics.median(s) if s else math.inf for s in outcome.seconds],
            passes=outcome.passes,
            cpus=CPUS,
            attempted=outcome.attempted,
            failed=outcome.failed,
            reasons=outcome.reasons[:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
