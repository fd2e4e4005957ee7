"""continuumsim benchmark: one workload, end-to-end or per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload local --seed 7 --seconds 10 --trace 0

With ``--trace 0`` it measures passes of the workload for ``--seconds`` and
reports the end-to-end metrics. With ``--trace 1`` it makes one untraced pass,
then traced passes (at least two) for ``--seconds``, then the isolated
per-unit timings, and reports the per-layer metrics. Every pass is checked
(see ``passes.py``). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Times are on the speed-scaled clock of
``clock.py``. Spans of the last traced pass and a full report go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
MIN_TRACED_PASSES = 2


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, in
    the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# A fresh interpreter imports the CLI and builds the workload's configs; the
# import and build are timed on their own and speed-scaled like the passes.
SETUP_PROBE = """
import sys, time
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import clock, workloads
before = clock.speed_scale(5)
start = time.perf_counter()
import continuumsim.cli
workloads.expected_runs(name, seed)
elapsed = time.perf_counter() - start
print(elapsed * (before + clock.speed_scale(5)) / 2)
"""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(ROOT), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure_end_to_end(name: str, seed: int, seconds: float, report: dict) -> dict:
    from clock import SpeedClock
    from passes import OutputChecker, run_pass

    setup = measure_setup(name, seed)
    checker = OutputChecker(name, seed)
    results = []
    with SpeedClock() as clock:
        deadline = time.monotonic() + seconds
        rss_before = max_rss_kib()
        while not results or time.monotonic() < deadline:
            result = run_pass(name, seed, OUT / name, clock.now)
            if not results:
                peak_rss_mb = (max_rss_kib() - rss_before) / 1024.0
            checker.check(result)
            results.append(result)
        report["clock_probes"] = clock.probes

    samples = {"wall_s": [r.wall_s for r in results], "setup_s": setup}
    for transport in ("blocking", "pubsub"):
        per_pass = [r.per_transport(transport) for r in results]
        samples[f"{transport}_images_per_s"] = [i / s for i, _m, s in per_pass if s > 0]
        samples[f"{transport}_msgs_per_s"] = [m / s for _i, m, s in per_pass if s > 0 and m]
    report["pinned_seed"] = checker.pinned
    report["passes"] = len(results)
    report["samples"] = samples
    metrics = {name_: statistics.median(values) for name_, values in samples.items() if values}
    metrics["peak_rss_mb"] = peak_rss_mb
    for name_, values in samples.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"{name_:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        else:
            print(f"{name_:28s} n/a (the workload has no such runs)")
    print(f"{'peak_rss_mb':28s} {peak_rss_mb:.6g} (added by the first pass)")
    return {"results": results, "metrics": metrics, "errors": []}


def measure_per_layer(name: str, seed: int, seconds: float, report: dict) -> dict:
    from clock import SpeedClock
    from passes import OutputChecker, run_pass
    from tracer import Tracer
    import layers
    import units

    checker = OutputChecker(name, seed)
    errors = []
    per_pass = []
    with SpeedClock() as clock:
        base = run_pass(name, seed, OUT / name, clock.now)
        checker.check(base)
        results = [base]
        deadline = time.monotonic() + seconds
        tracer = None
        while len(per_pass) < MIN_TRACED_PASSES or time.monotonic() < deadline:
            tracer = None  # free the previous pass's spans before the next pass
            with Tracer(clock.now) as tracer:
                result = run_pass(name, seed, OUT / name, clock.now)
            checker.check(result)
            results.append(result)
            summary = tracer.summary()
            errors.extend(layers.check_self_times(summary, result))
            per_pass.append(layers.layer_metrics(summary, result))
        unit_metrics = units.measure(clock.now, seed)

    metrics = layers.combine(per_pass, base, errors)
    metrics.update(unit_metrics)
    spans_path = OUT / f"spans-{name}.csv"
    report["spans"] = tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["pinned_seed"] = checker.pinned
    report["traced_passes"] = len(per_pass)
    report["per_pass"] = per_pass
    leaks = [r.threads_leaked for r in results]
    if any(leaks):
        print(f"threads left alive by each pass: {leaks}")
    for name_, unit in metric_units("per_layer").items():
        print(f"{name_:36s} {metrics[name_]:.6g} {unit}")
    return {"results": results, "metrics": metrics, "errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "continuumsim" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # One core for the whole run: the clock's probe then measures the core
    # that every thread of the pass runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seed = args.seed % 2**64
    report = {"workload": args.workload, "seed": seed, "trace": args.trace}
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    measure = measure_per_layer if args.trace else measure_end_to_end
    outcome = measure(args.workload, seed, args.seconds, report)

    results = outcome["results"]
    errors = list(outcome["errors"])
    for result in results:
        errors.extend(result.errors)
        errors.extend(f"{run.expected.out_dir}: {e}" for run in result.runs for e in run.errors)
    attempted = sum(len(r.runs) for r in results)
    failed = sum(r.failed for r in results)
    print(f"scenario runs {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}  "
          f"pinned seed {report['pinned_seed']}")
    for error in sorted(set(errors)):
        print(f"check failed: {error}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    line = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    report.update(result_line=line, errors=sorted(set(errors)))
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
