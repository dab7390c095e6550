"""ppchars benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The run first sets the workload up at least MIN_SETUPS times, and
more while they add up to under SETUP_BUDGET_S, each in a fresh
interpreter (start, `import ppchars`, write the seeded input files), then
runs passes over the workload's items, each pass in a fresh interpreter,
one item after another (a closed loop with one client).  Passes continue
while the next one is expected to end within S seconds; at least one
pass always runs.  Every item's exit code and answer are checked against
`expected.json`.

Every reported time is taken to a reference host speed by hostspeed.py,
from unit timings made in the same process as the work: during the pass,
or during and just around the set-up work.  The unscaled pass times are
printed as well.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run alternates untraced and traced passes and carries the
per-layer metrics instead.  Lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
PASSRUN = os.path.join(HERE, "passrun.py")
WORK = os.path.join(HERE, ".work")

MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> tuple[float, str]:
    """Run passrun.py in a fresh interpreter; returns its wall time and
    its stdout."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, PASSRUN, *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"passrun {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return elapsed, proc.stdout


def setup(workload: str, seed: int, input_dir: str) -> float:
    """One set-up, timed by this process, less the child's own unit
    timings, and taken to the reference host by their scale factor."""
    elapsed, stdout = run_child(["setup", workload, str(seed), input_dir])
    units = json.loads(stdout)
    return (elapsed - units["unit_s"]) * units["scale"]


def one_pass(workload, seed, input_dir, out_path, trace=False) -> dict:
    args = ["pass", workload, str(seed), input_dir, EXPECTED, out_path]
    run_child(args + (["--trace"] if trace else []))
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    TAIL_BEYOND samples beyond it; with too few samples for that, the
    maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure(workload, seed, seconds, trace, work_dir):
    input_dir = os.path.join(work_dir, "inputs")
    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S
                                       and len(setups) < MAX_SETUPS):
        setups.append(setup(workload, seed, input_dir))
    plain, traced = [], []
    start = time.monotonic()
    while True:
        kinds = (False, True) if trace else (False,)
        for kind in kinds:
            out_path = os.path.join(work_dir, f"pass-{len(plain) + len(traced)}.json")
            result = one_pass(workload, seed, input_dir, out_path, kind)
            (traced if kind else plain).append(result)
        elapsed = time.monotonic() - start
        round_s = elapsed / len(plain)
        if elapsed + round_s > seconds:
            return setups, plain, traced


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def end_to_end(setups, plain):
    pass_times = [p["pass_s"] * p["scale"] for p in plain]
    tail_value, percentile, samples = tail(pass_times)
    metrics = {
        "wall_s": median_metric(pass_times, "s"),
        "wall_s_tail": {"value": tail_value, "unit": "s"},
        "setup_s": median_metric(setups, "s"),
        "peak_rss_mb": median_metric([p["maxrss_kb"] / 1024 for p in plain], "MB"),
    }
    notes = [
        f"wall_s_tail is p{percentile:.0f} of {samples} passes",
        "passes, unscaled s x host scale: "
        + ", ".join(f"{p['pass_s']:.3f} x {p['scale']:.3f}" for p in plain),
    ]
    return metrics, notes


def per_layer(plain, traced):
    from layertrace import layer_metrics

    per_pass = []
    for p in traced:
        per_pass.append({
            name: (value * p["scale"] if unit == "s" else value, unit)
            for name, (value, unit) in layer_metrics(p["trace"]).items()
        })
    metrics = {
        name: median_metric([m[name][0] for m in per_pass], unit)
        for name, (_, unit) in per_pass[0].items()
    }
    untraced = statistics.median(p["pass_s"] * p["scale"] for p in plain)
    traced_s = statistics.median(p["pass_s"] * p["scale"] for p in traced)
    metrics["trace.overhead_frac"] = {
        "value": (traced_s - untraced) / untraced, "unit": "frac"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ppchars", "__init__.py")):
        print(f"error: no ppchars sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    items = [item for p in plain + traced for item in p["items"]]
    failures = [item for item in items if item["error"]]
    for item in failures:
        print(f"FAILED {item['id']}: {item['error']}")
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics, notes = end_to_end(setups, plain)
        print("\n".join(notes))
    print(f"failed_frac = {len(failures) / len(items)!r} "
          f"({len(failures)} of {len(items)} items)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
