"""Benchmark for foldcob: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload {cli,surface,algebra} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout that has ``src/foldcob``.  With
``--trace 0`` the workload runs untraced for about ``--seconds`` seconds
and the result carries the end-to-end metrics; with ``--trace 1`` a
fixed, seed-determined slice of the workload runs once untraced and once
traced, and the result carries the per-layer metrics and the tracing
overhead.  Every output is checked; the result's ``failed`` counts the
operations with a failed check or an unexpected exit code, so
``failed / attempted`` is the failure fraction.

Lines before the last one give the environment, the share of repeated
inputs and every metric by name with its unit; the last line is the
JSON result.  Temporary files and span dumps go to ``.perfbench_work/``
in the checkout.  ``--size tiny`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_NOMINAL_S, Timings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# the metrics, their units and the workloads are those of BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Outcome:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reuse = []        # share of repeated inputs, one line each

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {'; '.join(problems)}")


def pct(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def schedule(shares, seconds, enough, timings):
    """Yield class names, interleaved so that each class gets its share of
    ``seconds`` of wall time spread over the whole run; stop once the time
    is used and ``enough()`` holds.  Probes the machine speed between
    calls, and once more at the end."""
    spent = dict.fromkeys(shares, 0.0)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not enough():
        timings.probe_if_due()
        name = min(shares, key=lambda c: spent[c] / shares[c])
        t = time.perf_counter()
        yield name
        spent[name] += time.perf_counter() - t
    timings.probe()


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L1i cache", "L2 cache",
                           "L3 cache"):
            env[key.strip()] = val.strip()
    return env


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_program():
    """Import foldcob from this checkout's sources, never from elsewhere."""
    if not (SRC / "foldcob" / "__init__.py").is_file():
        sys.exit(f"error: no foldcob sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import foldcob
    if Path(foldcob.__file__).resolve().parent != SRC / "foldcob":
        sys.exit(f"error: imported foldcob from {foldcob.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    load_program()
    WORK.mkdir(exist_ok=True)
    wl = importlib.import_module(f"wl_{args.workload}")

    timings = Timings()
    for _ in range(SETUP_REPEATS):
        timings.probe()
        item = timings.item()
        inputs = item.call("setup", wl.setup, args.seed, args.size)
        timings.add("setup", item)
    timings.probe()

    # the inputs live for the whole run: keep the collector from rescanning
    # them, so that its cost follows the program's allocations only
    gc.collect()
    gc.freeze()
    outcome = Outcome()
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(wl.trace(inputs, tracer, outcome))
        units = PER_LAYER
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json",
                     {"environment": environment()})
    else:
        values = wl.measure(inputs, args.seconds, outcome, timings)
        values["setup_s"] = statistics.median(timings.scaled("setup"))
        values["peak_rss_mb"] = peak_rss_mb(children=wl.CHILDREN_RSS)
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        sys.exit(f"error: workload did not measure {sorted(missing)}")

    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"speed: reference pass {timings.reference_ms():.3f} ms median, "
          f"timings scaled to {1000 * REF_NOMINAL_S:g} ms")
    for line in outcome.reuse:
        print("reuse:", line)
    for note in outcome.notes:
        print("FAILED", note, file=sys.stderr)
    print(f"fail_frac {outcome.failed / max(outcome.attempted, 1):.4f} "
          f"({outcome.failed}/{outcome.attempted})")
    aliases = {} if args.trace else wl.ALIASES
    for name, unit in units.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} {values[name]:.6g} {unit}{alias}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
