"""Workload ``cli``: one ``python -m foldcob.cli`` subprocess at a time.

A round is the fixed command mix of ``golden_cli.json`` (catalog list and
export, homology in every degree, hyper, suspension, identities), whose
stdout must match the recorded bytes, plus seeded commands on small graph
and diagram files and a few malformed documents that must exit 1 with a
single ``error:`` line.  Hyper and suspension, the slowest commands, run
twice per round.  Each subprocess is timed from spawn to exit.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import gen
from run import HERE, ROOT, SRC, WORK, Outcome, pct, schedule
from spans import Plain, durations, layer_metrics

CHILDREN_RSS = True
# what each end-to-end metric measures on this workload
ALIASES = {"p50_ms": "cli.cmd_p50_ms", "p90_ms": "cli.cmd_p90_ms",
           "small_per_s": "cli.light_cmds_per_s",
           "large_per_s": "cli.hyper_suspension_cmds_per_s"}
GOLDEN = HERE / "golden_cli.json"
HEAVY = ("hyper", "suspension")
# graph vertex range, least commands per measured run, commands traced
SIZES = {"full": ((40, 120), 100, None), "tiny": ((8, 16), 1, 12)}
INTERP_PROBES = 10


def _env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _compact(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [(argv, {"code": 0, "stdout": out}) for argv, out in json.load(fh)]


def _file_commands(rng, folder, size):
    """Seeded graph and diagram commands, with the expected result of each."""
    lo, hi = SIZES[size][0]
    cases = [gen.reeb_case(rng, n, ori) for n, ori in
             zip(gen.stratified_sizes(rng, lo, hi, 4, strata=4),
                 (True, True, False, False))]
    paths = []
    for i, case in enumerate(cases):
        paths.append(folder / f"graph{i}.json")
        paths[-1].write_text(json.dumps(case.doc))
        mode = "WITH_BOUNDARY" if i == 1 else "CLOSED"
        (folder / f"diagram{i}.json").write_text(
            json.dumps({**case.diagram, "mode": mode}))

    def zw(case, oriented):
        return {"z": case.z} if oriented else {"w": case.w, "z": case.z}

    cmds = []
    for i, category in ((0, "oriented"), (1, "simple_oriented"),
                        (2, "unoriented"), (3, "simple_unoriented"),
                        (0, "unoriented")):
        cmds.append((["invariants", "--in", str(paths[i]), "--category", category],
                     {"code": 0, "stdout": _compact(zw(cases[i], "un" not in category))}))
    for i, category in ((1, "oriented"), (3, "unoriented")):
        cmds.append((["reduce", "--in", str(paths[i]), "--category", category],
                     {"code": 0, "reduce": (cases[i], category)}))
    for a, b, category in ((0, 1, "oriented"), (2, 3, "unoriented")):
        oriented = category == "oriented"
        same = zw(cases[a], oriented) == zw(cases[b], oriented)
        cmds.append((["cobordant", "--a", str(paths[a]), "--b", str(paths[b]),
                      "--category", category],
                     {"code": 0, "stdout": _compact({"cobordant": same})}))
    for i in (0, 1, 2):
        cmds.append((["cusp", "--in", str(folder / f"diagram{i}.json")],
                     {"code": 0, "stdout": _compact(
                         {"cross_check": "ok", "cusps": cases[i].z})}))

    # malformed documents: each must exit 1 with one error line
    doc = cases[0].doc
    bad = {
        "no_edges": {k: v for k, v in doc.items() if k != "edges"},
        "unknown_vertex": {**doc, "edges": doc["edges"] + [[-1, doc["vertices"][0]["id"]]]},
        "equal_values": {**doc, "vertices": [{**doc["vertices"][0], "id": -1}]
                         + doc["vertices"]},
        "bad_class": {"mode": "CLOSED", "cells": [
            {"arc": {"circles": 0}}, {"event": {"class": "I9", "components": 1}}]},
    }
    for name, body in bad.items():
        (folder / f"{name}.json").write_text(json.dumps(body))
    (folder / "truncated.json").write_text(json.dumps(doc)[:40])
    for name in ("no_edges", "unknown_vertex", "equal_values", "truncated"):
        cmds.append((["invariants", "--in", str(folder / f"{name}.json"),
                      "--category", "unoriented"], {"code": 1}))
    cmds.append((["cusp", "--in", str(folder / "bad_class.json")], {"code": 1}))
    cmds.append((["invariants", "--in", str(paths[2]), "--category", "oriented"],
                 {"code": 1}))
    return cmds


def setup(seed, size):
    folder = WORK / f"cli-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    cmds = _golden() + _file_commands(random.Random(seed), folder, size)
    heavy = [c for c in cmds if c[0][0] in HEAVY]
    _spawn(["catalog", "list"])      # warm-up: writes the bytecode cache
    return cmds + heavy, random.Random(seed), size


def _spawn(argv, driver=None):
    head = ([sys.executable, "-m", "foldcob.cli"] if driver is None
            else [sys.executable, str(HERE / "cli_driver.py")] + driver)
    return subprocess.run(head + argv, capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=120)


def _check(proc, want):
    problems = []
    if proc.returncode != want["code"]:
        problems.append(f"exit {proc.returncode}, want {want['code']}")
    if want["code"] == 1:
        lines = proc.stderr.splitlines()
        if proc.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"not one error line: {proc.stderr[-200:]!r}")
    elif "stdout" in want:
        if proc.stdout != want["stdout"]:
            problems.append(f"stdout {proc.stdout[:120]!r}")
    elif proc.returncode == 0:
        problems += _check_reduce(proc.stdout, *want["reduce"])
    return problems


def _check_reduce(stdout, case, category):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:120]!r}"]
    oriented = "un" not in category
    n1, n2, n3, n4 = case.pieces
    pairs, rp2 = min(n2, n3), n4 // 2
    trace = [{"move": m, "count": k} for m, k in (
        ("CANCEL_PAIR", pairs), ("CANCEL_RP2", rp2),
        ("DELETE_SPHERE", n1 + pairs + rp2)) if k]
    want = {"z": case.z, "trace": trace}
    if not oriented:
        want["w"] = case.w
    problems = []
    if stdout != _compact(doc):
        problems.append("stdout is not compact key-sorted JSON")
    if {k: doc.get(k) for k in want} != want or set(doc) != set(want) | {"canonical"}:
        problems.append(f"reduce gave {stdout[:120]!r}")
    kinds = [v["kind"] for v in doc.get("canonical", {}).get("vertices", [])]
    got = (kinds.count("MAX") - kinds.count("MIN"), kinds.count("DEG2") % 2)
    if got != (case.z, 0 if oriented else case.w):
        problems.append(f"canonical graph gives {got}")
    return problems


def _run(argv, want, outcome, caller, driver=None):
    """One checked command, spawned through ``caller``."""
    try:
        proc = caller.call("cli.command", _spawn, argv, driver)
    except subprocess.TimeoutExpired:
        outcome.record(["timed out"], " ".join(argv[:3]))
        return
    outcome.record(_check(proc, want), " ".join(argv[:3]))


def _rounds(cmds, rng):
    """The command mix, reshuffled every round so that any stretch of a
    round holds each subcommand in proportion: a run that stops inside a
    round still measures the whole mix."""
    groups = {}
    for cmd in cmds:
        groups.setdefault(cmd[0][0], []).append(cmd)
    while True:
        keyed = []
        for group in groups.values():
            rng.shuffle(group)
            offset = rng.random()
            keyed += [((k + offset) / len(group), cmd) for k, cmd in enumerate(group)]
        keyed.sort(key=lambda kc: kc[0])
        yield from (cmd for _, cmd in keyed)


def measure(inputs, seconds, outcome, timings):
    cmds, rng, size = inputs
    min_samples = SIZES[size][1]
    n = {"light": 0, "heavy": 0}
    stream = _rounds(cmds, rng)
    for _ in schedule({"cmd": 1.0}, seconds, lambda: n["light"] and n["heavy"]
                      and n["light"] + n["heavy"] >= min_samples, timings):
        argv, want = next(stream)
        cls = "heavy" if argv[0] in HEAVY else "light"
        item = timings.item()
        _run(argv, want, outcome, item)
        timings.add(cls, item)
        n[cls] += 1
    outcome.reuse.append(
        f"cli: {n['light'] + n['heavy']} commands, each in a fresh process, so "
        "no command reuses another's work")
    light, heavy = timings.scaled("light"), timings.scaled("heavy")
    return {
        "p50_ms": 1000 * pct(light + heavy, 50),
        "p90_ms": 1000 * pct(light + heavy, 90),
        "small_per_s": 1 / statistics.median(light),
        "large_per_s": 1 / statistics.median(heavy),
    }


def trace(inputs, tracer, outcome):
    """One round, each command once untraced and once under the span driver."""
    cmds, rng, size = inputs
    scratch = Outcome()
    spans_file = WORK / "cli-driver-spans.json"
    untraced = traced = 0.0
    for n, (argv, want) in enumerate(rng.sample(cmds, len(cmds))[:SIZES[size][2]]):
        t = time.perf_counter()
        _run(argv, want, scratch, Plain)
        untraced += time.perf_counter() - t
        spans_file.unlink(missing_ok=True)
        t = time.perf_counter()
        with tracer.span("cli.run", trace_id=f"command{n}"):
            _run(argv, want, outcome, Plain, driver=[str(spans_file), f"command{n}"])
            if spans_file.exists():
                tracer.add(json.loads(spans_file.read_text())["spans"])
        traced += time.perf_counter() - t
    interp = [_timed([sys.executable, "-c", "pass"]) for _ in range(INTERP_PROBES)]
    values = layer_metrics(tracer.spans)
    # layer spans of the graph commands carry the size class of their files
    for name in list(values):
        if name.startswith(("reeb.", "diagrams.")) and name.endswith("_s"):
            values[name + ".small"] = values.pop(name)
    values.update({
        "cli.interp_ms": 1000 * statistics.median(interp),
        "cli.import_ms": 1000 * statistics.median(durations(tracer.spans, "cli.import")),
        "cli.main_ms": 1000 * statistics.median(durations(tracer.spans, "cli.main")),
        "trace.overhead_s": traced - untraced,
    })
    return values


def _timed(argv):
    t = time.perf_counter()
    subprocess.run(argv, env=_env(), cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t


def record_golden():
    """Write golden_cli.json: the fixed commands and their stdout."""
    def out(argv):
        proc = _spawn(argv)
        if proc.returncode != 0:
            sys.exit(f"error: {argv} exited {proc.returncode}: {proc.stderr}")
        return proc.stdout
    ids = json.loads(out(["catalog", "list"]))["catalogs"]
    argvs = [["catalog", "list"]]
    argvs += [["catalog", "export", "--id", c] for c in ids]
    for c in ids:
        degrees = json.loads(out(["catalog", "export", "--id", c]))["degrees"]
        argvs += [["homology", "--id", c, "--deg", str(d)] for d in range(degrees)]
    argvs += [["hyper", "--id", "V32", "--coeff", k, "--deg", str(d)]
              for k, d in itertools.product(("Z", "Z2"), range(3))]
    argvs += [["suspension", "--variant", v] for v in ("co_Z", "full_Z2")]
    argvs += [["identities", "--id", c] for c in ("CO32", "CUSP32", "BCUSP32")]
    lines = [json.dumps([a, out(a)]) for a in argvs]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 perfbench/wl_cli.py  -- re-record the golden stdout
    record_golden()
