"""Benchmark harness for the altitude toolkit.

    python3 bench/run.py --workload psi-gnp --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all     # every workload, both modes, one table

Builds the workload's inputs from the seed, then drives each item -- one
``altitude`` command line -- through ``altitude.cli.main`` in-process, in
repeated passes until ``--seconds`` are used (at least three passes).  Every
output goes through the correctness gate.  One closed-loop caller; the
campaigns run their own pool of ``--workers 2``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half the time on untraced passes and half on traced
ones and reports the per-layer metrics from the traced passes, plus the
difference in solve time.  The last line of stdout is the result object;
the line before it carries the run's provenance and deterministic counters.
A full record (and, traced, every span) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 2  # before the first pass and after every pass
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_PASSES = 100
TAIL_BEYOND = 10
# The probe's time on an uncontended core of the machine the baseline was
# recorded on; timings are reported at that speed (see Probe).
REFERENCE_PROBE_S = 0.0045


def load_program():
    """Import altitude from this checkout's ``src``; raise if it is not there."""
    src = ROOT / "src"
    if not (src / "altitude" / "cli.py").is_file():
        raise ImportError(f"no altitude sources under {src}")
    sys.path.insert(0, str(src))
    import altitude.cli

    if Path(altitude.cli.__file__).resolve().parent != (src / "altitude").resolve():
        raise ImportError(f"altitude was imported from {altitude.cli.__file__}, not {src}")
    return altitude.cli


class Probe:
    """Times a fixed pure-Python search that shares no code with the program.

    The machine this benchmark was tuned on slows by up to 2x for seconds
    at a time, with CPU time equal to wall time, and its fastest state does
    not come in every 30-second run.  The probe slows with it.  In one
    minute of alternating runs, the median ratio of a psi search's time to
    the probe's stayed within 3% in every 10-second window, while the
    search's median time moved by 70%.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj: list[list[int]] = [[] for _ in range(40)]
        for u in range(40):
            for v in range(u + 1, 40):
                if rng.random() < 0.2:
                    self.adj[u].append(v)
                    self.adj[v].append(u)

    def __call__(self) -> float:
        """Seconds to enumerate every simple path of up to 3 edges."""
        adj = self.adj
        t0 = time.perf_counter()
        stack = [(v, 1 << v, 0) for v in range(len(adj))]
        while stack:
            v, seen, depth = stack.pop()
            if depth < 3:
                for w in adj[v]:
                    if not seen >> w & 1:
                        stack.append((w, seen | 1 << w, depth + 1))
        return time.perf_counter() - t0


def scaled(seconds: float, probe: float) -> float:
    """Seconds at the machine speed where the probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe


@dataclass
class Outcome:
    code: int | None
    text: str  # stdout, or the --out file for exact-f
    seconds: float
    error: str | None = None
    probe: float = REFERENCE_PROBE_S  # mean of the probes just before and after

    @property
    def scaled(self) -> float:
        return scaled(self.seconds, self.probe)


def run_item(cli, item) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(item.argv))
    except Exception as exc:  # a crash fails this item; the run goes on
        code, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if item.out and code in (0, 4):
        text = Path(item.out).read_text()
    return Outcome(code, text, seconds, error or (err.getvalue().strip() or None))


def run_pass(cli, items, probe: Probe, tracer=None) -> list[Outcome]:
    """Every item once, with a probe between consecutive items."""
    outcomes = []
    before = probe()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        outcome = run_item(cli, item)
        after = probe()
        outcome.probe = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


def run_passes(cli, items, seconds: float, min_passes: int, probe: Probe, tracer=None,
               between=None):
    """Passes over all items until ``seconds`` would be exceeded; with spans if traced.

    ``between`` runs after every pass, inside the time budget.
    """
    passes, spans = [], []
    start, longest = time.perf_counter(), 0.0
    while len(passes) < MAX_PASSES and (
        len(passes) < min_passes or time.perf_counter() - start + longest <= seconds
    ):
        t0 = time.perf_counter()
        if tracer is None:
            passes.append(run_pass(cli, items, probe))
        else:
            with tracer.installed():
                passes.append(run_pass(cli, items, probe, tracer))
            spans.append(tracer.take())
        if between is not None:
            between()
        longest = max(longest, time.perf_counter() - t0)
    return passes, spans


def proven_units(item, outcome: Outcome) -> int:
    """Results that are proven rather than budget-capped."""
    if outcome.code != 0:
        return 0
    if item.kind != "experiment":
        return 1
    lines = outcome.text.splitlines()
    if len(lines) < 2:
        return 0
    header = lines[1].split(",")
    flags = [i for i, h in enumerate(header)
             if h in ("coloring_psi_exact", "adversary_verified", "exact_f_is_exact")]
    rows = [r.split(",") for r in lines[2:] if r]
    return sum(all(i < len(r) and r[i] != "false" for i in flags) for r in rows)


def counters(items, outcomes) -> dict[str, int]:
    """Deterministic work counts read from the outputs themselves.

    An unreadable output counts no nodes; the gate fails it.
    """
    nodes = capped = 0
    for item, o in zip(items, outcomes):
        if item.kind != "experiment" and o.code in (0, 4):
            capped += o.code == 4
            try:
                nodes += int(json.loads(o.text)["explored"])
            except (KeyError, TypeError, ValueError):
                pass
    units = sum(item.units for item in items)
    proven = sum(proven_units(i, o) for i, o in zip(items, outcomes))
    return {"units": units, "proven": proven, "capped": capped, "nodes": nodes}


def stable_text(item, outcome: Outcome) -> str:
    """Output with the wall-clock column removed, for determinism checks."""
    if item.kind != "experiment":
        return outcome.text
    return "\n".join(ln.rsplit(",", 1)[0] for ln in outcome.text.splitlines())


class Judge:
    """Runs the gate over every pass and tracks failures and determinism."""

    def __init__(self, gate, items):
        self.gate, self.items = gate, items
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.first: list[Outcome] | None = None

    def add(self, outcomes: list[Outcome]) -> None:
        if self.first is None:
            self.first = outcomes
        for item, o, ref in zip(self.items, outcomes, self.first):
            self.attempted += item.units
            why = o.error if o.code is None else self.gate.check(item, o.code, o.text)
            if why is None and stable_text(item, o) != stable_text(item, ref):
                why = "output differs between passes"
            if why is not None:
                self.failed += item.units
                self.reasons.append(f"{item.key}: {why}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    s = sorted(samples)
    i = max(0, len(s) - 1 - TAIL_BEYOND)
    return 100.0 * (i + 1) / len(s), s[i]


def item_seconds(passes) -> list[float]:
    """Each item's median scaled time over the passes."""
    return [statistics.median(p[i].scaled for p in passes) for i in range(len(passes[0]))]


def solve_seconds(passes) -> float:
    """Batch time: the items' median scaled times, summed."""
    return sum(item_seconds(passes))


def setup(workloads, cli, name: str, seed: int, workdir: Path):
    """Build the inputs and run the warm-up command; returns (items, seconds)."""
    t0 = time.perf_counter()
    items = workloads.build(name, seed, workdir)
    warm = workloads.warm_up(name, workdir)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(list(warm))
    if code != 0:
        raise RuntimeError(f"warm-up command exited {code}: {' '.join(warm)}")
    return items, time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(items, passes, judge, setup_times) -> tuple[dict, dict]:
    solve = solve_seconds(passes)
    samples = [1000 * o.scaled for p in passes for o in p]
    pct, tail_ms = tail(samples)
    c = counters(items, passes[0])
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "solve_s": metric(solve, "s"),
        "items_per_s": metric(c["units"] / solve, "1/s"),
        "item_p50_ms": metric(1000 * statistics.median(item_seconds(passes)), "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "exact_share": metric(c["proven"] / c["units"], "ratio"),
        "ok_share": metric(1 - judge.failed / judge.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"tail_percentile": pct, "tail_samples": len(samples), "passes": len(passes),
             "setups": len(setup_times)}
    return metrics, notes


def to_reference_speed(layer: dict[str, float], probe: float) -> dict[str, float]:
    """Scale a pass's times and rates as ``scaled`` does for item times."""
    factor = REFERENCE_PROBE_S / probe
    return {k: v * factor if k.endswith("_ms") else v / factor if k.endswith("_per_s") else v
            for k, v in layer.items()}


def per_layer(spans_module, untraced, traced, spans, setup_spans, setup_probe) -> tuple[dict, dict]:
    per_pass = [
        to_reference_speed(spans_module.layer_metrics(s), statistics.median(o.probe for o in p))
        for s, p in zip(spans, traced)
    ]
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = statistics.median(values) if name not in spans_module.COUNTERS else values[0]
    setup_layers = to_reference_speed(spans_module.layer_metrics(setup_spans), setup_probe)
    out["graphs.setup_ms"] = setup_layers["graphs.busy_ms"]
    out["trace.overhead_s"] = solve_seconds(traced) - solve_seconds(untraced)
    units = {"ms": [k for k in out if k.endswith("_ms")], "s": ["trace.overhead_s"],
             "1/s": [k for k in out if k.endswith("_per_s")],
             "ratio": [k for k in out if k.endswith("_share")]}
    unit_of = {k: u for u, keys in units.items() for k in keys}
    metrics = {k: metric(v, unit_of.get(k, "count")) for k, v in sorted(out.items())}
    drift = [k for k in spans_module.COUNTERS if len({m[k] for m in per_pass}) > 1]
    return metrics, {"counter_drift": drift, "traced_passes": len(traced)}


def provenance(workload: str, seed: int, seconds: float) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind = (index / "level").read_text().strip(), (index / "type").read_text()
            if kind.strip() != "Instruction":
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "altitude").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(workloads, seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process; one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {done.returncode}:\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = m
                print(f"{name:20s} {key:28s} {m['value']:14.6g} {m['unit']}", flush=True)
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import gate
    import spans as spans_module
    import workloads

    if args.workload == "all":
        return run_all(workloads, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    recorded = json.loads((BENCH / "expected.json").read_text())
    judge_gate = gate.Gate(recorded.get(args.workload))
    workdir = OUT / f"work-{os.getpid()}"
    probe = Probe()
    setup_times, raw_setup = [], []

    def set_up():
        for _ in range(SETUP_REPS):
            before = probe()
            items, seconds = setup(workloads, cli, args.workload, args.seed, workdir)
            raw_setup.append(seconds)
            setup_times.append(scaled(seconds, (before + probe()) / 2))
        return items

    try:
        items = set_up()
        judge = Judge(judge_gate, items)
        record = {"provenance": provenance(args.workload, args.seed, args.seconds)}
        if args.trace:
            tracer = spans_module.Tracer()
            before = probe()
            with tracer.installed():
                workloads.build(args.workload, args.seed, workdir)
            setup_probe = (before + probe()) / 2
            setup_spans = tracer.take()
            untraced, _ = run_passes(cli, items, args.seconds / 2, MIN_TRACED_PASSES, probe)
            traced, spans = run_passes(cli, items, args.seconds / 2, MIN_TRACED_PASSES, probe,
                                       tracer)
            for outcomes in untraced + traced:
                judge.add(outcomes)
            metrics, notes = per_layer(spans_module, untraced, traced, spans, setup_spans,
                                       setup_probe)
            steady = not notes["counter_drift"] and all(
                counters(items, p) == counters(items, untraced[0]) for p in untraced + traced)
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
                for i, pass_spans in enumerate(spans):
                    for s in spans_module.dump(pass_spans):
                        fh.write(json.dumps({"pass": i, **s}) + "\n")
            passes = untraced + traced
        else:
            passes, _ = run_passes(cli, items, args.seconds, MIN_PASSES, probe, between=set_up)
            for outcomes in passes:
                judge.add(outcomes)
            metrics, notes = end_to_end(items, passes, judge, setup_times)
            steady = all(counters(items, p) == counters(items, passes[0]) for p in passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(counters=counters(items, passes[0]), notes=notes, failures=judge.reasons[:20],
                  metrics=metrics, raw_setup_s=raw_setup,
                  item_seconds={item.key: [p[i].seconds for p in passes]
                                for i, item in enumerate(items)},
                  item_probe_s={item.key: [p[i].probe for p in passes]
                                for i, item in enumerate(items)})
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    for key, m in metrics.items():
        print(f"{key:28s} {m['value']:14.6g} {m['unit']}")
    if judge.reasons:
        print("failures: " + "; ".join(judge.reasons[:5]))
    print(json.dumps({k: record[k] for k in ("provenance", "counters", "notes")}))
    result = {
        "correct": judge.failed == 0 and steady,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
