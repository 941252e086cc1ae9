"""misr benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload word --seed 1 --seconds 25 --trace 0

Runs one workload of workloads.py against the misr sources in src/ of the
checkout this file sits in: a single client in one process, closed loop,
cycling through the workload's seeded deck for --seconds (at least one
pass).  An operation is a deck entry.  Its latency is the mean over every
execution of the same input in the run, so a run of fixed work averages the
host's drift, and `attempted` and `failed` count entries: they do not
depend on how many passes the host's speed allowed.  Every output is
checked against oracle.py.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment and per-kind failures.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs untraced
for a third of the time, then wraps every public call the workload makes in
a span (and replays, outside the operation, the calls the program makes
internally), writes the spans to .bench_out/ and reports per-layer metrics.

Set-up is timed in fresh child processes (see SETUP_PROBE), since the
workload process has already imported misr.

Times are reported at a reference speed.  The host's speed drifts by up to
2x over seconds and by 10-20% between runs, and that drift hits all pure
Python code alike.  So every REFERENCE_EVERY seconds a run also times
reference(), fixed pure-Python work that does not touch misr, and scales
every time it reports by REFERENCE_S / (mean time of reference()).  A
change to misr moves the scaled times as it moves the raw ones; the host's
drift cancels.  The info line holds the scale and the unscaled figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import fixtures  # noqa: E402
import workloads as W  # noqa: E402

SETUP_RUNS = 25
TRACE_UNTRACED_SHARE = 1 / 3
REFERENCE_EVERY = 0.1  # seconds of run between two timings of reference()
REFERENCE_S = 0.003  # the time of reference() at the reference speed

# A fresh interpreter imports misr and builds the workload's fixtures;
# it prints the import time and the build time.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import fixtures
t0 = time.perf_counter()
for name in {modules!r}:
    __import__(name)
t1 = time.perf_counter()
import misr
fixtures.build(misr, {spec!r})
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

# public function -> span name, and what a span counts from (args, result)
SPANS = {
    "parse": "terms.parse",
    "term_size": "terms.term_size",
    "flatten": "normal.flatten",
    "reduce_rep": "normal.reduce",
    "rep_text": "normal.rep_text",
    "decide_equal": "normal.decide_equal",
    "builtin": "algebras.builtin",
    "load_algebra": "algebras.load",
    "holds": "algebras.holds",
    "check_axioms": "algebras.check_axioms",
    "eval_term": "algebras.eval_term",
    "is_subdirectly_irreducible": "congruences.si",
    "principal_congruence": "congruences.principal",
    "enumerate_reduced": "enumeration.enumerate",
    "clone_count": "enumeration.clone",
    "main": "cli.main",
    "build_parser": "cli.build_parser",
    "parse_args": "cli.parse_args",
}

# per-layer metric -> the span whose mean time per call it reports
LAYER_TIMES = {
    "terms.parse.s": "terms.parse",
    "normal.flatten.s": "normal.flatten",
    "normal.reduce.s": "normal.reduce",
    "normal.rep_text.s": "normal.rep_text",
    "normal.decide_equal.s": "normal.decide_equal",
    "algebras.holds.s": "algebras.holds",
    "algebras.check_axioms.s": "algebras.check_axioms",
    "algebras.eval_term.s": "algebras.eval_term",
    "congruences.si.s": "congruences.si",
    "congruences.principal.s": "congruences.principal",
    "enumeration.enumerate.s": "enumeration.enumerate",
    "enumeration.clone.s": "enumeration.clone",
    "cli.main.s": "cli.main",
    "cli.build_parser.s": "cli.build_parser",
    "cli.parse_args.s": "cli.parse_args",
}

# per-layer metric -> (span, counter), summed over one pass of the deck
LAYER_COUNTS = {
    "terms.parse.nodes": ("terms.parse", "nodes"),
    "normal.flatten.summands": ("normal.flatten", "summands"),
    "normal.reduce.deleted": ("normal.reduce", "deleted"),
    "algebras.holds.points": ("algebras.holds", "points"),
    "congruences.principal.calls": ("congruences.principal", "calls"),
    "enumeration.enumerate.candidates": ("enumeration.enumerate", "candidates"),
    "enumeration.clone.functions": ("enumeration.clone", "functions"),
}

# per-layer metric -> (span, numerator counter, denominator counter)
LAYER_RATIOS = {
    "normal.reduce.useful_ratio": ("normal.reduce", "kept", "in"),
    "enumeration.enumerate.useful_ratio": ("enumeration.enumerate", "forms", "candidates"),
}


def reference() -> int:
    """Fixed pure-Python work, independent of misr: dicts, tuples, sorting."""
    d: dict = {}
    for i in range(3000):
        k = (i * 7919) % 1031
        d[k] = d.get(k, 0) + i
        t = tuple(sorted((k % 13, k % 7, k % 5)))
        d[t] = len(t)
    return len(d)


def term_nodes(misr, t) -> int:
    """Node count of a parsed term, without recursion (inputs can be deep)."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (misr.Add, misr.Mul)):
            stack += (node.left, node.right)
    return count


def counters(misr) -> dict:
    return {
        "terms.parse": lambda args, res: {"nodes": term_nodes(misr, res)},
        "normal.flatten": lambda args, res: {"summands": len(res)},
        "normal.reduce": lambda args, res: {"in": len(args[0]), "kept": len(res), "deleted": len(args[0]) - len(res)},
        "algebras.holds": lambda args, res: {"points": W.holds_points(args[0], args[1], res)},
        "congruences.principal": lambda args, res: {"calls": 1},
        "enumeration.enumerate": lambda args, res: {"candidates": 3 ** (2 ** args[0]), "forms": len(res)},
        "enumeration.clone": lambda args, res: {"functions": res},
    }


class Tracer:
    """Spans in memory: (name, parent index, op sequence number, start, end,
    counts).  An operation gets an "op" root span; the calls it replays
    afterwards hang under a "replay" root span of the same sequence number."""

    def __init__(self):
        self.spans: list = []
        self.seq = 0
        self._root: tuple | None = None

    def open(self, name: str, kind: str) -> None:
        self._root = (len(self.spans), name, kind, time.perf_counter())
        self.spans.append(None)

    def close(self) -> None:
        index, name, kind, start = self._root
        self.spans[index] = (name, None, self.seq, start, time.perf_counter(), {"kind": kind})
        self._root = None

    def record(self, name: str, start: float, end: float, counts: dict | None) -> None:
        parent = self._root[0] if self._root else None
        self.spans.append((name, parent, self.seq, start, end, counts))

    def wrap(self, name: str, fn, counter=None):
        def call(*args):
            start = time.perf_counter()
            try:
                result = fn(*args)
            except BaseException:
                self.record(name, start, time.perf_counter(), {"raised": 1})
                raise
            end = time.perf_counter()
            self.record(name, start, end, counter(args, result) if counter else None)
            return result

        return call

    def batch(self, name: str, fn, calls) -> None:
        """Time each call of fn separately and record one span whose
        counts hold the summed call time ("busy") and the number of calls."""
        start, busy, n = time.perf_counter(), 0.0, 0
        for args in calls:
            t0 = time.perf_counter()
            fn(*args)
            busy += time.perf_counter() - t0
            n += 1
        self.record(name, start, time.perf_counter(), {"busy": busy, "calls": n})


def library(misr, tracer: Tracer | None = None) -> SimpleNamespace:
    """misr's public functions by short name, wrapped in spans if traced."""
    fns = {name: getattr(misr, name) for name in SPANS if hasattr(misr, name)}
    if "misr.cli" in sys.modules:
        cli = sys.modules["misr.cli"]
        fns.update(main=cli.main, build_parser=cli.build_parser)
        fns["parse_args"] = lambda parser, argv: parser.parse_args(argv)
    lib = SimpleNamespace(misr=misr, **fns)
    if tracer is not None:
        count = counters(misr)
        for name, fn in fns.items():
            setattr(lib, name, tracer.wrap(SPANS[name], fn, count.get(SPANS[name])))
        lib.batch = tracer.batch
    return lib


def run_phase(wl, lib, objs, deck, first: dict, seconds: float, min_ops: int = 0,
              tracer: Tracer | None = None, between=None) -> dict:
    """Closed loop over the deck for `seconds` and at least `min_ops`
    operations.  Keeps in `first` the first output per deck index (shared
    between the phases of a run); returns the latencies and the sequence
    numbers whose output differed from that first output, and the times
    of reference().  `between(t)`, if given, is called between operations
    with the seconds elapsed."""
    latencies: list[float] = []
    changed: list[int] = []
    references: list[float] = []
    next_reference = 0.0
    gc.collect()
    start = time.perf_counter()
    i = 0
    while (elapsed := time.perf_counter() - start) < seconds or i < min_ops:
        if elapsed >= next_reference:
            t0 = time.perf_counter()
            reference()
            references.append(time.perf_counter() - t0)
            next_reference = elapsed + REFERENCE_EVERY
        if between is not None:
            between(elapsed)
        j = i % len(deck)
        op = deck[j]
        if tracer is not None:
            tracer.seq = i
            tracer.open("op", op.kind)
        t0 = time.perf_counter()
        try:
            out = wl.execute(lib, objs, op)
        except Exception as exc:  # a failed operation: record it and go on
            out = W.Raised(type(exc).__name__)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close()
            tracer.open("replay", op.kind)
            wl.replay(lib, objs, op, out)
            tracer.close()
        latencies.append(t1 - t0)
        if j not in first:
            first[j] = out
        elif out != first[j]:
            changed.append(i)
        i += 1
    return {"latencies": latencies, "changed": changed, "references": references}


def scale(phase: dict) -> float:
    """Factor from the phase's times to times at the reference speed."""
    return REFERENCE_S / statistics.fmean(phase["references"])


def entry_latencies(deck, phase: dict) -> list[float]:
    """One latency per deck entry at the reference speed: the mean over all
    timed executions of the same input in the phase, so that each entry
    averages over the host's drift within the run."""
    runs: dict = {}
    for i, x in enumerate(phase["latencies"]):
        runs.setdefault(deck[i % len(deck)].args, []).append(x)
    factor = scale(phase)
    return [statistics.fmean(runs[op.args]) * factor for op in deck]


def verdicts(wl, objs, deck, first: dict, phases: list) -> tuple[int, int, bool, dict]:
    """Check every deck entry's first output with the oracle.  An operation
    is a deck entry: it is attempted once per run however often it is
    repeated for timing, and it fails if its first output is wrong or a
    repetition gave another output.  `correct` holds when no output was
    wrong and every exception came from a named defect input."""
    changed = {i % len(deck) for phase in phases for i in phase["changed"]}
    failed = 0
    correct = True
    by_kind: dict[str, dict] = {}
    for j, out in sorted(first.items()):
        if j in changed:
            reason = "output differs between repetitions"
        elif isinstance(out, W.Raised):
            reason = f"raised {out.error}"
        else:
            reason = wl.check(deck[j], out, objs) or ""
        if not reason:
            continue
        failed += 1
        op = deck[j]
        entry = by_kind.setdefault(op.kind, {"failed": 0, "reason": reason, "defect": op.defect})
        entry["failed"] += 1
        if not (op.defect and isinstance(out, W.Raised) and j not in changed):
            correct = False
    return len(first), failed, correct, by_kind


class SetupProbe:
    """(import seconds, build seconds) from SETUP_RUNS fresh interpreters,
    spread evenly over a phase of `seconds` so that their median does not
    rest on one phase of the host's drifting speed.  Call it between
    operations; `finish` runs the probes still due."""

    def __init__(self, wl, spec, seconds: float):
        self.code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), modules=wl.modules, spec=spec)
        self.due = [seconds * (k + 0.5) / SETUP_RUNS for k in range(SETUP_RUNS)]
        self.times: list[tuple[float, float]] = []

    def __call__(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.probe()

    def finish(self) -> list[tuple[float, float]]:
        while self.due:
            self.due.pop(0)
            self.probe()
        return self.times

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", self.code], capture_output=True, text=True, timeout=60, check=True
        )
        imp, build = map(float, proc.stdout.split())
        self.times.append((imp, build))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def layer_metrics(spans: list, deck_len: int, cli: bool) -> dict:
    """Per-layer numbers from the traced phase's spans."""
    busy: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for name, parent, seq, start, end, c in spans:
        if parent is None and name in ("op", "replay"):
            continue
        if c and "busy" in c:
            busy[name] += c["busy"]
            calls[name] += c["calls"]
        else:
            busy[name] += end - start
            calls[name] += 1
        if seq < deck_len and c:  # counts: the first pass only
            for key, value in c.items():
                counts[(name, key)] += value
    metrics = {m: busy[s] / calls[s] if calls[s] else 0.0 for m, s in LAYER_TIMES.items()}
    for m, (s, key) in LAYER_COUNTS.items():
        metrics[m] = counts[(s, key)]
    for m, (s, num, den) in LAYER_RATIOS.items():
        metrics[m] = counts[(s, num)] / counts[(s, den)] if counts[(s, den)] else 0.0
    # cli self time: main minus everything replayed for the same argv
    main: dict[int, float] = {}
    replayed: Counter = Counter()
    roots = {i for i, sp in enumerate(spans) if sp[0] == "replay" and sp[1] is None}
    for name, parent, seq, start, end, c in spans:
        if name == "cli.main":
            main[seq] = end - start
        elif parent in roots:
            replayed[seq] += c["busy"] if c and "busy" in c else end - start
    selfs = [main[s] - replayed[s] for s in main]
    metrics["cli.self.s"] = statistics.fmean(selfs) if cli and selfs else 0.0
    return metrics


def percentile_90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[8]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "misr" / "__init__.py").is_file():
        print(f"error: no misr sources under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    all_workloads = W.workloads(str(SRC / "misr" / "data"))
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(why)}", file=sys.stderr)
        return 2
    wl = all_workloads[args.workload]

    sys.path.insert(0, str(SRC))
    for name in wl.modules:
        __import__(name)
    import misr

    if Path(misr.__file__).resolve().parent != SRC / "misr":
        print(f"error: imported misr from {misr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    deck = wl.deck(Random(args.seed))
    spec = wl.fixtures(deck)
    objs = fixtures.build(misr, spec)

    values: dict[str, float] = {}
    first: dict[int, object] = {}
    plain_s = args.seconds * TRACE_UNTRACED_SHARE if args.trace else args.seconds
    setup = SetupProbe(wl, spec, plain_s)
    plain = run_phase(wl, library(misr), objs, deck, first, plain_s, len(deck), between=setup)
    setups = setup.finish()
    phases = [plain]
    lat = entry_latencies(deck, plain)
    p90 = percentile_90(lat)
    if args.trace:
        tracer = Tracer()
        # the traced phase finishes a whole pass, over which counts are summed
        traced = run_phase(wl, library(misr, tracer), objs, deck, first, args.seconds - plain_s, len(deck), tracer)
        phases.append(traced)
        values.update(layer_metrics(tracer.spans, len(deck), wl.name == "cli"))
        for name in [*LAYER_TIMES, "cli.self.s"]:
            values[name] *= scale(traced)
        values["misr.import.s"] = statistics.median(t[0] for t in setups) * scale(plain)
        values["algebras.build.s"] = statistics.median(t[1] for t in setups) * scale(plain)
        values["trace.ops_per_s"] = len(deck) / sum(entry_latencies(deck, traced))
        values["trace.overhead_ops_per_s"] = len(lat) / sum(lat) - values["trace.ops_per_s"]
    else:
        values["setup_s"] = statistics.median(a + b for a, b in setups) * scale(plain)
        values["ops_per_s"] = len(lat) / sum(lat)
        values["latency_p50_ms"] = statistics.median(lat) * 1e3
        values["latency_p90_ms"] = p90 * 1e3
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, correct, by_kind = verdicts(wl, objs, deck, first, phases)
    executions = Counter(deck[i % len(deck)].args for i in range(len(plain["latencies"])))
    raw = plain["latencies"]
    info = {
        "workload": wl.name,
        "why": why[wl.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "commit": commit(),
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90 and not math.isclose(x, p90)),
        "executions": len(raw),
        "fewest_executions_per_input": min(executions.values()),
        "scale": scale(plain),
        "reference_ms": statistics.fmean(plain["references"]) * 1e3,
        "unscaled": {"ops_per_s": len(raw) / sum(raw), "setup_s": statistics.median(a + b for a, b in setups),
                     "latency_p50_ms": statistics.median(raw) * 1e3, "latency_p90_ms": percentile_90(raw) * 1e3},
        "failures": by_kind,
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        info["spans_file"] = str(OUT_DIR / f"spans-{wl.name}-{args.seed}.json")
        with open(info["spans_file"], "w") as fh:
            json.dump({"info": info, "fields": ["name", "parent", "seq", "start", "end", "counts"],
                       "spans": tracer.spans}, fh)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
