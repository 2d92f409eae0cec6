"""mvmlab benchmark: one workload per process, closed loop, single thread.

    python3 benchmarks/run.py --workload {enumerate,membership,closure} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; mvmlab is imported from ./src.
Set-up (import of mvmlab plus generation of the inputs) is repeated at least
SETUP_MIN_REPEATS times and until it has taken SETUP_MIN_S seconds (at most
SETUP_MAX_REPEATS times), and its median reported.  Passes over the same
inputs then run back to back for S seconds, at least MIN_PASSES of them.
After the passes, the first answer of every operation is checked against the
oracles, and every later answer must equal it; a wrong answer makes the run
exit with 1.

--trace 0 prints the end-to-end metrics, with every time scaled to a fixed
host speed (see hostspeed.py).  --trace 1 runs one untraced warm-up pass,
then alternates untraced and traced passes, and prints the per-layer split;
the traced passes must repeat every count exactly and give the untraced
passes' answers.

The last line of stdout is the result as JSON; the line before it records
the seed, sample counts, raw times and the exception type of every failed
operation.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import hostspeed
import spans
import workloads

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0  # a cheap set-up is repeated more, so its median is steady
SETUP_MAX_REPEATS = 100
MIN_PASSES = 2  # of each kind: untraced, and traced in a traced run

ROOT = Path(__file__).resolve().parent.parent


def _fresh_import():
    """Import mvmlab anew, so each set-up pays for the import and starts
    with empty process-level term caches."""
    for name in [m for m in sys.modules
                 if m == "mvmlab" or m.startswith("mvmlab.")]:
        del sys.modules[name]
    mvm = importlib.import_module("mvmlab")
    importlib.import_module("mvmlab.cli")
    return mvm


class Runner:
    """Runs passes over a fixed list of operations and keeps the tallies."""

    def __init__(self, ops):
        self.ops = ops
        self.answers = {}  # op name -> first checked answer
        self.problems = []
        # per pass: [(op name, completed, raw seconds, sample span)]
        self.timings = []
        self.attempted = self.failed = 0
        self.errors = Counter()  # exception type -> count, non-probe ops
        self.probes = Counter()  # "attempted", "failed", exception types

    def run_pass(self, clock):
        """Time one pass; returns (raw seconds,
        [(op, answer, error, (raw seconds, sample span))]), error being None
        or (exception type, formatted traceback)."""
        results = []
        for op in self.ops:
            mark = clock.mark()
            try:
                answer, error = op.run(), None
            except Exception as exc:  # recorded and reported per operation
                # keep text, not the exception: its traceback would pin this
                # frame (and a probe's thousand recursion frames) in a cycle
                answer = None
                error = (type(exc).__name__,
                         "" if op.probe else traceback.format_exc())
            results.append((op, answer, error, clock.since(mark)))
        return sum(seconds for *_, (seconds, _) in results), results

    def tally(self, results):
        """Check the answers of a pass; runs outside the timed region."""
        self.timings.append([(op.name, error is None, *timing)
                             for op, _, error, timing in results])
        for op, answer, error, _ in results:
            if op.probe:
                self.probes["attempted"] += 1
            else:
                self.attempted += 1
            if error is not None:
                kind, text = error
                if op.probe:
                    self.probes["failed"] += 1
                    self.probes[kind] += 1
                else:
                    self.failed += 1
                    self.errors[kind] += 1
                    print(f"{op.name} raised:\n{text}", file=sys.stderr)
                continue
            if op.name not in self.answers:
                self.answers[op.name] = answer
            elif answer != self.answers[op.name]:
                self.problems.append(f"{op.name}: answer differs between "
                                     "passes")

    def check(self):
        """Check each operation's first answer against the oracles; runs
        after the passes, so the oracles take no time from them."""
        for op in self.ops:
            if op.name in self.answers:
                self.problems += [f"{op.name}: {p}"
                                  for p in op.check(self.answers[op.name])]

    def fail_frac(self):
        return ((self.failed + self.probes["failed"])
                / (self.attempted + self.probes["attempted"]))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(runner, clock):
    """Scaled pass times (each the sum of its operations' scaled times) and
    {op name: scaled seconds of each completed run}."""
    passes, latencies = [], defaultdict(list)
    for timing in runner.timings:
        total = 0.0
        for name, completed, seconds, span in timing:
            seconds *= clock.factor(span)
            total += seconds
            if completed:
                latencies[name].append(seconds)
        passes.append(total)
    return passes, latencies


def _end_to_end(runner, clock, setup_times):
    pass_times, latencies = _scaled(runner, clock)
    # percentiles over the operations of each one's median latency across
    # passes, so that jitter within a pass does not reorder them
    lat = sorted(statistics.median(v) for v in latencies.values()) or [0.0]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] \
        if len(lat) > 1 else lat[0]
    return {
        "wall_s": _metric(statistics.median(pass_times), "s"),
        "op_p50_ms": _metric(1000 * statistics.median(lat), "ms"),
        "op_p90_ms": _metric(1000 * p90, "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(runner, untraced, traced):
    """untraced: seconds of the untraced passes after the warm-up;
    traced: [(seconds, counts, times)] of the traced passes."""
    counts = traced[0][1]
    if any(c != counts for _, c, _ in traced[1:]):
        runner.problems.append("traced passes disagree on counts")
    out = {}
    for name, value in counts.items():
        unit = "count" if name.endswith((".calls", ".emitted", ".size",
                                         ".classes")) else "ratio"
        out[name] = _metric(value, unit)
    for name in traced[0][2]:
        out[name] = _metric(statistics.median(t[name] for _, _, t in traced),
                            "s")
    out["trace.overhead"] = _metric(
        statistics.median(s for s, _, _ in traced)
        / statistics.median(untraced), "ratio")
    out["fail_frac"] = _metric(runner.fail_frac(), "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mvmlab" / "__init__.py").is_file():
        print(f"error: no mvmlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]

    clock = hostspeed.Clock()
    if not args.trace:
        clock.start()
    try:
        return _measure(args, workload, src, clock)
    finally:
        clock.stop()


def _measure(args, workload, src, clock):
    setups, inputs = [], None
    while (len(setups) < SETUP_MIN_REPEATS
           or (sum(s for s, _ in setups) < SETUP_MIN_S
               and len(setups) < SETUP_MAX_REPEATS)):
        gc.collect()  # the garbage of the previous repeat is not set-up work
        mark = clock.mark()
        mvm = _fresh_import()
        generated = workload.generate(mvm, random.Random(args.seed))
        setups.append(clock.since(mark))
        if inputs is not None and generated != inputs:
            print("error: the same seed generated different inputs",
                  file=sys.stderr)
            return 1
        inputs = generated
    if Path(mvm.__file__).resolve().parent != src / "mvmlab":
        print(f"error: imported mvmlab from {mvm.__file__}", file=sys.stderr)
        return 2

    runner = Runner(workload.operations(mvm, inputs))
    tracer = spans.Tracer() if args.trace else None
    pass_times, traced = [], []
    t_start, seconds = time.perf_counter(), 0.0
    # a traced run starts with an untraced warm-up pass, which fills the
    # process-level term caches, and then alternates traced and untraced
    # passes, so host drift reaches both kinds alike
    min_untraced = MIN_PASSES + 1 if tracer else MIN_PASSES
    # stop before a pass that would likely end after --seconds
    while (len(pass_times) < min_untraced
           or (tracer and len(traced) < MIN_PASSES)
           or time.perf_counter() - t_start + seconds <= args.seconds):
        if tracer and len(pass_times) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                seconds, results = runner.run_pass(clock)
            finally:
                tracer.uninstall()
            traced.append((seconds, *tracer.snapshot()))
        else:
            seconds, results = runner.run_pass(clock)
            pass_times.append(seconds)
        runner.tally(results)
    clock.stop()
    runner.check()

    setup_times = [s * clock.factor(span) for s, span in setups]
    if tracer:
        metrics = _per_layer(runner, pass_times[1:], traced)
    else:
        metrics = _end_to_end(runner, clock, setup_times)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seed_used": workload.uses_seed, "trace": args.trace,
        "raw_pass_s": pass_times + [s for s, _, _ in traced],
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "reference_samples": len(clock.samples),
        "reference_median_s": (statistics.median(clock.samples)
                               if clock.samples else None),
        "ops_per_pass": len(runner.ops),
        "latency_samples": sum(c for t in runner.timings for _, c, _, _ in t),
        "setup_repeats": len(setup_times),
        "errors": dict(runner.errors), "probes": dict(runner.probes),
        "fail_frac": runner.fail_frac(),
        "problems": runner.problems[:20],
    }, sort_keys=True))
    for p in runner.problems:
        print(f"wrong output: {p}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
