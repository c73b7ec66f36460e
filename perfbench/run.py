"""propcalc's benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports propcalc from the
checkout's src/, generates the workload's inputs from the seed, writes them
as workspace JSON files under .perfbench/, and drives `propcalc.cli.run(argv)`
in-process with stdout captured: one client, one process, no threads, the
next operation sent only after the previous one returned.  Every operation's
exit code and output are checked (see workloads.py).  The end-to-end times
are wall times scaled to a reference speed measured between operations, so
that runs made in the machine's slow and fast periods compare (see
reference.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs the pool once
untraced and once traced (repeating the pair while time is left) and reports
the per-layer metrics from spans wrapped around public propcalc functions
(see tracing.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import time

# setup_s counts from here: the imports below are part of the set-up time
START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("transfer", "words", "products", "operads")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# latency_p90_ms needs at least ten samples beyond it
MIN_SAMPLES = 100


def load_propcalc():
    """Import propcalc from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "propcalc", "cli.py")):
        raise SystemExit("perfbench: no propcalc sources under %s" % src)
    sys.path.insert(0, src)
    import propcalc.cli

    if not os.path.abspath(propcalc.__file__).startswith(os.path.join(src, "")):
        raise SystemExit("perfbench: propcalc was imported from %s, not %s" % (propcalc.__file__, src))
    return propcalc.cli


def setup(workload, seed, repeats=1, speed=None):
    """Generate the pool `repeats` times, each into a fresh workspace.

    Returns (groups, workspace directory, seconds per set-up).  Only the last
    workspace is kept.  With a `speed`, the reference kernel is sampled after
    each set-up, and speed.scaled() then gives the set-up times scaled.
    """
    import workloads  # after load_propcalc() put src/ on the path

    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        directory = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=work_root)
        groups = workloads.build(workload, seed, workloads.Workspace(directory))
        times.append(time.perf_counter() - t0)
        if speed is not None:
            speed.after_op(times[-1])
            speed.sample()
        if i < repeats - 1:
            shutil.rmtree(directory)
    return groups, directory, times


class Runner:
    """Executes operations and checks each result.

    An operation's oracle runs on its first execution, together with the
    recorded digest when the seed is the default one (or the operation's
    input does not depend on the seed); later executions must reproduce the
    first execution's stdout byte for byte.
    """

    def __init__(self, cli, seed, recorded, tracer=None):
        self.cli = cli
        self.seed = seed
        self.recorded = recorded
        self.tracer = tracer
        self.digests = {}
        self.failures = []

    def execute(self, op):
        """(seconds, exit code or None, stdout or error text)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if op.argv is not None:
                    code = self.cli.run(list(op.argv))
                else:
                    obj = op.call()
                    code = 0
        except (Exception, SystemExit) as exc:
            return time.perf_counter() - t0, None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        if op.argv is None:
            # rendering is the oracle's work, not the operation's: keep it out of the spans
            active = self.tracer is not None and self.tracer.active
            if active:
                self.tracer.active = False
            text = op.render(obj)
            if active:
                self.tracer.active = True
        else:
            text = buf.getvalue()
        return seconds, code, text

    def verify(self, op, code, text):
        """Record and return the reason the result is wrong, or None."""
        reason = None
        if code is None:
            reason = text
        elif code != op.code:
            reason = "exit code %d, expected %d: %s" % (code, op.code, text[:200])
        else:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if op.id in self.digests:
                if digest != self.digests[op.id]:
                    reason = "stdout differs from its first execution"
            else:
                try:
                    reason = op.check(text) if op.check else None
                except Exception as exc:
                    reason = "oracle raised %s: %s" % (type(exc).__name__, exc)
                if reason is None and self.recorded is not None and (self.seed == DEFAULT_SEED or op.fixed):
                    expected = self.recorded.get(op.id)
                    if expected != digest:
                        reason = "stdout digest %s, recorded %s" % (digest[:12], expected and expected[:12])
                if reason is None:
                    self.digests[op.id] = digest
                    if op.after:
                        op.after(text)
        if reason is not None:
            self.failures.append((op.id, reason))
        return reason


def one_pass(runner, schedule, tracer=None, speed=None):
    """Run every operation of the pool once.

    Untraced, each result is verified; traced, its stdout must equal the
    untraced run's.  With a `speed`, the reference kernel is sampled between
    operations.  Returns (seconds per operation, stdout digests, failures).
    """
    times = []
    digests = {}
    failed = 0
    for op in schedule:
        if speed is not None:
            speed.before_op()
        if tracer is not None:
            tracer.op = op.id
            tracer.active = True
        dt, code, text = runner.execute(op)
        if tracer is not None:
            tracer.active = False
        if speed is not None:
            speed.after_op(dt)
        times.append(dt)
        digests[op.id] = hashlib.sha256(text.encode()).hexdigest() if code is not None else None
        if tracer is None:
            if runner.verify(op, code, text) is not None:
                failed += 1
        elif digests[op.id] != runner.digests.get(op.id):
            runner.failures.append((op.id, "traced stdout differs from the untraced run"))
            failed += 1
    return times, digests, failed


def closed_loop(runner, schedule, seconds):
    """Send operations one after another, in whole passes over the pool, until
    at least `seconds` of operation time passed and MIN_SAMPLES operations ran.

    Whole passes keep the mix of operations the same in every run of a seed,
    so the percentiles do not depend on where the clock happened to stop.
    Returns (reference.Speed holding every operation's time, failures, passes).
    """
    speed = reference.Speed()
    failed = 0
    passes = 0
    while len(speed.times) < MIN_SAMPLES or sum(speed.raw()) < seconds:
        _, _, pass_failed = one_pass(runner, schedule, speed=speed)
        failed += pass_failed
        passes += 1
    return speed, failed, passes


def percentiles(seconds):
    """(p50 ms, p90 ms, samples beyond p90) of a list of times."""
    ms = [x * 1000.0 for x in seconds]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return p50, p90, sum(1 for x in ms if x > p90)


def report_untraced(workload, seed, schedule, speed, failed, passes, setup_s, setup_raw_s):
    latencies = speed.scaled()
    raw = speed.raw()
    n = len(latencies)
    ok = n - failed
    busy, raw_busy = sum(latencies), sum(raw)
    p50, p90, beyond_p90 = percentiles(latencies)
    raw_p50, raw_p90, _ = percentiles(raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_s = ok / busy
    ref_ms = [x * 1000.0 for x in speed.samples]
    print("workload %s, seed %d: closed loop, 1 client, %d operations in %d passes, %.3f s of operation time"
          % (workload, seed, n, passes, raw_busy))
    print("times are scaled to the reference speed: the kernel took %.3f ms nominal, median %.3f ms over %d samples"
          " (range %.3f-%.3f); unscaled wall-clock values in brackets"
          % (reference.NOMINAL_S * 1000.0, statistics.median(ref_ms), len(ref_ms), min(ref_ms), max(ref_ms)))
    print("  %-16s %12.4f op/s   (%d completed / %.3f s) [%.4f]" % ("ops_per_s", ops_per_s, ok, busy, ok / raw_busy))
    print("  %-16s %12.4f ms     (n=%d) [%.4f]" % ("latency_p50_ms", p50, n, raw_p50))
    print("  %-16s %12.4f ms     (n=%d, %d samples beyond it) [%.4f]" % ("latency_p90_ms", p90, n, beyond_p90, raw_p90))
    print("  %-16s %12.4f s      (import + median of %d set-ups) [%.4f]" % ("setup_s", setup_s, SETUP_REPEATS, setup_raw_s))
    print("  %-16s %12.4f MB" % ("peak_rss_mb", peak_rss_mb))
    print("  %-16s %12.4f ratio  (%d failed / %d attempted)" % ("failed_frac", failed / n, failed, n))
    commands = {}
    for op, dt in zip(itertools.cycle(schedule), latencies):
        commands.setdefault(op.command, []).append(dt)
    for command, times in sorted(commands.items()):
        t_ms = sorted(t * 1000.0 for t in times)
        print("    %-20s n=%-5d p50 %10.3f ms  max %10.3f ms" % (command, len(t_ms), statistics.median(t_ms), t_ms[-1]))
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced_run(runner, schedule, tracer, seconds, trace_path):
    """Pairs of (untraced pass, traced pass) until the pairs used `seconds`.

    Per-layer values are per pass: every pass runs the same operations, so
    counts repeat exactly.  trace.overhead_s is the traced minus the untraced
    operation time of a pass.
    """
    totals = None
    overheads = []
    busy = 0.0
    attempted = failed = 0
    passes = 0
    while passes == 0 or busy < seconds:
        plain, _, f1 = one_pass(runner, schedule)
        tracer.reset()
        tracer.install()
        try:
            traced, _, f2 = one_pass(runner, schedule, tracer)
        finally:
            tracer.uninstall()
        if passes == 0:
            tracer.write(trace_path)
        attempted += 2 * len(schedule)
        failed += f1 + f2
        passes += 1
        busy += sum(plain) + sum(traced)
        overheads.append(sum(traced) - sum(plain))
        layers = tracer.layer_metrics()
        if totals is None:
            totals = {span: dict.fromkeys(values, 0) for span, values in layers.items()}
        for span, values in layers.items():
            for key, value in values.items():
                totals[span][key] += value
    metrics = {}
    for span, _, _ in tracing.SPANS:
        for key, value in totals[span].items():
            unit = "s" if key in ("s", "self_s") else ("B" if key == "bytes" else "count")
            metrics["%s.%s" % (span, key)] = {"value": value / passes, "unit": unit}
    metrics["trace.overhead_s"] = {"value": statistics.mean(overheads), "unit": "s"}
    print("traced run: %d pass pair(s) over %d operations; per-layer values are per pass" % (passes, len(schedule)))
    print("  %-44s %14.6f s  (traced minus untraced operation time, mean of %d)"
          % ("trace.overhead_s", metrics["trace.overhead_s"]["value"], passes))
    for span, _, _ in tracing.SPANS:
        t = totals[span]
        print("  %-40s calls %9.0f  s %10.5f  self_s %10.5f  %s" % (
            span, t["calls"] / passes, t["s"] / passes, t["self_s"] / passes,
            " ".join("%s=%.0f" % (k, v / passes) for k, v in t.items() if k not in ("calls", "s", "self_s"))))
    print("  spans of the first traced pass: %s" % os.path.relpath(trace_path, ROOT))
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="propcalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # the imports and each set-up are scaled by the reference samples around them;
    # the first sample's own time is left out of the import time
    setup_speed = reference.Speed()
    before = time.perf_counter()
    setup_speed.sample()
    t0 = time.perf_counter()
    cli = load_propcalc()
    import_s = (before - START) + (time.perf_counter() - t0)
    setup_speed.after_op(import_s)
    setup_speed.sample()
    groups, directory, setup_times = setup(args.workload, args.seed, SETUP_REPEATS, setup_speed)
    scaled = setup_speed.scaled()
    setup_s = scaled[0] + statistics.median(scaled[1:])
    setup_raw_s = import_s + statistics.median(setup_times)
    schedule = [op for group in groups for op in group]
    # a CLI process starts with a small heap; keep the benchmark's own objects
    # out of the collector's way so they do not slow the program's collections
    gc.collect()
    gc.freeze()
    with open(os.path.join(HERE, "digests.json")) as handle:
        recorded = json.load(handle).get(args.workload, {})
    try:
        if args.trace:
            tracer = tracing.Tracer()
            runner = Runner(cli, args.seed, recorded, tracer)
            trace_path = os.path.join(ROOT, ".perfbench", "spans-%s-%d.jsonl.gz" % (args.workload, args.seed))
            attempted, failed, metrics = traced_run(runner, schedule, tracer, args.seconds, trace_path)
        else:
            runner = Runner(cli, args.seed, recorded)
            speed, failed, passes = closed_loop(runner, schedule, args.seconds)
            attempted = len(speed.times)
            metrics = report_untraced(args.workload, args.seed, schedule, speed, failed, passes, setup_s, setup_raw_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for op_id, reason in runner.failures[:20]:
        print("FAILED %s: %s" % (op_id, reason))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
