"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

It checks that BENCHMARK.json lists exactly the per-layer metrics the tracer
reports.  For every workload it runs the pool at the default seed once untraced and
once traced and checks that
  * every operation passes its oracle (and the recorded digest at the default seed),
  * the traced run's stdout digests equal the untraced run's,
  * wrappers are installed at every binding site of a free function, found
    by a scan made before the tracer is installed, and the functions named in
    EXPECTED_SITES are bound at the stated number of sites,
  * every span LAYER_MAP says should move on the workload is called there.
Exits 1 if any check fails.
"""

import json
import os
import shutil
import sys

import run
import tracing

# binding sites of free functions that are imported into other propcalc modules
EXPECTED_SITES = {"chains.assemble_tensor_map": 3, "endo.endo_vertical": 3, "profiles.canonicalize_profile": 6}


def binding_sites():
    """(span, module name, attribute, function) for every binding of a wrapped free function.

    Made independently of the tracer, by the same identity rule: every loaded
    propcalc module attribute that is the function object itself.
    """
    modules = {n: m for n, m in sys.modules.items() if m is not None and (n == "propcalc" or n.startswith("propcalc."))}
    sites = []
    for span, mod_name, path in tracing.SPANS:
        if "." in path:
            continue  # a method, wrapped on its class
        original = getattr(modules["propcalc." + mod_name], path)
        if isinstance(original, type):
            continue  # a class, whose constructor is wrapped on the class itself
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                if value is original:
                    sites.append((span, name, attr, original))
    return sites


def check_sites(sites):
    """Problems with the installed wrappers at the sites found before install."""
    problems = []
    counts = {}
    for span, name, attr, original in sites:
        counts[span] = counts.get(span, 0) + 1
        value = getattr(sys.modules[name], attr)
        if getattr(value, "__wrapped__", None) is not original:
            problems.append("binding site %s.%s of %s is not wrapped" % (name, attr, span))
    for span, expected in EXPECTED_SITES.items():
        if counts.get(span, 0) != expected:
            problems.append("%s is bound at %d sites, expected %d" % (span, counts.get(span, 0), expected))
    return problems


def check_workload(cli, workload, seed, recorded):
    problems = []
    groups, directory, _ = run.setup(workload, seed)
    schedule = [op for group in groups for op in group]
    tracer = tracing.Tracer()
    runner = run.Runner(cli, seed, recorded, tracer)
    try:
        _, plain, failed = run.one_pass(runner, schedule)
        if failed:
            problems += ["oracle: %s: %s" % f for f in runner.failures]
        free_sites = binding_sites()
        tracer.install()
        try:
            problems += check_sites(free_sites)
            for span, sites in tracer.sites.items():
                if not sites:
                    problems.append("no binding site for %s" % span)
            sites = sum(len(s) for s in tracer.sites.values())
            _, traced, _ = run.one_pass(runner, schedule, tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for op_id, digest in plain.items():
        if traced.get(op_id) != digest:
            problems.append("traced stdout of %s differs from the untraced run" % op_id)
    layers = tracer.layer_metrics()
    for entries, metrics, move_on, _ in tracing.LAYER_MAP:
        if workload in move_on:
            for span in tracing.spans_of(entries):
                if layers[span]["calls"] == 0:
                    problems.append("%s is never called, but should move %s" % (span, "/".join(metrics)))
    idle = [span for span, values in layers.items() if values["calls"] == 0]
    print("%-9s %3d operations, %3d binding sites wrapped, %s; spans not called: %s"
          % (workload, len(schedule), sites, "ok" if not problems else "%d problems" % len(problems),
             ", ".join(idle) or "none"))
    for p in problems:
        print("    " + p)
    return problems


def main():
    cli = run.load_propcalc()
    with open(os.path.join(run.HERE, "digests.json")) as handle:
        digests = json.load(handle)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        listed = [m["name"] for m in json.load(handle)["per_layer"]]
    problems = []
    if listed != tracing.metric_names() + ["trace.overhead_s"]:
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
        print(problems[-1])
    for workload in run.WORKLOADS:
        problems += check_workload(cli, workload, run.DEFAULT_SEED, digests.get(workload, {}))
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
