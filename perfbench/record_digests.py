"""Record the stdout digest of every operation of every workload at the default seed.

    python3 perfbench/record_digests.py

The benchmark compares each operation's stdout with these digests when it
runs at the default seed (and at every seed for operations whose input does
not depend on the seed).  Re-record only in a change that means to alter
propcalc's output, and say so in that change.
"""

import json
import os
import shutil

import run


def main():
    cli = run.load_propcalc()
    digests = {}
    for workload in run.WORKLOADS:
        groups, directory, _ = run.setup(workload, run.DEFAULT_SEED)
        try:
            runner = run.Runner(cli, run.DEFAULT_SEED, None)
            _, _, failed = run.one_pass(runner, [op for group in groups for op in group])
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if failed:
            raise SystemExit("%s: %d operations failed: %r" % (workload, failed, runner.failures[:5]))
        digests[workload] = dict(sorted(runner.digests.items()))
        print("%s: %d operations" % (workload, len(runner.digests)))
    with open(os.path.join(run.HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
