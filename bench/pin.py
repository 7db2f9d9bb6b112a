"""Pin the reference energies the accuracy gate checks against.

Runs every energy and sweep item of every workload once and writes
E, l_max_used, quad_error and extrap_error (the sweep: its CSV rows) to
``references.json``.  Run it only on code whose energies are trusted;
a later change must reproduce these numbers, not re-pin them:

    python3 bench/pin.py
"""

import json
import random
import sys

import run
import workloads


def main():
    root = run.repo_root()
    run.use_checkout_source(root)
    scratch = run.scratch_dir(root)
    refs = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.build(workload, random.Random(0), scratch):
            if item.kind == "probe":
                continue
            refs[item.name] = workloads.record(item, item.call())
            print(workload, item.name, refs[item.name], flush=True)
    doc = {"source": run.source_identity(root), "items": refs}
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
