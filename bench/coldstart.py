"""Set-up time of one fresh interpreter, uncorrected and corrected.

    python3 bench/coldstart.py <workload> <seed>

prints [seconds, corrected seconds] as JSON (see gauge.py); run.py starts
this several times per run and reports the median corrected time as
setup_s.
"""

import json
import random
import sys

import run


def main(argv):
    workload, seed = argv[0], int(argv[1])
    root = run.repo_root()
    references = json.loads(run.REFERENCES.read_text())["items"]
    _, seconds, corrected = run.cold_setup(workload, random.Random(seed),
                                           references, run.scratch_dir(root))
    print(json.dumps([seconds, corrected]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
