"""Set-up probe of the spherebif benchmark.

Times, in a fresh interpreter, what a user of the ``spherebif`` command pays
before any computation: importing the package (numpy and scipy included)
and building the workload's discrete systems.  ``run.py`` starts it several
times per run and reports the median.  Prints one JSON object:
``{"import_s": ..., "build_s": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # the set-up does not depend on the seed
    ops = workloads.WORKLOADS[args.workload](0, args.size)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spherebif.cli as cli

    imported = time.perf_counter()
    workloads.build_setup(ops, cli)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
