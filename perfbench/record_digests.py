"""Recompute the committed output digests in ``expected.json``.

    python3 perfbench/record_digests.py [--seeds 0-10]

The digests pin the outputs of the tree this runs on, segment by segment of
each seed's request stream, for the workloads whose outputs are exact
(``oracle-wide``: every oracle ``(min_value, argmin, candidates)``;
``criteria-grid``: every verdict).  Record them only from a commit whose
outputs are known to be right; a change that is meant to keep outputs must
pass against the digests as committed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# segments recorded per seed: more than a run of the current tree reaches
SEGMENTS = {"oracle-wide": 80, "criteria-grid": 250}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-10",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run.load_npsurf()
    import workloads

    expected = {}
    for name, segments in SEGMENTS.items():
        workload = workloads.WORKLOADS[name]()
        seeds = {}
        for seed in range(first, last + 1):
            runner = run.Runner(workload, seed, None)
            cal = run.Calibration()
            while len(runner.digests) < segments:
                runner.run_batch(runner.next_batch(), cal)
            if runner.failed:
                print(f"{name} seed {seed}: {runner.failed} outputs failed "
                      "their checks; nothing written", file=sys.stderr)
                return 1
            seeds[str(seed)] = runner.digests[:segments]
            print(f"{name} seed {seed}: {segments} segments", flush=True)
        expected[name] = {"every": workload.digest_every, "seeds": seeds}
    (run.HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
