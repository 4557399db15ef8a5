"""Record the reference artifact digests that ``run.py`` checks against.

Usage (from the repository root)::

    python3 bench/record_references.py

Runs every job of every workload once for each of the seeds 0-15, applies
the same output checks as a benchmark run, and writes one sha256 per job
(artifacts other than ``manifest.json``) to ``bench/references.json``.
Re-record only when a change is meant to alter artifacts; byte-identical
artifacts are a project invariant, so a digest mismatch in a benchmark run
counts as a failed job.
"""

import json
import sys

import run

SEEDS = range(16)


def main() -> int:
    refs = {}
    for name in run.WORKLOADS:
        for seed in SEEDS:
            work = run.WORK / "references" / name
            run.clear(work)
            cli, jobs, _ = run.setup(name, seed, work)
            wl = run.Workload(cli, name, seed, jobs, work)
            wl.reference = None
            wl.run_pass()
            run.clear(work)
            if wl.problems:
                print("\n".join(wl.problems), file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = wl.digests
            print(f"{name} seed {seed}: {len(wl.digests)} jobs", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
