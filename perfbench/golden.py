"""Golden SHA-256 hashes of the CLI's CSV output.

The golden set is every subcommand under the default config, plus every
``cli_curves`` job and every CLI job of ``protocol_scan`` in cycle 0 of seed
0.  A traced benchmark run recomputes the hashes and reports how many differ
as ``cli.golden_mismatches``; a difference is a count to explain, not a job
failure.

Refresh the stored hashes only for a deliberate output change:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import bootstrap  # noqa: F401  (sets BLAS threads, finds src/)
    __package__ = "perfbench"

from . import workloads as wl

GOLDEN_FILE = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0

DEFAULT_ARGV = {
    "coeffs": ["coeffs"],
    "protocol": ["protocol"],
    "protocol_trials": ["protocol", "--trials", "1000"],
    "fidelity": ["fidelity"],
    "fidelity_oracle": ["fidelity", "--oracle"],
    "figure2": ["figure2"],
    "oracle_check": ["oracle-check"],
}


def golden_jobs(directory: Path) -> dict:
    """key -> (argv, directory the argv's files live in)."""
    jobs = {}
    for label, argv in DEFAULT_ARGV.items():
        jobs[f"default/{label}"] = (argv + ["--out", f"default_{label}.csv"], directory)
    for name in ("cli_curves", "protocol_scan"):
        cdir = directory / name
        for job in wl.generate(wl.WORKLOADS[name], GOLDEN_SEED, 0, cdir):
            if job.kind == "cli":
                jobs[f"{name}/seed{GOLDEN_SEED}/cycle0/{job.id}"] = (job.argv, cdir)
    return jobs


def compute(cat, directory: Path) -> dict:
    """key -> SHA-256 of the CSV the job writes (or its exit code if non-zero)."""
    hashes = {}
    for key, (argv, cdir) in golden_jobs(directory).items():
        job = wl.Job(name=key, kind="cli", argv=argv)
        rc, _err = wl.execute(job, cat, cdir)
        out = cdir / argv[argv.index("--out") + 1]
        hashes[key] = hashlib.sha256(out.read_bytes()).hexdigest() if rc == 0 else f"exit {rc}"
    return hashes


def mismatches(cat, directory: Path) -> int:
    stored = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    current = compute(cat, directory)
    return sum(stored.get(k) != v for k, v in current.items()) + len(stored.keys() - current.keys())


def main():
    from perfbench import harness

    cat = harness.load_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        hashes = compute(cat, Path(tmp))
    GOLDEN_FILE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN_FILE.name}")


if __name__ == "__main__":
    main()
