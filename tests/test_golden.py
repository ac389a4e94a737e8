"""Every golden CLI job still writes byte-identical CSV.

The hashes live in ``perfbench/golden.json``; see ``perfbench/golden.py`` for
the job set and for how to refresh them after a deliberate output change.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import catteleport.cli  # noqa: E402
from perfbench import golden  # noqa: E402


def test_cli_output_matches_golden_hashes(tmp_path):
    # a failure lists the jobs whose bytes moved
    stored = json.loads(golden.GOLDEN_FILE.read_text(encoding="utf-8"))
    assert golden.compute(SimpleNamespace(cli=catteleport.cli), tmp_path) == stored
