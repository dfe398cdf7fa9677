"""The per-stage split of ``dualq norms`` runs end to end on one tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_stage_split_compares_a_tree_with_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_split.py"), "--parent", str(ROOT), "--change", str(ROOT),
         "--rounds", "2", "--number", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(proc.stdout)
    assert set(result["kinds"]) == {"mixed", "appreciable", "infinitesimal"}
    for kind in result["kinds"].values():
        assert kind["moved_most"] in ("read", "parse_document", "compute", "render", "report")
        for stage in kind["stages"].values():
            assert stage["parent"]["median"] > 0 and stage["change"]["median"] > 0
