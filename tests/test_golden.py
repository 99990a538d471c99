"""Byte comparison of every deterministic artifact against checked-in files.

``tests/golden/`` holds the outputs of the fixture scenarios (CSV and JSON),
``compose-demo``'s trace and two small conformance reports, as written by
the CLI.  A refactor that changes one byte of any of them fails here.

To regenerate after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and review the diff of ``tests/golden/``.
"""

from pathlib import Path

import pytest

from vsensor.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

SCENARIOS = ("person_scenario", "gaze_voice_scenario", "text_reader_scenario",
             "all_kinds_scenario")
CSVS = ("trace.csv", "i2c.csv", "exposure.csv")
PROTOCOLS = ("person", "gaze")

CASES = (
    [(f"{s}/{name}", s) for s in SCENARIOS for name in CSVS + ("run.json",)]
    + [("compose_demo/trace.csv", "compose-demo")]
    + [(f"conformance/{p}.cfr.json", p) for p in PROTOCOLS]
)


def produce(relpath: str, source: str, out_root: Path) -> Path:
    """Write the artifact ``relpath`` under ``out_root`` through the CLI."""
    target = out_root / relpath
    if source == "compose-demo":
        argv = ["compose-demo", "--out", target.parent]
    elif source in PROTOCOLS:
        protocol = GOLDEN / "conformance" / f"{source}_protocol.json"
        argv = ["conformance", protocol, "--out", target]
    else:
        fmt = "json" if target.name == "run.json" else "csv"
        argv = ["simulate", FIXTURES / f"{source}.json", "--out", target.parent,
                "--format", fmt]
    assert main([str(a) for a in argv] + ["--quiet"]) == 0
    return target


@pytest.mark.parametrize("relpath,source", CASES, ids=[c[0] for c in CASES])
def test_artifact_matches_golden(relpath, source, tmp_path):
    produced = produce(relpath, source, tmp_path)
    assert produced.read_bytes() == (GOLDEN / relpath).read_bytes()


if __name__ == "__main__":
    for relpath, source in CASES:
        produce(relpath, source, GOLDEN)
        print(f"wrote {GOLDEN / relpath}")
