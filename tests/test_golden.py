"""Golden artifacts: every shipped (config, subcommand) pair, plus
``penalty-evolve`` and ``expect`` on ``oracle_t3.json`` under all four
framework labels, must keep its exit code and, on exit 0, the sha256 of
every artifact it writes (the manifest without its ``wall_time_s`` field).

The digests in ``golden_digests.json`` hold for the numpy build and
OpenBLAS kernel they were recorded with, as ``bench/references.json``
does; another BLAS may round a product differently. Record them with
``python tests/test_golden.py`` only from a tree whose artifacts are known
good.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robusthmm.cli import main  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
COMMANDS = ("simulate", "filter", "penalty-evolve", "expect", "control",
            "oracle-check")
LABELS = ("static-up", "dynamic-up", "static-dr", "dynamic-dr")

CASES = ([(cfg.name, cmd, None) for cfg in sorted(CONFIGS.glob("*.json"))
          for cmd in COMMANDS]
         + [("oracle_t3.json", cmd, label)
            for cmd in ("penalty-evolve", "expect") for label in LABELS])


def _case_id(name, command, label):
    return f"{name}|{command}" + (f"|{label}" if label else "")


def _digests(name, command, label, work: Path) -> dict:
    """Exit code and per-artifact sha256 of one CLI run inside ``work``."""
    config = CONFIGS / name
    if label is not None:
        cfg = json.loads(config.read_text())
        cfg["framework"] = label
        config = work / f"{label}.json"
        config.write_text(json.dumps(cfg))
    out = work / "out"
    code = main([command, "--config", str(config), "--out", str(out)])
    files = {}
    if code == 0:
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("wall_time_s")
                data = json.dumps(manifest, indent=2, sort_keys=True).encode()
            files[path.name] = hashlib.sha256(data).hexdigest()
    return {"exit": code, "files": files}


@pytest.mark.parametrize("name,command,label", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_artifacts_match_recorded_digests(tmp_path, name, command, label):
    recorded = json.loads(DIGESTS.read_text())[_case_id(name, command, label)]
    assert _digests(name, command, label, tmp_path) == recorded


if __name__ == "__main__":
    doc = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            doc[_case_id(*case)] = _digests(*case, Path(work))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc)} cases in {DIGESTS}")
