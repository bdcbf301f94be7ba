import os
import re
import subprocess
import sys
from pathlib import Path

import repca

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


def test_fit_digest_is_the_same_in_every_process():
    """Fits are bit-for-bit deterministic across processes, whatever the
    string-hash seed: ``rerun`` relies on it, and refactors are checked by
    comparing this digest with the parent's."""
    lines = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(repca.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stderr == ""
        lines.append(run.stdout)
    assert re.fullmatch(r"151 [0-9a-f]{64}\n", lines[0]), lines[0]
    assert lines[0] == lines[1]
