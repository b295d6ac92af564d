"""Re-pin the expected exit code and stdout SHA-256 of every fixed call.

    python3 perfbench/pin.py

Run from a checkout root whose outputs are known to be right; writes
``perfbench/expected.json``.  The tables must stay byte-identical, so a
change to this file needs a reason of its own.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, Runner


def main() -> int:
    pinned = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(Path(workdir))
        for calls in workloads.FIXED_WORKLOADS.values():
            for args in calls:
                _, code, stdout, _ = runner.spawn([sys.executable, "-m", "korbits.cli", *args])
                pinned[" ".join(args)] = {"exit_code": code, "sha256": workloads.sha256(stdout)}
                print(f"exit {code} {pinned[' '.join(args)]['sha256'][:12]} {' '.join(args)}")
    workloads.EXPECTED_FILE.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
