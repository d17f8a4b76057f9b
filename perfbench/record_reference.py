#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for every data-file command of the `cli`
workload its exit code, stdout digest and report digest (version dropped,
input paths cut to file names), and for each of the 500 acceptance fixtures
the digest of its criteria 4-7 audit tuples and bars. Every recorded output
depends only on dimensions and ranks, never on a choice of basis, so a
correct change to the algorithms leaves it unchanged. Run it only on a
commit whose outputs are trusted; it takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.dont_write_bytecode = True

import workloads  # noqa: E402


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE.parent,
                            capture_output=True, text=True).stdout.strip()
    cli_ref = {}
    work_dir = HERE.parent / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        for name, argv, json_out in workloads.data_commands():
            path = Path(tmp) / "report.json" if json_out else None
            cli_ref[name] = workloads.cli_fingerprint(workloads.run_cli(argv, path))
    randfix = workloads.load_randfix()
    sweep_ref = []
    for index in range(workloads.SWEEP_BATCH):
        broken, record = workloads.verify_fixture(*workloads.fixture_inputs(randfix, index))
        if broken:
            print(f"fixture {index} breaks a law: {broken}", file=sys.stderr)
            return 1
        sweep_ref.append(workloads.digest(record))
    out = {"recorded_at": commit, "cli": cli_ref, "sweep": sweep_ref}
    workloads.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"wrote {workloads.REFERENCE} ({len(cli_ref)} commands, {len(sweep_ref)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
