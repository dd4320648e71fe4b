"""Record the stdout digest and exit code of every CLI step in run.py.

    python3 bench/record.py

Writes bench/expected.json, which run.py checks every step against.  Each
step runs twice and must print the same bytes both times.  Record only at a
commit whose CLI output is known to be right: byte-identical stdout is the
contract that later changes are held to.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def steps() -> list[run.Step]:
    found = {}
    for sizes in (run.FULL, run.SMOKE):
        for step in [sizes["asym"], *(s for group in sizes["table"] + sizes["sweep"] for s in group)]:
            found[step.key] = step
    return list(found.values())


def main() -> int:
    recorded = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        for step in steps():
            args = list(step.args) + (["--jobs", str(run.jobs())] if step.takes_jobs else [])
            seen = set()
            for _ in range(2):
                res = run.run_child(work, ["cli", "{report}", "0", *args], "record")
                if res.code not in (0, 1) or res.report is None:
                    print(f"step failed ({res.code}): {step.key}\n{res.stderr}", file=sys.stderr)
                    return 1
                seen.add((res.code, run._sha256(res.stdout), res.stdout.stat().st_size))
            if len(seen) != 1:
                print(f"nondeterministic output: {step.key}", file=sys.stderr)
                return 1
            code, sha, size = seen.pop()
            recorded[step.key] = {"exit": code, "sha256": sha, "bytes": size}
            print(f"exit {code} {size:>9} B  {step.key}")
    run.EXPECTED.write_text(json.dumps(
        {"commit": run.git_commit(), "steps": recorded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
