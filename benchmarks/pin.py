"""Write pins.json: exit code and stdout sha256 of every fixed (unseeded)
benchmark command, and the digest of the cache directory that the forms
workload writes.

    python3 benchmarks/pin.py

The pins in the repository were taken at the commit that defined the
benchmark.  Re-pin only when a change of output is intended; a re-pin
belongs in its own change, with the reason.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run
import workloads


def main() -> None:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    pass_dir = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        with run.Runner() as runner:
            stdout = {}
            for cmd in workloads.pinned_commands():
                res = runner.cli(cmd.argv, pass_dir)
                stdout[cmd.key] = [res.rc, workloads.sha256(res.stdout)]
        forms_dir = workloads.forms_dir_digest(os.path.join(pass_dir, "forms"))
    finally:
        shutil.rmtree(pass_dir)
    with open(workloads.PINS_FILE, "w") as fh:
        json.dump({"stdout": stdout, "forms_dir": forms_dir}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
