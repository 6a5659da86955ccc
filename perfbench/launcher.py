#!/usr/bin/env python3
"""Times fresh interpreters until semcom is imported and the configs are loaded.

    python3 perfbench/launcher.py <src dir> <config>...

Each line on standard input asks for one launch; each launch answers with one
JSON line, ``{"setup_s": ..., "import_s": ...}``. The benchmark keeps this
process alive across its run, so the launched interpreters are children of
this process and not of the benchmark: their CPU time and memory reach the
benchmark's own figures only when it reaps this process, after it has read
them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import semcom
from semcom.config import load_config
t1 = time.perf_counter()
for path in sys.argv[2:]:
    load_config(path, 0)
print(json.dumps({"import_s": t1 - t0}), flush=True)
"""


def launch(argv: list[str]) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *argv], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0:
        raise RuntimeError("set-up interpreter failed")
    return {"setup_s": setup, "import_s": json.loads(line)["import_s"]}


def main(argv: list[str]) -> int:
    for _ in sys.stdin:
        print(json.dumps(launch(argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
