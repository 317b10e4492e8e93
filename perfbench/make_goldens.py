"""Write golden/<system>.json: the default JSON report of every input
file the workloads use, exactly as the CLI prints it.

    python3 perfbench/make_goldens.py

Run it only on a commit whose reports are known to be right; the
benchmark compares every later report with these bytes.
"""
import os
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HOMAPPROX_CACHE_DIR", None)
    (BENCH / "golden").mkdir(exist_ok=True)
    systems = {(c.system, c.exit_code) for cases in WORKLOADS.values() for c in cases}
    for system, exit_code in sorted(systems):
        argv = [sys.executable, "-m", "homapprox.cli", "--format", "json"]
        argv += ["--input", str(BENCH / "systems" / f"{system}.txt")]
        proc = subprocess.run(argv, capture_output=True, env=env, check=False)
        if proc.returncode != exit_code:
            print(f"{system}: exit {proc.returncode}, expected {exit_code}")
            return 1
        (BENCH / "golden" / f"{system}.json").write_bytes(proc.stdout)
        print(f"{system}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
