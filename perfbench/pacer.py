"""Reference load that tracks the speed of the CPU the benchmark runs on.

    python3 pacer.py OUT

The CPU of a shared virtual machine changes speed from second to second
(its host runs other guests), by as much as a third on the same code.
run.py pins itself, every child and this process to one CPU and starts
this process at the lowest priority, so it runs in the gaps of the child
it shares the CPU with and sees the same slow and fast spells.  It
repeats one fixed unit of exact-arithmetic work, independent of
homapprox, and after each unit records the monotonic clock and its own
CPU time.  Over any interval, units done per CPU second is the speed of
the CPU then; run.py scales the children's CPU times by it.

On SIGTERM, or when its parent is gone, it writes the samples to OUT:
every clock reading as a native double, then every CPU time.
"""
import os
import signal
import sys
import time
from array import array
from fractions import Fraction

NICE = 19  # the child keeps about 98 % of the CPU
PARENT_CHECK_EVERY = 1000  # units between checks that the parent lives


def unit(memo: dict) -> None:
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i, i + 7)
        memo[(i, i % 3)] = s


def main() -> int:
    out = sys.argv[1]
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICE)
    print("ready", flush=True)  # run.py waits for this before timing
    clock, cpu = array("d"), array("d")
    monotonic, process_time = time.monotonic, time.process_time
    memo: dict = {}
    while not stop:
        for _ in range(PARENT_CHECK_EVERY):
            unit(memo)
            clock.append(monotonic())
            cpu.append(process_time())
            if stop:
                break
        if os.getppid() != parent:
            break
    with open(out, "wb") as f:
        clock.tofile(f)
        cpu.tofile(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
