"""Host-speed probe: a fixed numpy kernel shaped like iondpt's dense work.

Usage (spawned by run.py):
    python3 perfbench/calibrate.py

For each line read from standard input it prints the median time, in
seconds, of BLOCKS timed blocks of a fixed kernel: products U rho U+ of
dense complex matrices at the dimensions of the cutoff ladder's rungs 30,
68 and 153 (62, 138 and 308), the shape of the noise-free drive and of the
split-step half-steps.  It exits at the end of its input.

The products run on OpenBLAS with its default threads, so the kernel
keeps both cores of a 2-vCPU host busy the way the workloads do; a
BLAS-free kernel, which keeps one core busy, read the host as faster or
slower than the workloads found it.  It never imports iondpt, so a change
to the program cannot move it.  run.py starts it once per run, asks for a
measurement after each set-up sample and each repetition, and scales the
repetitions' times by how fast the host ran the kernel over the run
(README.md, "Host speed").  Between requests it waits on its input and
uses no CPU.
"""

import statistics
import sys
import time

import numpy as np

BLOCKS = 9
DIMS = (62, 138, 308)
PRODUCTS = 6                # per dimension, per block


def make_block():
    """A function running one block of the kernel; returns a checksum."""
    rng = np.random.default_rng(12345)
    pairs = []
    for dim in DIMS:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(z)
        pairs.append((u, u.conj().T))

    def block():
        total = 0.0
        for u, uh in pairs:
            rho = np.eye(u.shape[0], dtype=complex) / u.shape[0]
            for _ in range(PRODUCTS):
                rho = u @ rho @ uh
            total += float(np.trace(rho).real)
        return total
    return block


def measure(block, blocks=BLOCKS):
    """Median time of `blocks` timed runs of `block`, after one untimed."""
    block()
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        block()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    block = make_block()
    for _ in sys.stdin:
        print(repr(measure(block)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
