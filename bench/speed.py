"""The host's speed, from fixed reference work timed between operations.

The benchmark runs on a few cores of a shared host whose speed for the same
work shifts by up to 1.8 times, for seconds or for minutes at a time, as the
load beside it comes and goes.  Wall times taken at different moments then
differ by more than any change worth detecting.  So the timed phase also
times a reference every ``every_s`` seconds of operation time, and each
operation's time is scaled by how long the references around it took
against the reference's nominal time.  The scaled times are those of a host
on which the reference takes its nominal time; the report keeps the
unscaled ones too.

Two references, neither of which runs sqmv code:

- ``BLOCK``, for work inside the benchmark's process: build, print, parse
  and evaluate terms with exact rationals in the benchmark's own code, the
  kind of work most of sqmv does.
- ``START_UP``, for work in fresh processes: start ``python -c pass``.  The
  in-process block does not follow the host's speed for process start-up
  (page faults, imports), which moves on its own.

    python3 bench/speed.py      # prints each reference's median time here, in ms
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import terms as T

WINDOW = 6        # references around an operation that give its speed
BLOCK_TERMS = 80  # terms per block


def block() -> list:
    """Fixed work: build terms, print and parse them, and evaluate them
    exactly on the square with rational values."""
    rng = random.Random(0)
    out = []
    for _ in range(BLOCK_TERMS):
        t = T.parse(T.text(T.random_term(rng, "mv", 5)))
        v = {n: (Fraction(rng.randint(-40, 40), 40), Fraction(rng.randint(-40, 40), 40))
             for n in ("x", "y", "z")}
        out.append(T.eval_square(t, v))
    return out


def start_up() -> None:
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Reference:
    def __init__(self, name: str, work, nominal_ms: float, every_s: float):
        self.name = name
        self.work = work
        self.nominal_ms = nominal_ms  # the scaled times assume this time
        self.every_s = every_s        # operation time between two references

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def median_s(self, repeats: int = 5) -> float:
        """Median time in this process, after one run to warm up."""
        self.work()
        return statistics.median(self.time() for _ in range(repeats))

    def scale(self, value: float, reference_s: float) -> float:
        """A time ``value`` measured while the reference took
        ``reference_s``, at the nominal speed."""
        return value * self.nominal_ms / 1000 / reference_s


BLOCK = Reference("block", block, nominal_ms=4.0, every_s=0.2)
START_UP = Reference("start-up", start_up, nominal_ms=50.0, every_s=0.5)


class Track:
    """Reference times taken between operations, keyed by the number of
    operations that had finished when each was taken."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.at: list[int] = []
        self.seconds: list[float] = []
        self._busy_at_last = None

    def sample(self, done: int) -> None:
        self.at.append(done)
        self.seconds.append(self.reference.time())

    def maybe_sample(self, done: int, busy: float) -> None:
        """Time the reference if ``every_s`` of operation time has passed
        since the last one."""
        if self._busy_at_last is None or busy - self._busy_at_last >= self.reference.every_s:
            self._busy_at_last = busy
            self.sample(done)

    def scaled(self, op: int, value: float) -> float:
        """Operation ``op``'s (0-based) time ``value`` at the nominal speed,
        from the median of the ``WINDOW`` references nearest before and
        after it."""
        j = bisect.bisect_right(self.at, op)  # the first reference after the op
        lo = max(0, min(j - WINDOW // 2, len(self.seconds) - WINDOW))
        return self.reference.scale(value, statistics.median(self.seconds[lo:lo + WINDOW]))


if __name__ == "__main__":
    for ref in (BLOCK, START_UP):
        print(f"{ref.name}: {1000 * ref.median_s(20):.3f}")
