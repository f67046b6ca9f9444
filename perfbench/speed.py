"""How fast the machine runs while a CPU-bound job runs.

On a shared virtual machine the speed of the cores drifts by up to half,
switching within a fraction of a second and staying slow for minutes at a
time as other tenants come and go; this moves a 30-second run of a
CPU-bound job by 25-40%. A ``Sampler`` runs this file as a process of its
own, which times a short fixed pure-Python probe every ``PERIOD_S`` and
appends each time to a file. A job's time is then scaled by ``NOMINAL_S``
over the mean probe time during the job: the job as it would run on a
core where the probe takes ``NOMINAL_S``. Time spent waiting on something
outside the machine's cores, such as an endpoint's fixed latency, is left
unscaled.

The probe shares no interpreter, heap or collector with the program and
uses only the standard library, so a change to the program does not
change it. Probing between jobs instead, in the program's process, misses
the switches inside a job: on the machine the benchmark was written on,
the log of a prepare job's time left after scaling by probes taken before
and after it spread by 0.16 (standard deviation), against 0.06 with this
sampler.

    python3 perfbench/speed.py SAMPLES_FILE   # probes until its input ends
"""

from __future__ import annotations

import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

NOMINAL_S = 0.0009  # one probe on an idle core of the machine the benchmark was written on
PERIOD_S = 0.05
WAIT_S = 5.0  # longest wait for a sample after a job before the sampler counts as dead
_WORDS = ("select", "from", "where", "join", "group", "order", "t1", "t2", "col", "count")


def _work() -> int:
    rng = random.Random(7)
    acc = 0
    for _ in range(150):
        counts: dict[str, int] = {}
        for word in (rng.choice(_WORDS) for _ in range(12)):
            counts[word] = counts.get(word, 0) + 1
        acc += len(" ".join(sorted(counts)))
    return acc


def probe() -> float:
    """CPU seconds the fixed probe takes now."""
    t0 = time.thread_time()
    _work()
    return time.thread_time() - t0


def nominal(elapsed: float, factor: float, items_ms=(), waited_ms=()) -> tuple[float, list]:
    """Scale a job to nominal speed.

    ``elapsed`` is the job's wall time in seconds; ``items_ms`` are
    per-item times measured inside it and ``waited_ms`` the part of each
    that waited on something the machine's speed does not change. Returns
    the job's nominal time and the items' nominal times. Without per-item
    times the whole job is scaled.
    """
    if not items_ms:
        return elapsed * factor, []
    waited_ms = waited_ms or [0.0] * len(items_ms)
    scaled = [w + (ms - w) * factor for ms, w in zip(items_ms, waited_ms)]
    return elapsed * sum(scaled) / sum(items_ms), scaled


class Sampler:
    """Probes the machine from a process of its own while in use.

    Times are ``time.monotonic()`` readings, which are the same clock in
    every process of the machine.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)
        self._offset = 0
        self._proc = None

    def __enter__(self):
        self.path.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path)], stdin=subprocess.PIPE
        )
        try:
            self._wait_past(time.monotonic())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        proc, self._proc = self._proc, None
        proc.stdin.close()  # end of input stops the sampler
        try:
            proc.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def _read(self) -> None:
        with self.path.open("rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        self._offset += len(complete)
        for line in complete.decode("ascii").splitlines():
            when, seconds = line.split()
            self.samples.append((float(when), float(seconds)))

    def _wait_past(self, t: float) -> None:
        deadline = time.monotonic() + WAIT_S
        self._read()
        while not self.samples or self.samples[-1][0] <= t:
            if time.monotonic() > deadline or self._proc.poll() is not None:
                raise RuntimeError("the speed sampler stopped probing")
            time.sleep(0.005)
            self._read()

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured speed between monotonic times ``t0`` and
        ``t1``, from the probes that ended inside, up to and including the
        first one after: below 1 when the machine ran fast."""
        self._wait_past(t1)
        after = next(when for when, _ in self.samples if when > t1)
        inside = [s for when, s in self.samples if t0 <= when <= after]
        return NOMINAL_S / statistics.mean(inside)


def _sample(path: str) -> None:
    with open(path, "a", encoding="ascii") as out:
        while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
            seconds = probe()
            out.write(f"{time.monotonic()!r} {seconds!r}\n")
            out.flush()


if __name__ == "__main__":
    _sample(sys.argv[1])
