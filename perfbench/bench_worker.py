"""Child processes of the benchmark.

    python3 perfbench/bench_worker.py setup   <workload.json>
    python3 perfbench/bench_worker.py measure <workload.json> <seconds> <csv path>

``setup`` imports fctherm and its CLI, loads the config, builds probe and
bath, evaluates the first point and prints ``ready``; whoever spawned it
times it from process start.  It then prints one speed probe of its own, as
the machine may run this process at another speed than its parent.

``measure`` runs only the given workload, tracing off, in rounds until
``seconds`` have elapsed.  Each round times, one after the other:

* one set-up probe (a fresh ``setup`` interpreter, see above);
* one complete CLI pass (``fctherm.cli.main`` in-process, ``--workers 1``);
* one latency cycle: a single-caller closed loop over every point of the
  workload through the library API.

A speed probe (``speed_probe``: a fixed reference kernel that uses no
fctherm code) runs between these steps and, from a timer signal, every
``REF_EVERY_S`` seconds inside a CLI pass or latency cycle; the time spent
in those probes is left out of what they interrupt.  Every CLI pass and
latency sample is recorded with the mean of the probes inside it and the two
around it, and every set-up probe with its own speed probe, so that the
parent can scale it to a fixed reference speed: on a shared host the
machine's speed changes by up to 2x, from one second to the next and for
minutes at a time.  Rounds continue until there are at least 100 latency samples (or two
cycles), and set-up probes until there are ``MIN_SETUPS``.  The last stdout
line is a JSON record that includes the process's peak resident set size.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_checks import sha256_file  # noqa: E402
from bench_workloads import Workload, import_program, run_point  # noqa: E402

ROOT = HERE.parent
MIN_LATENCY_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_SETUPS = 11
SETUP_TIMEOUT_S = 60
REF_REPEATS = 3            # a speed probe is the mean of this many reference-kernel runs
REF_EVERY_S = 0.25         # period of the speed probes inside a pass or latency cycle
_REF_X = np.linspace(0.01, 5.0, 2048)


class SetupFailed(RuntimeError):
    """A set-up probe exited without completing its first point."""


def cli_argv(workload: Workload, csv_path: Path) -> list[str]:
    return [workload.command, "--config", workload.config_path, "--out", str(csv_path),
            "--workers", "1"]


def cli_pass(fctherm, workload: Workload, csv_path: Path) -> tuple[int, float]:
    """One CLI run with its console output captured; returns (exit code, seconds)."""
    csv_path.unlink(missing_ok=True)
    sink = io.StringIO()
    gc.collect()  # every pass starts from the same collector state
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = fctherm.cli.main(cli_argv(workload, csv_path))
    return rc, time.perf_counter() - t0


def time_setup(workload_file: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh ``setup`` interpreter to its ``ready`` line,
    and the speed probe it took after that line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "setup", str(workload_file)]
    with tempfile.TemporaryFile("w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            ref = proc.stdout.readline()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != "ready":
            err.seek(0)
            raise SetupFailed(f"exit {proc.returncode}: {err.read()[-2000:]}")
    return elapsed, float(ref)


def setup(workload_file: Path) -> None:
    workload = Workload.load(workload_file)
    fctherm = import_program(ROOT)
    cfg = fctherm.load_config(workload.config_path)
    run_point(fctherm, cfg, workload, workload.points[0])
    print("ready", flush=True)
    print(repr(speed_probe()), flush=True)


def _reference_kernel() -> float:
    """Fixed interpreter and single-threaded array work, independent of fctherm."""
    acc = 0.0
    for k in range(30):
        y = np.exp(-_REF_X * (k + 1) * 1e-2) * np.cos(_REF_X * k)
        acc += float(y.sum()) + float(np.abs(y[:64]).max())
        acc += sum(math.sin(0.1 * v) for v in range(40)) + {"k": k}["k"]
    return acc


def speed_probe() -> float:
    """Seconds the reference kernel takes at the machine's current speed (mean of a few)."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        _reference_kernel()
    return (time.perf_counter() - t0) / REF_REPEATS


class SpeedTrack:
    """The machine's speed over a run, as a time line of speed probes.

    ``probe`` takes one probe; inside ``sampling()`` a timer signal takes one
    every ``REF_EVERY_S`` seconds and ``timer_s`` adds up their time, which
    ``timed`` leaves out of the span it measures.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []
        self.timer_s = 0.0

    def probe(self) -> float:
        t0 = time.perf_counter()
        ref = speed_probe()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.refs.append(ref)
        return t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.timer_s += self.probe()

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args) -> tuple:
        """``fn(*args)``; returns (its result, seconds without probes, span)."""
        timer_s, t0 = self.timer_s, time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        return result, (t1 - t0) - (self.timer_s - timer_s), (t0, t1)

    def ref_over(self, span: tuple[float, float]) -> float:
        """Mean probe inside ``span``, with the last one before it and the first after it."""
        lo = max(bisect.bisect_left(self.times, span[0]) - 1, 0)
        hi = bisect.bisect_right(self.times, span[1]) + 1
        return statistics.mean(self.refs[lo:hi])


def _point_ok(fctherm, cfg, workload: Workload, point) -> bool:
    try:
        return run_point(fctherm, cfg, workload, point)
    except Exception:  # a raising point is a failed sample, and still timed
        return False


def latency_cycle(fctherm, cfg, workload: Workload, track: SpeedTrack):
    """Time every point once; returns ([seconds, span] per point, failed points)."""
    samples, failed = [], 0
    gc.collect()
    with track.sampling():
        for point in workload.points:
            ok, seconds, span = track.timed(_point_ok, fctherm, cfg, workload, point)
            samples.append([seconds, span])
            failed += not ok
    return samples, failed


def measure(workload_file: Path, seconds: float, csv_path: Path) -> None:
    workload = Workload.load(workload_file)
    fctherm = import_program(ROOT)
    cfg = fctherm.load_config(workload.config_path)
    run_point(fctherm, cfg, workload, workload.points[0])  # lazy set-up out of the timings
    time_setup(workload_file)  # compiles bytecode and warms the file cache

    track = SpeedTrack()
    setups, passes, latency, failed, cycles = [], [], [], 0, 0

    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds or (
        len(latency) < MIN_LATENCY_SAMPLES and cycles < 2
    ):
        setups.append(time_setup(workload_file))
        track.probe()
        with track.sampling():
            (rc, _), elapsed, span = track.timed(cli_pass, fctherm, workload, csv_path)
        track.probe()
        sha = sha256_file(csv_path) if rc == 0 and csv_path.exists() else None
        passes.append({"rc": rc, "seconds": elapsed, "span": span, "sha256": sha})
        samples, bad = latency_cycle(fctherm, cfg, workload, track)
        track.probe()
        latency.extend(samples)
        failed += bad
        cycles += 1
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(workload_file))

    for p in passes:
        p["ref_s"] = track.ref_over(p.pop("span"))
    print(json.dumps({
        "setup_s": setups,
        "passes": passes,
        "latency_s": [[t, track.ref_over(span)] for t, span in latency],
        "latency_failed": failed,
        "latency_cycles": cycles,
        "speed_probes": len(track.refs),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)


def main(argv: list[str]) -> int:
    warnings.simplefilter("ignore")
    mode = argv[0] if argv else ""
    try:
        if mode == "setup" and len(argv) == 2:
            setup(Path(argv[1]))
            return 0
        if mode == "measure" and len(argv) == 4:
            measure(Path(argv[1]), float(argv[2]), Path(argv[3]))
            return 0
    except SetupFailed as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
