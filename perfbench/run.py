"""Run one workload of the npsurf benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; npsurf is imported from the
checkout's ``src/`` and nowhere else.  The metric names and units come from
``BENCHMARK.json`` at the checkout root.

``--trace 0`` measures the end-to-end metrics: the median of several cold
``python -m npsurf`` launches (``setup_s``), then the workload in process for
``--seconds`` after one warm-up batch.  ``--trace 1`` measures the per-layer
metrics: a fixed number of untraced batches, then as many traced ones, so
every count repeats exactly for a seed; the difference between the two
phases is the tracing overhead.  Every output is checked in both modes.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BOX_ENV = "NP_ORACLE_BOX"
SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
RESERVOIR = 100_000       # latency samples kept, so memory does not grow with speed
NOMINAL_SLICE_S = 1.2e-3   # calibration slice time that defines the nominal speed
CALIBRATE_EVERY_S = 0.05


class BenchError(Exception):
    """The checkout cannot be measured; no result is printed."""


def load_npsurf():
    """Import npsurf from this checkout's ``src/`` and prove that it did."""
    os.environ.pop(BOX_ENV, None)
    if not (SRC / "npsurf" / "__init__.py").is_file():
        raise BenchError(f"no npsurf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import npsurf

    if not Path(npsurf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported npsurf from {npsurf.__file__}, not {SRC}")
    return npsurf


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != BOX_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(args, stdin=None) -> subprocess.CompletedProcess:
    """Run one cold interpreter in the checkout and wait for it."""
    return subprocess.run([sys.executable, *args], input=stdin, text=True,
                          capture_output=True, cwd=ROOT, env=child_env(),
                          timeout=120)


def check_child_tree() -> None:
    proc = launch(["-c", "import npsurf; print(npsurf.__file__)"])
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or not where.is_relative_to(SRC.resolve()):
        raise BenchError(f"child interpreters import npsurf from {where}")


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "commit": commit_hash()}


def commit_hash() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantiles(samples) -> tuple[float, float]:
    """(p50, p90) by linear interpolation between order statistics."""
    if len(samples) == 1:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return cuts[4], cuts[8]


# --- speed calibration -------------------------------------------------------


@dataclass(frozen=True)
class _Space:
    kind: str
    rank: int


@dataclass(frozen=True)
class _Vector:
    space: _Space
    xs: tuple

    def __post_init__(self) -> None:
        if len(self.xs) != self.space.rank:
            raise ValueError("rank mismatch")

    def dot(self, other: "_Vector") -> int:
        if self.space != other.space:
            raise ValueError("different spaces")
        a, b = self.xs, other.xs
        return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _view(x: int, *, scale: int = 1, shift: int = 0) -> dict:
    return {"v": x * scale + shift, "ok": isinstance(x, int)}


def _calibration_work() -> int:
    """Fixed interpreter work in the library's style: frozen dataclasses
    with checks, pairings by generator sums, keyed sorts, keyword calls,
    dict literals, string formatting, exact fractions, JSON round trips
    and a caught exception."""
    space = _Space("calibration", 12)
    base = _Vector(space, tuple(range(12)))
    acc, table = 0, {}
    for i in range(55):
        v = _Vector(_Space("calibration", 12),
                    tuple((i * j) % 17 - 8 for j in range(12)))
        acc += v.dot(base)
        order = sorted(range(12), key=lambda k: (-v.xs[k], k))
        view = _view(order[0], scale=i, shift=acc & 7)
        acc += view["v"] if view["ok"] else 0
        table[v.xs[:3]] = f"{i}:{acc & 7}"
        q = Fraction(i + 1, 7) * Fraction(3, i + 2) - Fraction(acc & 15, 5)
        acc += q.numerator // q.denominator
        doc = json.loads(json.dumps({"op": "x", "args": {"xs": v.xs[:4]}}))
        acc += len(doc["args"]["xs"])
        try:
            if i % 3 == 0:
                raise KeyError(i)
        except KeyError:
            acc += 1
    return acc + len(table)


class Calibration:
    """Tracks how fast this machine runs fixed interpreter work right now.

    On a shared host the whole machine speeds up and slows down by about
    20% over tens of seconds, which no amount of work inside one run
    averages out.  So while the workload runs, an interval timer interrupts
    it every ``CALIBRATE_EVERY_S`` to time a calibration slice.  Each
    request's time, less the interruptions inside it, is multiplied by the
    nominal over the slice times taken during it (or interpolated at its
    midpoint): results read as on a machine where a slice takes
    ``NOMINAL_SLICE_S``.  The raw figures are printed alongside.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.factors: list[float] = []
        self.measure()

    def measure(self, *_signal) -> None:
        start = perf_counter()
        slices = []
        for _ in range(3):
            t = perf_counter()
            _calibration_work()
            slices.append(perf_counter() - t)
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.mids.append((start + end) / 2)
        self.factors.append(NOMINAL_SLICE_S / statistics.median(slices))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) duration of the interval, less calibration time."""
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(min(end, self.ends[k]) - max(start,
                                                             self.starts[k])
                                for k in range(i, j))
        if j > i:
            factor = statistics.fmean(self.factors[i:j])
        else:
            factor = self._factor_at((start + end) / 2)
        return raw, raw * factor

    def _factor_at(self, t: float) -> float:
        i = bisect.bisect(self.mids, t)
        if i == 0:
            return self.factors[0]
        if i == len(self.mids):
            return self.factors[-1]
        t0, t1 = self.mids[i - 1], self.mids[i]
        f0, f1 = self.factors[i - 1], self.factors[i]
        return f0 + (f1 - f0) * (t - t0) / (t1 - t0)


# --- the measured loop -------------------------------------------------------


class Phase:
    """Latencies and per-batch throughput of consecutive batches, raw and
    scaled by the speed calibration."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.seen = 0
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.busy = 0.0

    def add(self, latencies: list[float], scaled: list[float]) -> None:
        for x, y in zip(latencies, scaled):
            self.seen += 1
            j = len(self.samples)
            if j >= RESERVOIR:
                j = self.rng.randrange(self.seen)
                if j >= RESERVOIR:
                    continue
                self.samples[j], self.raw[j] = y, x
            else:
                self.samples.append(y)
                self.raw.append(x)
        self.busy += sum(scaled)
        self.rates.append(len(scaled) / sum(scaled))
        self.raw_rates.append(len(latencies) / sum(latencies))

    def metrics(self, raw: bool = False) -> dict[str, float]:
        p50, p90 = quantiles(self.raw if raw else self.samples)
        rates = self.raw_rates if raw else self.rates
        return {"ops_per_s": statistics.median(rates),
                "p50_ms": p50 * 1e3, "p90_ms": p90 * 1e3}


class Runner:
    """Feeds one seed's batches through a workload and gates every output."""

    def __init__(self, workload, seed: int, expected: list[str] | None,
                 tracer=None):
        self.w = workload
        self.batches = workload.stream(seed)
        self.expected = expected
        self.tracer = tracer
        self.index = 0                 # batches consumed so far
        self.attempted = self.failed = 0
        self.digests: list[str] = []   # one per finished segment
        self.mismatched = 0
        self._hash = hashlib.sha256()
        self._segment_ok = 0
        self._request = 0

    def next_batch(self) -> list:
        return next(self.batches)

    def run_batch(self, batch: list, cal: Calibration):
        """Run and check one batch; returns raw and scaled latencies."""
        call = self.w.call
        spans, outputs = [], []
        for req in batch:
            if self.tracer is not None:
                self.tracer.request = self._request
            self._request += 1
            start = perf_counter()
            try:
                out = call(req.payload)
            except Exception as exc:      # a failed operation, counted below
                out = exc
            spans.append((start, perf_counter()))
            outputs.append(out)
        for req, out in zip(batch, outputs):
            self.attempted += 1
            ok = not isinstance(out, Exception) and self._check(req, out)
            if ok:
                self._segment_ok += 1
            else:
                self.failed += 1
                print(f"FAILED {self.w.name} request {req.payload!r:.300}: "
                      f"{out!r:.300}", file=sys.stderr)
            if self.w.digest_every:
                self._hash.update(b"error" if isinstance(out, Exception)
                                  else self.w.digest_item(out))
                self._hash.update(b"\n")
        self.index += 1
        if self.w.digest_every and self.index % self.w.digest_every == 0:
            self._close_segment()
        raw, scaled = zip(*(cal.scale(*span) for span in spans))
        return list(raw), list(scaled)

    def _check(self, req, out) -> bool:
        try:
            return bool(self.w.check(req, out))
        except (KeyError, TypeError, IndexError):
            return False

    def _close_segment(self) -> None:
        digest = self._hash.hexdigest()[:16]
        seg = len(self.digests)
        self.digests.append(digest)
        if self.expected is not None and seg < len(self.expected):
            if self.expected[seg] != digest:
                self.mismatched += 1
                self.failed += self._segment_ok
                print(f"FAILED {self.w.name} digest segment {seg}: "
                      f"{digest} != committed {self.expected[seg]}",
                      file=sys.stderr)
        self._hash = hashlib.sha256()
        self._segment_ok = 0


def expected_digests(workload, seed: int) -> list[str] | None:
    """The committed digests of this seed's segments, if any."""
    path = HERE / "expected.json"
    pinned = json.loads(path.read_text()).get(workload.name)
    if pinned is None:
        return None
    if pinned["every"] != workload.digest_every:
        raise BenchError(f"{path}: segment size changed for {workload.name}")
    return pinned["seeds"].get(str(seed))


# --- set-up ------------------------------------------------------------------


def measure_setup(workload, cal: Calibration) -> tuple[float, float, int, int]:
    """Median wall time of cold launches, scaled and raw; the first, which
    may compile bytecode, is checked but not timed."""
    times, raw, failed = [], [], 0
    for i in range(SETUP_LAUNCHES + 1):
        cal.measure()
        start = perf_counter()
        proc = launch(["-m", "npsurf", *workload.setup_argv],
                      workload.setup_stdin)
        end = perf_counter()
        cal.measure()
        took, scaled = cal.scale(start, end)
        try:
            ok = proc.returncode == 0 and workload.check_setup(
                json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            print(f"FAILED cold launch: {proc.stderr.strip()[-300:]}",
                  file=sys.stderr)
        if i:
            times.append(scaled)
            raw.append(took)
    return (statistics.median(times), statistics.median(raw),
            SETUP_LAUNCHES + 1, failed)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def measure_imports(workload) -> dict[str, float]:
    """Cumulative import seconds of npsurf and npsurf.cli (median of cold
    ``-X importtime`` launches)."""
    runs: dict[str, list[float]] = {"npsurf": [], "npsurf.cli": []}
    for _ in range(IMPORT_LAUNCHES):
        proc = launch(["-X", "importtime", "-m", "npsurf",
                       *workload.setup_argv], workload.setup_stdin)
        if proc.returncode != 0:
            raise BenchError(f"cold launch failed: {proc.stderr[-300:]}")
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in runs:
                runs[m.group(2)].append(int(m.group(1)) / 1e6)
    return {"import.npsurf_s": statistics.median(runs["npsurf"]),
            "import.npsurf_cli_s": statistics.median(runs["npsurf.cli"])}


# --- the two modes -----------------------------------------------------------


def run_untraced(workload, seed: int, expected, seconds: float):
    cal = Calibration()
    setup_s, raw_setup_s, attempted, failed = measure_setup(workload, cal)
    runner = Runner(workload, seed, expected)
    phase = Phase(random.Random(seed))
    with cal:
        runner.run_batch(runner.next_batch(), cal)      # warm-up
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            phase.add(*runner.run_batch(runner.next_batch(), cal))
    values = phase.metrics()
    values["setup_s"] = setup_s
    raw = phase.metrics(raw=True)
    print("raw (unscaled) " + ", ".join(
        f"{k} = {v:.6g}" for k, v in {**raw, "setup_s": raw_setup_s}.items()))
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    print(f"measured {len(phase.rates)} batches, {phase.seen} requests, "
          f"p50/p90 over {len(phase.samples)} samples; setup_s over "
          f"{SETUP_LAUNCHES} launches; speed factor median "
          f"{statistics.median(cal.factors):.4f} over {len(cal.factors)} "
          "calibrations")
    return values, runner, attempted, failed


def run_traced(workload, seed: int, expected, npsurf, env: dict,
               layer_metrics):
    import spans

    values = measure_imports(workload)
    runner = Runner(workload, seed, expected)
    runner.run_batch(runner.next_batch(), Calibration())    # warm-up
    # no calibration timer here: its interruptions would land inside spans;
    # each phase is scaled by calibrations taken just before and after it
    cal = Calibration()
    plain = Phase(random.Random(seed))
    for _ in range(workload.trace_batches):
        plain.add(*runner.run_batch(runner.next_batch(), cal))
    cal.measure()
    # inputs are made before tracing starts, so only the requests are traced
    batches = [runner.next_batch() for _ in range(workload.trace_batches)]
    from npsurf import api, cli, criteria, families, fano, lattice, selftest

    tracer = spans.Tracer([npsurf, api, cli, criteria, families, fano,
                           lattice, selftest])
    spans.install(tracer, npsurf)
    runner.tracer = tracer
    traced = Phase(random.Random(seed))
    cal = Calibration()
    try:
        for batch in batches:
            traced.add(*runner.run_batch(batch, cal))
    finally:
        tracer.uninstall()
    cal.measure()

    totals = tracer.totals()
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, {"env": env})
    print(f"spans written to {path}")
    print(f"{'layer':40} {'calls':>9} {'incl_s':>10} {'self_s':>10}")
    for name in sorted(totals):
        row = totals[name]
        print(f"{name:40} {row['calls']:9d} {row['s']:10.4f} "
              f"{row['self_s']:10.4f}")
    for name, amount in sorted(tracer.counters.items()):
        print(f"{name:40} {amount:9d}")

    base, with_trace = plain.metrics(), traced.metrics()
    for key, value in base.items():
        print(f"tracing overhead {key}: untraced {value:.6g}, traced "
              f"{with_trace[key]:.6g}, traced - untraced "
              f"{with_trace[key] - value:+.6g}")
    values["trace.overhead_pct"] = (traced.busy / plain.busy - 1) * 100

    for m in layer_metrics:
        name = m["name"]
        if name in tracer.counters:
            values[name] = tracer.counters[name]
        elif name not in values:
            layer, field = name.rsplit(".", 1)
            values[name] = totals[layer][field]
    return values, runner


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# workload-specific names of the generic metrics, printed alongside them
ALIASES = {
    "verify-sweep": {"ops_per_s": ("verify_per_s", 1, "1/s"),
                     "p50_ms": ("verify_p50_ms", 1, "ms"),
                     "p90_ms": ("verify_p90_ms", 1, "ms")},
    "oracle-wide": {"ops_per_s": ("oracle_per_s", 1, "1/s"),
                    "p50_ms": ("oracle_p50_ms", 1, "ms"),
                    "p90_ms": ("oracle_p90_ms", 1, "ms")},
    "criteria-grid": {"ops_per_s": ("eval_per_s", 1, "1/s"),
                      "p50_ms": ("eval_p50_us", 1e3, "us"),
                      "p90_ms": ("eval_p90_us", 1e3, "us")},
    "selftest": {"p50_ms": ("selftest_s", 1e-3, "s")},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = benchmark_spec()
        npsurf = load_npsurf()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: "
                             f"{', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]()
        expected = expected_digests(workload, args.seed)
        check_child_tree()
    except (BenchError, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            values, runner = run_traced(workload, args.seed, expected, npsurf,
                                        env, spec["per_layer"])
            attempted = failed = 0
            names = spec["per_layer"]
        else:
            values, runner, attempted, failed = run_untraced(
                workload, args.seed, expected, args.seconds)
            names = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted += runner.attempted
    failed += runner.failed

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for key, (alias, scale, unit) in ALIASES[args.workload].items():
            print(f"{args.workload} {alias} = {values[key] * scale:.6g} "
                  f"{unit}")
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted}; {len(runner.digests)} digest segments, "
          f"{runner.mismatched} mismatched)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
