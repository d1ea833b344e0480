"""Set-up, timed iterations, the traced pass, and the result document.

One *pass* measures one workload in this process, either untraced
(end-to-end metrics) or traced (per-layer metrics).  Tracing is never on
while an end-to-end number is taken; the traced pass interleaves plain and
traced iterations so the difference between them is the tracing overhead.

End-to-end times are normalised to the reference host speed
(``hostspeed``): the shared sandbox changes speed under a running
iteration, and the raw seconds of one commit spread by more than any
bound worth having.  The raw values are kept beside them in the document.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from perfbench import hostspeed
from perfbench import metrics as M

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Journals and watch files must stay inside the checkout: each process
# works under its own directory here and removes it before it exits.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}

SETUP_PROBES = 1  # one more fresh process: setup_s is the median of two set-ups
CALIBRATION_EVENTS = 30_000


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path, or refuse to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: {src}/repro not found; run from a checkout of the repo")
    if sys.path[0] != src:
        sys.path.insert(0, src)


def pinned_env() -> dict[str, str]:
    return {**os.environ, **PINNED_ENV}


def scratch_dir() -> str:
    path = os.path.join(TMP_ROOT, f"p{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_scratch() -> None:
    shutil.rmtree(scratch_dir(), ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only when no other perfbench process is using it
    except OSError:
        pass


def calibrate(events: int = CALIBRATION_EVENTS, repeats: int = 3) -> float:
    """Events/s of a bare ``SimEngine`` loop: the machine-speed yardstick."""
    from repro.api import SimEngine

    best = float("inf")
    for _ in range(repeats):
        engine = SimEngine()
        for i in range(events):
            engine.call_at((i % 64) * 0.5, lambda: None)
        t0 = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - t0)
    return events / best


class Checks:
    """Correctness ledger: every expectation is counted, failures are named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def outputs(self, label: str, out, reference: dict[str, str], events: int | None) -> None:
        for what, ok in out.checks:
            self.expect(f"{label}: {what}", ok)
        for key, value in out.fingerprints.items():
            if key in reference:
                self.expect(f"{label}: fingerprint {key}", reference[key] == value)
        if events is not None:
            self.expect(f"{label}: engine events", out.events == events)


@dataclass
class Sample:
    wall: float  # raw seconds of this host
    cpu: float
    outputs: object
    layers: dict[str, float] | None = None
    speed: hostspeed.Speed | None = None  # set on end-to-end iterations only

    @property
    def wall_norm(self) -> float:
        return self.speed.normalise(self.wall)

    @property
    def cpu_norm(self) -> float:
        return self.speed.normalise(self.cpu)


@dataclass
class Prepared:
    workload: object
    warm: Sample
    calibration: float
    setup_s: float  # normalised like the iterations
    setup_raw_s: float
    pins: dict[str, str]


def timed_iteration(workload, tracer=None, sample_speed=False) -> Sample:
    """One iteration in a fresh workdir; only ``iteration()`` is on the clock."""
    workdir = tempfile.mkdtemp(prefix="iter-", dir=scratch_dir())
    try:
        gc.collect()
        if tracer is not None:
            tracer.begin()
        if sample_speed:
            hostspeed.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs = workload.iteration(workdir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        speed = hostspeed.stop() if sample_speed else None
        layers = tracer.end() if tracer is not None else None
        return Sample(wall, cpu, outputs, layers, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_pins(workload, seed: int) -> dict[str, str]:
    """Pinned fingerprints that apply to this run (default seed only)."""
    if seed != M.DEFAULT_SEED or (workload.tiny and not workload.tiny_keeps_pins):
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["fingerprints"].get(workload.name, {})


def prepare(name: str, seed: int, tiny: bool, t0: float) -> Prepared:
    """Everything before the first timed iteration; ``setup_s`` ends here.

    The caller opened a ``hostspeed`` region when it read *t0*; it is
    closed here, so set-up is normalised over exactly its own span.
    """
    use_checkout_source()
    from perfbench import workloads

    workload = workloads.BY_NAME[name](seed, tiny)
    calibration = calibrate(CALIBRATION_EVENTS // 10 if tiny else CALIBRATION_EVENTS)
    warm = timed_iteration(workload)
    elapsed = time.perf_counter() - t0
    return Prepared(workload, warm, calibration, hostspeed.stop().normalise(elapsed), elapsed,
                    load_pins(workload, seed))


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """``setup_s`` of one more fresh process: (normalised, raw)."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, env=pinned_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(doc["setup_s"]), float(doc["setup_raw_s"])


def _stat(values: list[float], value: float | None = None,
          raw: list[float] | None = None) -> dict:
    stat = {
        "value": statistics.median(values) if value is None else value,
        "min": min(values), "max": max(values), "n": len(values), "samples": list(values),
    }
    if raw is not None:  # this host's seconds, before normalisation
        stat["raw_value"] = statistics.median(raw)
        stat["raw_samples"] = list(raw)
    return stat


def run_e2e(name: str, seed: int, seconds: float, tiny: bool, t0: float) -> dict:
    """The untraced pass: every end-to-end metric of one workload."""
    prep = prepare(name, seed, tiny, t0)
    workload, warm = prep.workload, prep.warm
    checks = Checks()
    checks.outputs("warm-up", warm.outputs, prep.pins, None)
    count = max(1 if tiny else workload.min_iterations, int(seconds // warm.wall))
    samples = []
    for i in range(count):
        sample = timed_iteration(workload, sample_speed=True)
        checks.outputs(f"iteration {i}", sample.outputs, warm.outputs.fingerprints,
                       warm.outputs.events)
        samples.append(sample)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workdir = tempfile.mkdtemp(prefix="verify-", dir=scratch_dir())
    try:
        for what, ok in workload.verify(workdir, warm.outputs):
            checks.expect(what, ok)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [(prep.setup_s, prep.setup_raw_s)]
    setups += [setup_probe(name, seed) for _ in range(0 if tiny else SETUP_PROBES)]
    walls = [s.wall_norm for s in samples]
    sim_rate = sum(s.outputs.makespan for s in samples) / sum(walls)
    values = {
        "wall_s": _stat(walls, raw=[s.wall for s in samples]),
        "cpu_s": _stat([s.cpu_norm for s in samples], raw=[s.cpu for s in samples]),
        "sim_s_per_s": _stat([s.outputs.makespan / w for s, w in zip(samples, walls)], sim_rate,
                             raw=[s.outputs.makespan / s.wall for s in samples]),
        "peak_rss_mb": _stat([rss]),
        "setup_s": _stat([s for s, _ in setups], raw=[r for _, r in setups]),
    }
    doc = _document(name, seed, seconds, 0, tiny, checks, values, warm.outputs,
                    prep.calibration)
    # 1.0 = the reference host; what each iteration's raw seconds were multiplied by.
    doc["host_speed"] = [s.speed.relative for s in samples]
    return doc


def run_layers(name: str, seed: int, seconds: float, tiny: bool, t0: float,
               spans_path: str | None = None) -> dict:
    """The traced pass: per-layer metrics, checked against untraced runs."""
    from perfbench.tracer import SpanTracer

    prep = prepare(name, seed, tiny, t0)
    workload, warm = prep.workload, prep.warm
    checks = Checks()
    checks.outputs("warm-up", warm.outputs, prep.pins, None)
    tracer = SpanTracer()
    plain, traced = [], []
    # A traced iteration costs ~1.25 plain ones; fit whole pairs in the budget.
    pairs = max(1, int(seconds // (2.25 * warm.wall)))
    for i in range(pairs):
        sample = timed_iteration(workload)
        checks.outputs(f"plain {i}", sample.outputs, warm.outputs.fingerprints,
                       warm.outputs.events)
        plain.append(sample)
        tracer.install()
        try:
            sample = timed_iteration(workload, tracer)
        finally:
            leaks = tracer.uninstall()
        checks.expect(f"traced {i}: every patched attribute restored {leaks}", not leaks)
        # The observer must not change the observed: same fingerprints,
        # same event count as the untraced iterations.
        checks.outputs(f"traced {i}", sample.outputs, warm.outputs.fingerprints,
                       warm.outputs.events)
        if sample.outputs.events is not None:
            checks.expect(f"traced {i}: tracer saw every engine event",
                          sample.layers["sim.events"] == sample.outputs.events)
        traced.append(sample)
    if spans_path is not None:
        tracer.dump_spans(spans_path)
    plain_wall = statistics.median(s.wall for s in plain)
    traced_wall = statistics.median(s.wall for s in traced)
    values = {}
    for metric in M.PER_LAYER:
        if metric.name == "sim.makespan_s":
            series = [s.outputs.makespan for s in traced]
        elif metric.name == "host.calibration_events_per_s":
            series = [prep.calibration]
        elif metric.name == "host.wall_norm":
            series = [s.wall * prep.calibration / 1e6 for s in plain]
        elif metric.name == "host.trace_overhead_frac":
            series = [traced_wall / plain_wall - 1.0]
        else:
            series = [float(s.layers.get(metric.name, 0.0)) for s in traced]
        if metric.kind == "exact":
            checks.expect(f"{metric.name} repeats exactly", len(set(series)) == 1)
        values[metric.name] = _stat(series)
    for idle in workload.idle:
        checks.expect(f"{idle} is zero on {name}", values[idle]["value"] == 0)
    attributed = 1.0 - values["host.unattributed_frac"]["value"]
    if attributed < 0.98:
        print(f"perfbench: warning: {name}: only {attributed:.3f} of the traced wall is "
              "attributed to a layer", file=sys.stderr)
    return _document(name, seed, seconds, 1, tiny, checks, values, warm.outputs,
                     prep.calibration)


def _document(name, seed, seconds, trace, tiny, checks: Checks, values: dict, outputs,
              calibration: float) -> dict:
    for key, stat in values.items():
        stat["unit"] = M.BY_NAME[key].unit
    return {
        "schema": "perfbench-run/1",
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "metrics": values,
        "fingerprints": outputs.fingerprints,
        "calibration_events_per_s": calibration,
    }


@contextlib.contextmanager
def fsync_stubbed():
    """Make ``os.fsync`` a no-op while a pass runs.

    The journals of a benchmark run need no durability, and on the shared
    sandbox disk fsync latency swings by 2x from one minute to the next:
    left in, it is a third of ``campaign_fleet``'s wall and most of its
    run-to-run spread.  The program still *calls* fsync exactly as often
    (``journal.fsyncs`` counts the calls; ``journal.sync_s`` keeps the
    flush and the fence check), so a change in sync behaviour shows as a
    count, not as disk weather.
    """
    real = os.fsync
    os.fsync = lambda fd: None
    try:
        yield
    finally:
        os.fsync = real


def run_pass(name: str, seed: int, seconds: float, trace: int, tiny: bool, t0: float,
             spans_path: str | None = None) -> dict:
    try:
        with fsync_stubbed():
            if trace:
                return run_layers(name, seed, seconds, tiny, t0, spans_path)
            return run_e2e(name, seed, seconds, tiny, t0)
    finally:
        hostspeed.cancel()
        remove_scratch()


def driver_line(doc: dict) -> str:
    """The contract's last line: correct/attempted/failed/metrics, nothing else."""
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in doc["metrics"].items()},
    })


def render(doc: dict) -> str:
    """Every metric by name with its unit, median with min/max and sample count."""
    head = (f"== {doc['workload']}  seed={doc['seed']}  "
            f"{'per-layer (traced)' if doc['trace'] else 'end-to-end (untraced)'}")
    lines = [head]
    for key, stat in doc["metrics"].items():
        raw = f"  raw {stat['raw_value']:.10g}" if "raw_value" in stat else ""
        lines.append(
            f"  {key:<36} {stat['value']:>16.10g} {stat['unit']:<8} "
            f"min {stat['min']:.10g}  max {stat['max']:.10g}  n={stat['n']}{raw}"
        )
    if "host_speed" in doc:
        lines.append(f"  host speed while timing (1 = reference host): "
                     f"{min(doc['host_speed']):.3f} - {max(doc['host_speed']):.3f}")
    ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    lines.append(f"  {'failed_frac':<36} {ratio:>16.6g} {'ratio':<8} "
                 f"ops_attempted={doc['attempted']} failed={doc['failed']}")
    lines += [f"  FAILED CHECK: {what}" for what in doc["failures"]]
    return "\n".join(lines)


def run_suite(names: list[str], passes: list[int], seed: int, seconds: float) -> dict:
    """Each (workload, pass) in a fresh, pinned subprocess; merge their documents."""
    suite = {"schema": "perfbench/1", "seed": seed, "seconds": seconds, "runs": {}}
    try:
        for name in names:
            for trace in passes:
                path = os.path.join(scratch_dir(), f"{name}-{trace}.json")
                proc = subprocess.run(
                    [sys.executable, "-m", "perfbench", "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--out", path],
                    cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, text=True,
                )
                print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)  # last: driver's
                if not os.path.exists(path):
                    sys.exit(f"perfbench: {name} --trace {trace} produced no result "
                             f"(exit {proc.returncode})")
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                key = "layers" if trace else "e2e"
                suite["runs"].setdefault(name, {})[key] = doc
    finally:
        remove_scratch()
    return suite
