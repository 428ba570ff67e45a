"""gcindex benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload wide-year --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times whole rounds of ops, untraced, for at least
``--seconds`` seconds and at least 100 ops, and reports the end-to-end
metrics.  With ``--trace 1`` it runs half the time untraced and half with
span wrappers installed around every layer (see tracing.py), and reports the
per-layer metrics.  Every op's output is checked against a plain-float
oracle and for byte determinism: each op's output bytes must repeat within
the run, and one full-size round on the seed-1 inputs (the timed rounds
themselves when --seed is 1) must reproduce the per-op digests in
golden.json.  Times are reported at a reference host speed (see speed.py),
raw times alongside.  The last stdout line is one JSON object, whose
``correct``, ``attempted`` and ``failed`` carry the checks' outcome; the exit
code is 0 when the run completed, 2 when gcindex's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_trace"

MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_REPEATS = 7
REFERENCE_SEED = 1  # golden.json holds this seed's per-op output digests
COST_SIZES = (150, 300)  # engine.cost_exponent: compute_all at these sizes
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import gcindex.cli
t1 = time.perf_counter()
A = sys.argv[1:]
{load}t2 = time.perf_counter()
sys.path.insert(0, {bench!r})
import speed
sys.stdout.write(f"{{t1 - t0!r}} {{t2 - t1!r}} {{speed.kernel_seconds()!r}}")
"""


def import_program() -> None:
    """Put this checkout's src/ first on sys.path; refuse any other gcindex."""
    if not (SRC / "gcindex" / "__init__.py").is_file():
        print(f"error: {SRC / 'gcindex'} not found; run from a gcindex checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gcindex

    if SRC.resolve() not in Path(gcindex.__file__).resolve().parents:
        print(f"error: imported gcindex from {gcindex.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Phase:
    """Latencies and check results of consecutive whole rounds.

    kernel[i] is the calibration kernel's median time just before and after
    op i (see speed.py); timed phases fill it, so their latencies can be put
    at reference speed.
    """

    def __init__(self):
        self.latencies: List[float] = []
        self.kernel: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def normalized(self) -> List[float]:
        return [t * speed.REFERENCE_S / k for t, k in zip(self.latencies, self.kernel)]

    def speed_factor(self) -> float:
        """Reference kernel time over the measured one (< 1: a slow host)."""
        return speed.REFERENCE_S / statistics.median(self.kernel)


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.digests: Dict[str, str] = {}
        self.op_id = 0

    def run_op(self, phase: Phase, op, calibrate: bool = False) -> None:
        before = speed.kernel_runs() if calibrate else []
        if self.tracer is not None:
            self.tracer.op = self.op_id
        self.op_id += 1
        phase.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any escape from gcindex is a failed op
            phase.failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            phase.latencies.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = -1
            if calibrate:
                phase.kernel.append(speed.around(before, speed.kernel_runs()))
        problems = []
        try:
            digest = hashlib.sha256(op.output(result)).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                problems.append("output bytes differ from the first run of this op")
            op.check(result)
        except Exception as exc:  # CheckFailed, or output the checks cannot parse
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            phase.failures.append(f"{op.key}: {'; '.join(problems)}")

    def phase(self, seconds: float, min_ops: int) -> Phase:
        """Calibrated whole rounds until `seconds` have passed and `min_ops` ran."""
        phase = Phase()
        start = time.perf_counter()
        while True:
            for op in self.workload.round():
                self.run_op(phase, op, calibrate=True)
            if time.perf_counter() - start >= seconds and len(phase.latencies) >= min_ops:
                return phase


def _setup_seconds(workload, work: Path) -> Tuple[float, float]:
    """Median wall time of import + one-time load, each in a fresh process:
    (at reference speed, raw).

    Each set-up process times its import and its load apart, then runs the
    kernel of speed.py, and is followed by the import probe of speed.py: the
    import is put at reference speed with the probe, the load with the
    kernel, the measure that tracks each best.  The processes keep their
    bytecode under `work`, whatever the environment says about writing it, so
    every run measures the same state: the first round compiles and is not
    counted, the rest load bytecode as an installed package would.
    """
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), load=workload.setup_code)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    raw, normalized = [], []
    for i in range(SETUP_REPEATS + 1):
        imported, loaded, kernel = map(
            float, _child([sys.executable, "-c", code, *workload.setup_args()], env).split())
        probe = float(_child([sys.executable, "-c", speed.IMPORT_PROBE], env))
        if i:
            raw.append(imported + loaded)
            normalized.append(imported * speed.IMPORT_REFERENCE_S / probe
                              + loaded * speed.REFERENCE_S / kernel)
    return statistics.median(normalized), statistics.median(raw)


def _child(argv: List[str], env: Dict[str, str]) -> str:
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return done.stdout


def reference_round(name: str, work: Path) -> Tuple[Phase, Dict[str, str]]:
    """One round on the full-size seed-1 inputs and its per-op output digests."""
    import gen
    import workloads

    inputs = gen.generate(name, REFERENCE_SEED, work / "reference")
    workload = workloads.WORKLOADS[name](inputs, work / "reference", REFERENCE_SEED)
    workload.load()
    runner, phase = Runner(workload), Phase()
    for op in workload.round():
        runner.run_op(phase, op)
    return phase, runner.digests


def _golden_failures(name: str, digests: Dict[str, str]) -> List[str]:
    golden = json.loads(GOLDEN.read_text())[name] if GOLDEN.is_file() else {}
    if set(digests) != set(golden):
        return [f"golden.json: no digests for ops {sorted(set(digests) ^ set(golden))[:5]}"]
    return [f"{key}: output digest differs from golden.json"
            for key in sorted(golden) if digests[key] != golden[key]]


def _cost_exponent(seed: int, work: Path) -> float:
    """log2 of compute_all's time ratio at 300 vs 150 countries (untraced)."""
    import gcindex as gc
    import gen

    medians = []
    for n in COST_SIZES:
        inputs = gen.generate("wide-year", seed, work / f"cost{n}", n)
        panel = gc.load_panel(inputs.panel, gc.load_classes(inputs.classes))
        tree = gc.load_tree(gc.WEF_DEFAULT)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            gc.compute_all(tree, panel, inputs.years[0])
            elapsed = time.perf_counter() - start
            times.append(elapsed / speed.kernel_seconds())
        medians.append(statistics.median(times))
    return math.log2(medians[1] / medians[0])


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux).

    VmHWM starts afresh when the process is exec'd; getrusage's ru_maxrss
    does not: it keeps the peak of the process that started this one, so
    under a larger parent it reads the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _p90(latencies: List[float]) -> float:
    ordered = sorted(latencies)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _timings(lat: List[float]) -> Dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": _p90(lat) * 1e3,
    }


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("bytes_out"):
        return "B/op"
    if name.endswith("rows_scanned_per_op"):
        return "rows/op"
    return "ratio"


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    import gen
    import tracing
    import workloads

    inputs = gen.generate(name, seed, work / "inputs")
    workload = workloads.WORKLOADS[name](inputs, work, seed)
    print(f"workload {name}  seed {seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}")
    print(f"inputs: {len(inputs.countries)} countries x {len(inputs.years)} years, "
          f"{inputs.rows} panel rows, {gen.SPECS[name]['missing']:.0%} of leaf values missing, "
          f"{sum(c == 'core' for c in inputs.class_of.values())} core")
    print(workload.op_unit)

    if not traced:
        setup_s, setup_raw = _setup_seconds(workload, work)
    workload.load()
    runner = Runner(workload)
    warm = Phase()
    runner.run_op(warm, workload.round()[0])  # let lazy imports and caches settle
    phases = [warm]
    if not traced:
        timed = runner.phase(seconds, MIN_OPS)
        phases.append(timed)
        metrics = _timings(timed.normalized())
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = _peak_rss_mb()
        raw = _timings(timed.latencies)
        raw["setup_s"] = setup_raw
    else:
        plain = runner.phase(seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.load()  # traced as set-up (op -1)
            runner.tracer = tracer
            timed = runner.phase(seconds / 2, 1)
        finally:
            tracer.uninstall()
        phases += [plain, timed]
        tracer.write(TRACE_OUT / f"spans-{name}.csv")
        metrics = tracer.layer_metrics(
            ops=len(timed.latencies), op_seconds=sum(timed.latencies),
            speed_factor=timed.speed_factor(), panel_rows=inputs.rows,
            observed_leaves=len(workloads.oracle.ICT_HARD))
        metrics["engine.cost_exponent"] = (
            _cost_exponent(seed, work) if name == "wide-year" else 0.0)
        metrics["trace_overhead_ratio"] = (
            _timings(timed.normalized())["ops_per_s"] / _timings(plain.normalized())["ops_per_s"])
        raw = {}

    if seed == REFERENCE_SEED:
        digests = runner.digests
    else:
        reference, digests = reference_round(name, work)
        phases.append(reference)
    # each golden comparison counts as one attempted check
    failures = [f for p in phases for f in p.failures] + _golden_failures(name, digests)
    attempted = sum(p.attempted for p in phases) + len(digests)
    failed = len(failures)

    n = len(timed.latencies)
    print(f"{n} timed ops{' (traced)' if traced else ''}, {sum(timed.latencies):.3f} s of op "
          f"time; host speed factor {timed.speed_factor():.3f} (times below are at "
          f"reference speed, raw in brackets)")
    for metric, value in metrics.items():
        unit = UNITS.get(metric) or _layer_unit(metric)
        notes = []
        if metric in raw:
            notes.append(f"[{raw[metric]:.6f}]")
        if metric == "ops_per_s" and name == "wide-year":
            notes.append(f"= {value * len(inputs.countries):.1f} country-year scorings/s")
        elif metric.startswith("op_p"):
            notes.append(f"n={n}")
        elif metric == "setup_s":
            notes.append(f"median of {SETUP_REPEATS} fresh processes")
        print(f"  {metric:45s} {value:14.6f} {unit:8s} {'  '.join(notes)}")
    print(f"  {'fail_ratio':45s} {failed / attempted:14.6f} {'ratio':8s} {failed}/{attempted}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": UNITS.get(m) or _layer_unit(m)}
                    for m, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="gcindex benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["wide-year", "panel-history", "whatif-sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    import_program()
    work = WORK / f"{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
