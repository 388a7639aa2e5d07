"""pfield benchmark: run one seeded workload against `pfield.cli.main` and report.

    python3 perfbench/run.py --workload tables-csv --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  Load
model: one process, one thread, a closed loop with one client, one
`cli.main` invocation per operation, outputs written as real files under a
temporary directory inside `perfbench/`.

A run times the default seed's first pass (whose files are compared with
the recorded reference digests) and then passes of the requested seed.  The
number of passes is fixed by the workload and `--seconds` (enough to fill
`--seconds` at the nominal pass time of `workloads.NOMINAL_PASS_S`, and at
least `MIN_PASSES`), so the operations a run attempts, and the predicted
failures among them, depend only on its arguments.  `setup_s` samples fresh
interpreters before, between and after the timed passes.  A host-speed probe
(`hostspeed.py`) runs between operations, and `setup_s` and `rows_per_s` are
reported in reference-host seconds; their wall-clock values go to stderr as
`setup_wall_s` and `rows_per_wall_s`.  Output checks run
after all passes, outside the timed region and after peak RSS is read.  With
`--trace 1` the run instead alternates untraced and traced repetitions of the
seed's first pass, a fixed number of pairs, and reports per-layer metrics.

Human-readable metrics go to stderr; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, make_pass, passes_for  # noqa: E402

DEFAULT_SEED = 0
MIN_PASSES = 2  # the reference pass and one of the seed's
MIN_TRACE_PAIRS = 1
TRACE_SLOWDOWN = 3.0  # a traced pair costs about this many untraced passes
SETUP_SAMPLES = 6  # fresh interpreters at each of the run's start, middle and end
CRITERIA_REPEATS = 3
REFERENCE_FILE = HERE / "reference.json"
TRACE_DIR = HERE / "traces"
COMMANDS = ("box-figure", "flux-check", "hydrogen-figure", "osc-trajectory", "spectrum",
            "verify")
FAILURE_EXIT = 3

_SETUP_CODE = ("import sys, time\n"
               "start = time.perf_counter()\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "from pfield.cli import main\n"
               "print(repr(time.perf_counter() - start))\n")


@dataclass
class OpResult:
    op: Op
    seconds: float
    rc: int
    ok: bool = False
    rows: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class PassResult:
    ops: list[OpResult]
    seconds: float


def machine() -> dict[str, object]:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def measure_setup(samples: int) -> list[float]:
    """Seconds to import pfield.cli and reach main, one fresh interpreter each."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first interpreter warms the bytecode and file caches
            times.append(float(proc.stdout.strip()))
    return times


def run_pass(main, ops: list[Op], pass_dir: Path, tracer=None,
             probe: HostProbe | None = None) -> PassResult:
    """Run `ops` back to back; only the `cli.main` calls are timed."""
    results = []
    total = 0.0
    for index, op in enumerate(ops):
        if probe is not None:
            probe.sample()
        argv = list(op.argv) + ["--out", str(pass_dir / f"op{index:03d}")]
        if tracer is not None:
            tracer.reset()
        sink = io.StringIO()
        problems = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is exit 1 in a shell; keep running
                rc = 1
                problems.append(f"{op.command} raised {exc!r}")
            seconds = time.perf_counter() - start
        total += seconds
        result = OpResult(op, seconds, rc, problems=problems)
        if tracer is not None:
            result.layers = dict(tracer.self_s)
            result.counts = dict(tracer.counts)
        results.append(result)
    return PassResult(results, total)


def check_pass(result: PassResult, pass_dir: Path, with_digests: bool = False) -> None:
    """Output checks for every operation of a finished pass, then delete its files."""
    for index, res in enumerate(result.ops):
        if res.rc != 0:
            if not (res.rc == FAILURE_EXIT and res.op.expect_fail):
                res.problems.append(f"{res.op.command} exited {res.rc}, not a predicted "
                                    "grid-edge failure")
            continue
        res.problems, res.rows, res.digests = checks.check_op(
            res.op, pass_dir / f"op{index:03d}", with_digests)
        res.ok = not res.problems
    shutil.rmtree(pass_dir, ignore_errors=True)


def load_reference(workload: str, smoke: bool) -> list[dict] | None:
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table["smoke" if smoke else "full"].get(workload)


def compare_reference(result: PassResult, reference: list[dict] | None) -> tuple[int, int]:
    """Mark digest mismatches as failed checks; return (identical files, compared files)."""
    if reference is None or len(reference) != len(result.ops):
        raise SystemExit("benchmark error: no reference digests for this workload")
    same = compared = 0
    for res, ref in zip(result.ops, reference):
        if list(res.op.argv) != ref["argv"]:
            raise SystemExit("benchmark error: reference argv differs from the generator")
        if res.rc != 0:
            continue
        for name, value in res.digests.items():
            expected = ref["files"].get(name)
            if expected is None:
                continue
            compared += 1
            if value == expected:
                same += 1
            else:
                res.problems.append(f"{name}: data section differs from the reference")
                res.ok = False
    return same, compared


def _successful(passes: list[PassResult]) -> dict[str, list[OpResult]]:
    """Successful invocations of the passes, by subcommand."""
    done: dict[str, list[OpResult]] = {cmd: [] for cmd in COMMANDS}
    for result in passes:
        for res in result.ops:
            if res.ok:
                done[res.op.command].append(res)
    return done


def rows_per_s(passes: list[PassResult], recipe: list[Op]) -> float:
    """Rows of one pass of the recipe over the summed mean times of its invocations.

    Means are per subcommand over successful invocations, so a predicted
    failure changes neither the mix nor the figures of the others.  Means,
    not medians: with a handful of multi-second invocations per subcommand,
    the mean averages the host's speed over the whole run.
    """
    done = _successful(passes)
    kinds = [op.command for op in recipe if done[op.command]]
    rows = sum(statistics.fmean(res.rows for res in done[cmd]) for cmd in kinds)
    return rows / sum(statistics.fmean(res.seconds for res in done[cmd]) for cmd in kinds)


def command_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str]]:
    """Median wall time per successful invocation of each subcommand (0 if not run)."""
    done = _successful(passes)
    out = {f"{cmd.replace('-', '_')}_s":
           (statistics.median(res.seconds for res in ops) if ops else 0.0, "s")
           for cmd, ops in done.items()}
    times = sorted(res.seconds for ops in done.values() for res in ops)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 \
        else sum(times)
    out["op_p90_s"] = (p90, "s")
    return out


def _sum(counts: list[dict[str, float]], key: str) -> float:
    return sum(c.get(key, 0) for c in counts)


def layer_metrics(traced: list[PassResult]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (medians over its repetitions)."""
    per_rep = []
    for result in traced:
        layers = {key: sum(res.layers.get(key, 0.0) for res in result.ops)
                  for key in result.ops[0].layers}
        counts = [res.counts for res in result.ops]
        rows = sum(res.rows for res in result.ops)
        panels = _sum(counts, "oracle.panels")
        rep = {
            "cli.calls": (len(result.ops), "count"),
            "cli.rows": (rows, "count"),
            "cli.self_s": (layers["cli"], "s"),
            "cli.json_encode_s": (layers["cli.json_encode"], "s"),
            "cli.write_s": (layers["cli.write"], "s"),
            "cli.bytes_written": (_sum(counts, "cli.bytes_written"), "B"),
            "timedep.superposition_calls": (_sum(counts, "timedep.superposition"), "count"),
            "oracle.integrate_calls": (_sum(counts, "oracle.integrate"), "count"),
            "oracle.evals": (_sum(counts, "oracle.evals"), "count"),
            "oracle.panels": (panels, "count"),
            "oracle.accepted_panel_ratio":
                (_sum(counts, "oracle.accepted_panels") / panels if panels else 0.0, "1"),
            "oracle.failures": (_sum(counts, "oracle.failures"), "count"),
            "trace.accounted_share": (sum(layers.values()) / result.seconds, "1"),
        }
        for layer in LAYERS:
            if layer != "oracle":  # oracle counts integrate calls, evaluations and panels
                rep[f"{layer}.calls"] = (_sum(counts, layer), "count")
            rep[f"{layer}.self_s"] = (layers[layer], "s")
        for layer in ("boxmode", "oscillator"):
            calls, busy = rep[f"{layer}.calls"][0], layers[layer]
            rep[f"{layer}.evals_per_s"] = (calls / busy if busy else 0.0, "1/s")
        per_rep.append(rep)
    return {key: (statistics.median(rep[key][0] for rep in per_rep), unit)
            for key, (_, unit) in per_rep[0].items()}


def criterion_times(recipe: list[Op]) -> dict[str, tuple[float, str]]:
    """Median wall time of each public criterion_NN called directly (untraced)."""
    from pfield import verification

    idents = [ident for ident, _ in verification._CRITERIA]
    samples: dict[str, list[float]] = {ident: [] for ident in idents}
    if any(op.command == "verify" for op in recipe):
        for _ in range(CRITERIA_REPEATS):
            for number, ident in enumerate(idents, start=1):
                func = getattr(verification, f"criterion_{number:02d}")
                start = time.perf_counter()
                func()
                samples[ident].append(time.perf_counter() - start)
    return {f"verification.{ident}_s": (statistics.median(v) if v else 0.0, "s")
            for ident, v in samples.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict[str, tuple[float, str]]]:
    """One benchmark run; returns (result line, every metric with its unit)."""
    from pfield import cli

    setup_samples = 1 if smoke else SETUP_SAMPLES
    setup: list[float] = []
    probe = None if trace else HostProbe()
    recipe = make_pass(workload, seed, 0, smoke)
    all_passes: list[tuple[PassResult, Path]] = []
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE) as tmp:

        def execute(ops: list[Op], traced: bool = False) -> PassResult:
            pass_dir = Path(tmp) / f"pass{len(all_passes):04d}"
            tracer = Tracer() if traced else None
            main = cli.main
            if tracer is not None:
                tracer.install()
                main = tracer.wrap("cli", "cli", cli.main)
            try:
                result = run_pass(main, ops, pass_dir, tracer, probe)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            all_passes.append((result, pass_dir))
            return result

        checked = None
        if not trace:
            # Host speed drifts over seconds, so set-up is sampled across the run.
            setup += measure_setup(setup_samples)
            # The reference pass leads the timed passes: its files are the ones
            # compared byte for byte, and it is one more timing sample.
            passes = passes_for(workload, seconds, MIN_PASSES)
            timed: list[PassResult] = [execute(make_pass(workload, DEFAULT_SEED, 0, smoke))]
            for index in range(passes - 1):
                if index == (passes - 1) // 2:
                    setup += measure_setup(setup_samples)
                timed.append(execute(make_pass(workload, seed, index, smoke)))
            probe.sample(force=True)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup += measure_setup(setup_samples)
            checked = timed[0]
        else:
            plain: list[PassResult] = []
            traced: list[PassResult] = []
            for _ in range(passes_for(workload, seconds / TRACE_SLOWDOWN, MIN_TRACE_PAIRS)):
                plain.append(execute(recipe))
                traced.append(execute(recipe, traced=True))
        # Checks only after the measured passes, so they add nothing to peak RSS.
        for result, pass_dir in all_passes:
            check_pass(result, pass_dir, with_digests=result is checked)
    if not trace:
        same, compared = compare_reference(checked, load_reference(workload, smoke))
        # Both timings in reference-host seconds: the probe's slowdown over the
        # run removes the host's phase, and a change to pfield moves them in full.
        slowdown = probe.slowdown()
        wall_setup, wall_rows = statistics.median(setup), rows_per_s(timed, recipe)
        metrics = {
            "setup_s": (wall_setup / slowdown, "s"),
            "rows_per_s": (wall_rows * slowdown, "1/s"),
            "setup_wall_s": (wall_setup, "s"),
            "rows_per_wall_s": (wall_rows, "1/s"),
            "host_probe_s": (probe.mean_s(), "s"),
            "peak_rss_mb": (peak, "MB"),
            "outputs_identical_share": (same / compared if compared else 0.0, "1"),
        }
        metrics.update(command_metrics(timed))
    else:
        metrics = layer_metrics(traced)
        metrics.update(command_metrics(plain))
        metrics["trace.overhead_share"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in plain) - 1.0, "1")
        metrics.update(criterion_times(recipe))
        write_trace(workload, seed, traced)
    ops = [res for result, _ in all_passes for res in result.ops]
    failed = [res for res in ops if not res.ok]
    metrics["failed_ops_share"] = (len(failed) / len(ops), "1")
    problems = [p for res in ops for p in res.problems]
    line = {"correct": not problems and (trace or compared > 0), "attempted": len(ops),
            "failed": len(failed)}
    predicted = sum(res.op.expect_fail for res in ops)
    print(f"# {len(failed)} of {len(ops)} operations failed; the generator predicted "
          f"{predicted} grid-edge failures", file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return line, metrics


def write_trace(workload: str, seed: int, traced: list[PassResult]) -> None:
    """Aggregated spans, one per cli.main invocation of each traced repetition."""
    TRACE_DIR.mkdir(exist_ok=True)
    spans = [{"repetition": rep, "argv": list(res.op.argv), "rc": res.rc,
              "seconds": res.seconds, "self_s": res.layers, "counts": res.counts}
             for rep, result in enumerate(traced) for res in result.ops]
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"machine": machine(), "workload": workload, "seed": seed, "spans": spans},
                  handle, indent=1)


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pfield" / "cli.py").is_file():
        print(f"benchmark error: {SRC / 'pfield'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = declared_metrics(bool(args.trace))
    line, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {machine()}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}", file=sys.stderr)
    line["metrics"] = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                       for name in names}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
