"""Record the benchmark of a change against its parent as one BENCH_*.json file.

    python3 tools/bench_record.py --parent ../parent --change ../change \\
        --out BENCH_pr26.json

--parent and --change are two clean git checkouts (a worktree or a clone
each) of the repository: the parent commit and the change.  Every workload
of BENCHMARK.json runs through that tree's own, unchanged
`perfbench/run.py`, as BENCHMARK.json's command with `--trace 0` and
seed 1, from the tree's root and under this interpreter, for
BENCHMARK.json's `run_seconds`.  A pair is one run of each tree, back to
back, and the tree that runs first alternates from pair to pair, so a
drift of the host's speed does not favour either side.  Every record
holds 10 pairs, so all BENCH_*.json files are made the same way.

The file holds each run's JSON line (the last stdout line of run.py) and
every metric run.py prints to stderr, with its unit, plus the git revision
and the tree hash of `src/` of each side, the Python version and each
run's `host_probe_s`.  Its summary gives, per workload and end-to-end
metric, each side's quartiles and median and the number of pairs in which
the change reads better, in the direction BENCHMARK.json gives.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
SEED = 1


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def describe(tree: Path) -> dict[str, str]:
    """The tree's commit and the hash of its src/ tree; a checkout with
    uncommitted changes or untracked files (say a new module run.py would
    import) is refused, since no revision would name what ran."""
    if _git(tree, "status", "--porcelain"):
        raise SystemExit(f"bench_record: {tree} has uncommitted changes or "
                         "untracked files; commit them first")
    return {"revision": _git(tree, "rev-parse", "HEAD"),
            "src_tree": _git(tree, "rev-parse", "HEAD:src")}


def parse_stderr(text: str) -> tuple[dict[str, dict[str, object]], list[str]]:
    """({name: {"value", "unit"}} of run.py's metric lines, its other lines)."""
    metrics: dict[str, dict[str, object]] = {}
    notes = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                metrics[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
                continue
            except ValueError:
                pass
        if line:
            notes.append(line)
    return metrics, notes


def run_once(tree: Path, command: list[str], workload: str,
             seconds: float) -> dict[str, object]:
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(SEED),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    metrics, notes = parse_stderr(done.stderr)
    return {"returncode": done.returncode,
            "result": json.loads(lines[-1]) if done.returncode == 0 and lines else None,
            "stderr_metrics": metrics, "stderr_notes": notes,
            "host_probe_s": metrics.get("host_probe_s", {}).get("value")}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict[str, object]], workloads: list[str],
              end_to_end: list[dict[str, str]]) -> dict[str, object]:
    """Per workload and end-to-end metric: each side's quartiles and how
    many pairs the change reads better in (ties count for neither)."""
    summary: dict[str, object] = {}
    for name in workloads:
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == name and run["result"] is not None:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        rows = {}
        for metric in end_to_end if complete else ():
            key, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [pair[side][key]["value"] for pair in complete] for side in SIDES}
            rows[key] = {
                "unit": metric["unit"], "better": metric["better"],
                **{side: quartiles(values[side]) for side in SIDES},
                "change_better_pairs": sum(sign * (c - p) > 0.0 for p, c in
                                           zip(values["parent"], values["change"])),
                "pairs": len(complete)}
        summary[name] = {"correct_runs": sum(run["result"]["correct"] for run in runs
                                             if run["workload"] == name and run["result"]),
                         "runs": sum(run["workload"] == name for run in runs),
                         "metrics": rows}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = spec["run_seconds"]
    record: dict[str, object] = {
        "benchmark": {"command": spec["command"], "run_seconds": seconds,
                      "seed": SEED, "trace": 0},
        "python": platform.python_version(),
        "trees": {side: describe(tree) for side, tree in trees.items()},
    }
    workloads = [workload["name"] for workload in spec["workloads"]]
    runs: list[dict[str, object]] = []
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = run_once(trees[side], spec["command"], workload, seconds)
                runs.append({"pair": pair, "workload": workload, "side": side, **run})
                result = run["result"]
                print(f"pair {pair} {workload} {side}: rc={run['returncode']} "
                      f"correct={result and result['correct']}", file=sys.stderr)
    record["runs"] = runs
    record["summary"] = summarize(runs, workloads, spec["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["returncode"] == 0 for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
