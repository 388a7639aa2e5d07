"""Record the reference data-section digests of the default seed's first pass.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the reference;
it rewrites perfbench/reference.json for every workload, at the full and the
smoke grid.  A change that keeps outputs byte-identical must not need this.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, make_pass


def record(workload: str, smoke: bool) -> list[dict]:
    from pfield import cli

    with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.HERE) as tmp:
        pass_dir = Path(tmp) / "ref"
        result = run.run_pass(cli.main, make_pass(workload, run.DEFAULT_SEED, 0, smoke), pass_dir)
        run.check_pass(result, pass_dir, with_digests=True)
    problems = [p for res in result.ops for p in res.problems]
    if problems:
        raise SystemExit(f"{workload}: refusing to record failing outputs: {problems[:5]}")
    return [{"argv": list(res.op.argv), "files": res.digests} for res in result.ops]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {scale: {w: record(w, scale == "smoke") for w in WORKLOADS}
             for scale in ("full", "smoke")}
    run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(run.REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
