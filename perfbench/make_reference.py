"""Regenerate perfbench/reference.json from the current sources.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

For every data seed it runs one unit of coarsen2d and film3d and stores the
final energy; for converge it stores the l2 errors of both ladders.  The
relative tolerance of each comparison comes from the solver tolerance: the
same unit is run again with the descent tolerance lowered by ``TIGHTEN``,
and the tolerance is ``MARGIN`` times the largest relative change that
tightening produced (never below ``FLOOR``).  A correct change to the
solvers moves the results by about as much as the stored values already
differ from the exact step solutions, which is what tightening measures.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

TIGHTEN = 100.0
MARGIN = 10.0
FLOOR = 1e-12


def unit_values(workload, workdir) -> tuple:
    checks = workloads.Checks()
    result = workloads.run_unit(workload, workdir, checks)
    if checks.failed:
        raise SystemExit(f"{workload.name}: checks failed: {checks.messages}")
    print(f"{workload.name} seed {getattr(workload, 'data_seed', '-')}: "
          f"{result.psd_iters} iterations, {result.wall:.2f} s", flush=True)
    return result.signature


def rel_change(a, b) -> float:
    return max(abs(x - y) / abs(y) for x, y in zip(a, b))


def main() -> int:
    workdir = BENCH_DIR / "out" / "work_reference"
    reference = {}
    try:
        for cls in (workloads.Coarsen2d, workloads.Film3d):
            energies = {
                str(seed): unit_values(cls(seed=seed), workdir)[0]
                for seed in range(workloads.DATA_SEEDS)
            }
            base = cls(seed=0)
            tight = unit_values(cls(seed=0, tol=base.tol / TIGHTEN), workdir)
            change = rel_change(tight, (energies["0"],))
            reference[cls.name] = {
                "final_energy": energies,
                "tightened_rel_change": change,
                "rel_tol": max(MARGIN * change, FLOOR),
            }
        base = workloads.Converge()
        errors = unit_values(base, workdir)
        tight = unit_values(workloads.Converge(tol=base.tol / TIGHTEN), workdir)
        change = rel_change(tight, errors)
        reference["converge"] = {
            "errors_l2": list(errors),
            "tightened_rel_change": change,
            "rel_tol": max(MARGIN * change, FLOOR),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
