"""Seeded-fault matrix: which unit tests catch each of twelve one-line source faults.

Run from the repository root,

    python tests/faults.py

For each fault it copies ``src/`` to a temporary directory, applies the
fault's one-line change to the copy (the working tree is never touched),
runs the unit modules (every ``tests/test_*.py`` but the acceptance suite)
against the copy, and prints one line per fault: its name, the number of
test items it kills and their ids. An item kills a fault when it fails on
the faulted copy and passes on an unchanged one, which runs first. A
property that can fail on working code by chance (README "Rare failure")
may kill a fault by chance: its kills are printed apart and do not count.
A change that deletes or moves a test should show every fault still
killed; the script exits 1 if one is not.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNIT_MODULES = sorted(str(p) for p in (ROOT / "tests").glob("test_*.py")
                      if p.name != "test_acceptance.py")
CHANCE = {"test_properties.py::test_ekf_step_keeps_finite_mean_and_psd_covariance"}

# name, file under src/cdassim, the text it changes (found exactly once), the faulted text
FAULTS = (
    ("M1", "cstr.py", "flow *= F / V", "flow *= F * (1.0 / V)"),
    ("M2", "cstr.py", "-2.0 * kCB, -FV - 2.0 * kCA", "-2.0 * kCA, -FV - 2.0 * kCA"),
    ("M3", "cstr.py", "-FV + beta * kpAB, r,", "-FV + beta * kpAB, k,"),
    ("M4", "sde.py", "key = u.tobytes()", "key = b''"),
    ("M5", "sde.py", "slice(driven[0], driven[-1] + 1)", "slice(driven[0], driven[0] + 1)"),
    ("M6", "sde.py", "(t, t + 0.5 * h, t + h)", "(t, t + 0.25 * h, t + h)"),
    ("M7", "filters/runner.py", "propagate_root.child(k).child(0)",
     "propagate_root.child(k).child(2)"),
    ("M8", "harness.py", ":.17g}", ":.16g}"),
    ("M9", "harness.py", "T = T + dT * h + g * dw", "T = T + (dT * h + g * dw)"),
    ("M10", "cstr.py", "float(np.exp(-EA_R / T))", "math.exp(-EA_R / T)"),
    ("M11", "filters/runner.py", "perturb_root.child(k)", "perturb_root.child(k + 1)"),
    # the pooled path alone runs every task on its kind's default stream
    ("M12", "harness.py", "pool.map(_call_task, tasks)",
     "pool.map(_call_task, [(*task[:2], None) for task in tasks])"),
)


def failures(fault=None) -> set[str]:
    """Ids of the unit-test items that fail against a copy of ``src/`` with ``fault`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if fault is not None:
            name, file, old, new = fault
            path = src / "cdassim" / file
            text = path.read_text()
            assert text.count(old) == 1, f"{name}: {old!r} is not found once in {file}"
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
                               "-p", "no:cacheprovider", "--continue-on-collection-errors",
                               *UNIT_MODULES],
                              cwd=tmp, env=env, capture_output=True, text=True)
    # a summary line reads "FAILED <path relative to cwd>::<test> - <message>"
    ids = (line.split(" ", 1)[1].split(" - ")[0].partition("::")
           for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR ")))
    return {Path(path).name + sep + test for path, sep, test in ids}


def main() -> int:
    clean = failures()
    print(f"unchanged copy: {len(clean)} failing {sorted(clean)}", flush=True)
    survived = 0
    with ThreadPoolExecutor(2) as pool:
        for (name, file, old, new), failed in zip(FAULTS, pool.map(failures, FAULTS)):
            killers = sorted(failed - clean - CHANCE)
            by_chance = sorted((failed - clean) & CHANCE)
            survived += not killers
            print(f"{name} {file}: {old!r} -> {new!r}: {len(killers)} "
                  f"{', '.join(killers) or 'SURVIVED'}"
                  + (f"; by chance: {', '.join(by_chance)}" if by_chance else ""), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
