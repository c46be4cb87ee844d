#!/usr/bin/env python3
"""Check the paper-reproduction benches' stdout against checked-in goldens.

Every paper bench (each `libra_bench(...)` target in bench/CMakeLists.txt)
prints the tables and figures it reproduces. This tool runs them from a
build tree and diffs each stdout against tests/paper_golden/<name>.txt, so
a change that moves any paper number shows up as a named, reviewable diff.

Two lines report the host's thread count ("retrain pool: N threads" in
online_adaptation, "CV pool: N threads" in table3_ml_models); exactly those
two are normalised to "N threads" before comparing. Nothing else is masked.

Usage (from the repository root, after building):
    python3 tools/paper_golden.py build            # check; exit 1 on a diff
    python3 tools/paper_golden.py build --update   # refresh the goldens

--update rewrites the golden files and prints the same unified diff a
check would, so the refresh is visible in review. All 17 benches take
about 3 minutes on one core; -j runs several at once.
"""

import argparse
import concurrent.futures
import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "paper_golden"
BENCH_CMAKE = ROOT / "bench" / "CMakeLists.txt"

# The only host-dependent lines in the paper benches' output.
_HOST_LINES = re.compile(r"^((?:retrain|CV) pool: )\d+( threads)$",
                         re.MULTILINE)


def bench_names():
    text = BENCH_CMAKE.read_text(encoding="utf-8")
    return re.findall(r"^libra_bench\((\w+)\)", text, re.MULTILINE)


def normalise(text):
    return _HOST_LINES.sub(r"\1N\2", text)


def run_bench(build_dir, name):
    exe = build_dir / "bench" / name
    if not exe.is_file():
        return name, None, f"missing executable {exe}"
    # A throwaway cwd: no bench may depend on (or litter) the caller's.
    with tempfile.TemporaryDirectory(prefix="paper_golden_") as cwd:
        proc = subprocess.run([str(exe)], cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        return name, None, (f"exit code {proc.returncode}\n" +
                            proc.stderr.decode(errors="replace"))
    return name, normalise(proc.stdout.decode()), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=Path,
                    help="CMake build tree holding bench/<name> executables")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden files from this run")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="benches to run at once (default 1)")
    args = ap.parse_args()

    names = bench_names()
    build_dir = args.build_dir.resolve()

    failed = []
    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        results = pool.map(lambda n: run_bench(build_dir, n), names)
        for name, out, err in results:
            if err is not None:
                print(f"FAIL {name}: {err}")
                failed.append(name)
                continue
            golden = GOLDEN_DIR / f"{name}.txt"
            expected = (golden.read_text(encoding="utf-8")
                        if golden.is_file() else "")
            if out == expected:
                print(f"ok   {name}")
                continue
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(keepends=True),
                out.splitlines(keepends=True),
                fromfile=f"tests/paper_golden/{name}.txt",
                tofile=f"{name} (this build)"))
            if args.update:
                GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
                golden.write_text(out, encoding="utf-8")
                print(f"updated {name}")
            else:
                print(f"DIFF {name}")
                failed.append(name)

    if failed:
        print(f"paper_golden: {len(failed)} of {len(names)} bench(es) "
              f"failed: {', '.join(failed)}")
        return 1
    print(f"paper_golden: {len(names)} bench(es) "
          f"{'refreshed' if args.update else 'match'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
