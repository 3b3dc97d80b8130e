#!/usr/bin/env python3
"""ISA-isolation check for the AVX2 pack objects.

The AVX2 pack kernels build in their own translation units with -mavx2 -mfma
(src/oxram/pack_avx2.cpp). Such a TU may define no external-linkage code but
PackAvx instantiations: any other weak or global function it emits (an inline
std:: helper, a PackScalar kernel, a generic Vec::load) is AVX-encoded, and
the linker may keep that copy for the portable path, which would then fault
on a CPU without AVX2. This script runs `nm -C` on those objects and fails
on every global or weak text symbol whose name does not mention PackAvx.

Usage
-----
  check_isa_isolation.py BUILD_DIR...   check every *_avx2.cpp.o under the
                                        build trees (CMake object naming)
  check_isa_isolation.py OBJECT.o...    check the given objects
  check_isa_isolation.py --self-test    run the classifier on canned nm
                                        output (a leaking and a clean layout)

Exit status: 0 clean, 1 leaking symbols found, 2 usage/environment error
(no AVX2 objects found, nm missing or failing).
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

# nm symbol types that are code other objects can bind to: global text,
# weak (COMDAT inline/template instantiations) and GNU indirect functions.
EXPORTED_CODE = {"T", "W", "i"}
ALLOWED_MARKER = "PackAvx"


def leaks(nm_output: str) -> list[str]:
    """Exported code symbols in `nm -C --defined-only` output not naming PackAvx."""
    found = []
    for line in nm_output.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) != 3:
            continue
        _, kind, name = parts
        if kind in EXPORTED_CODE and ALLOWED_MARKER not in name:
            found.append(f"{kind} {name}")
    return found


def objects_in(paths: list[str]) -> list[Path]:
    objects = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            objects.extend(sorted(path.rglob("*_avx2.cpp.o")))
        elif path.is_file():
            objects.append(path)
        else:
            print(f"check_isa_isolation: no such file or directory: {path}", file=sys.stderr)
            sys.exit(2)
    return objects


def check(paths: list[str]) -> int:
    nm = shutil.which("nm")
    if nm is None:
        print("check_isa_isolation: nm not found", file=sys.stderr)
        return 2
    objects = objects_in(paths)
    if not objects:
        print("check_isa_isolation: no *_avx2.cpp.o objects found; is the build "
              "portable-only (no x86-64 -mavx2 -mfma)?", file=sys.stderr)
        return 2
    failed = False
    for obj in objects:
        run = subprocess.run([nm, "-C", "--defined-only", str(obj)],
                             capture_output=True, text=True)
        if run.returncode != 0:
            print(f"check_isa_isolation: nm failed on {obj}: {run.stderr.strip()}",
                  file=sys.stderr)
            return 2
        bad = leaks(run.stdout)
        if bad:
            failed = True
            print(f"FAIL {obj}: {len(bad)} exported non-PackAvx code symbol(s)")
            for symbol in bad:
                print(f"  {symbol}")
        else:
            print(f"ok   {obj}")
    return 1 if failed else 0


def self_test() -> int:
    # Whole-TU -mavx2 layout: the portable instantiations and generic inline
    # helpers come out AVX-encoded and exported.
    leaking = """\
0000000000000000 W oxmlc::num::simd::PackScalar::Vec oxmlc::num::simd::exp<oxmlc::num::simd::PackScalar>(oxmlc::num::simd::PackScalar::Vec)
0000000000000000 W void oxmlc::oxram::CellBatch::step_pack<oxmlc::num::simd::PackScalar>(unsigned long const*, unsigned long)
0000000000000000 W std::numeric_limits<double>::infinity()
0000000000000000 T oxmlc::oxram::drifted_gap_batch(oxmlc::oxram::DriftParams const&)
0000000000000000 W void oxmlc::oxram::CellBatch::step_pack<oxmlc::num::simd::PackAvx>(unsigned long const*, unsigned long)
"""
    # Split layout: only PackAvx instantiations are exported; locals, data
    # and constants do not count.
    clean = """\
0000000000000000 W oxmlc::num::simd::PackAvx::Vec oxmlc::num::simd::exp<oxmlc::num::simd::PackAvx>(oxmlc::num::simd::PackAvx::Vec)
0000000000000000 W void oxmlc::oxram::CellBatch::step_pack<oxmlc::num::simd::PackAvx>(unsigned long const*, unsigned long)
0000000000000010 t _GLOBAL__sub_I_pack_avx2.cpp
0000000000000000 u oxmlc::num::simd::detail::kExpC
0000000000000000 r .LC0
"""
    got_leaking = leaks(leaking)
    got_clean = leaks(clean)
    ok = len(got_leaking) == 4 and all("PackAvx" not in s for s in got_leaking)
    ok = ok and got_clean == []
    print("self-test:", "ok" if ok else f"FAILED (leaking={got_leaking}, clean={got_clean})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="build directories or object files")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.paths:
        parser.error("give a build directory or object files")
    return check(args.paths)


if __name__ == "__main__":
    sys.exit(main())
