#!/usr/bin/env python3
"""Fail when a dtt:: function defined in libdtt.a is linked into no binary.

Configures and builds every target of the repo (tests, bench drivers,
examples, tools) in BUILD_DIR at `-O0 -g0 -ffunction-sections`, linked with
`-Wl,--gc-sections`. At -O0 nothing is inlined, so a function that some
binary calls keeps its own symbol there; the linker drops every section no
binary reaches. A `dtt::` function that libdtt.a defines and that survives
in none of the executables has no caller anywhere: delete it, or move it to
tests/testing if it is a test oracle.

Header-inline functions are out of its reach: an inline function that no
translation unit calls is never emitted, so it has no symbol to miss.
Building with -fkeep-inline-functions would emit them, but that also
reports implicit constructors and lambda thunks, which is too noisy to
gate on.

Only the executables of the targets the current configure generates are
scanned, read from CMake's file API (a codemodel-v2 query written before
configuring). A binary that an earlier build left behind for a target that
no longer exists is ignored, so it cannot keep a function "linked".

perfbench/ is not built: it links nothing that the main tree's binaries do
not already link, so it cannot clear a finding.

Usage: check_unlinked.py [BUILD_DIR] [repo_root]
  BUILD_DIR defaults to build/unlinked under repo_root; repo_root defaults
  to the parent of tools/. The build is incremental on reruns.
Exit codes: 0 = every library function is linked somewhere, 1 = unlinked
functions (listed on stderr), 2 = the build failed or found no binaries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

# nm symbol types for code: global, local and weak (inline/template) text.
TEXT_TYPES = {"T", "t", "W"}


def text_symbols(path: Path) -> set[str]:
    """Mangled names of the functions defined in an archive or executable."""
    out = subprocess.run(["nm", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            symbols.add(parts[2])
    return symbols


def demangle(symbols: list[str]) -> list[str]:
    out = subprocess.run(["c++filt"], input="\n".join(symbols),
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def executables(build_dir: Path) -> list[Path]:
    """Artifacts of the current EXECUTABLE targets, from the file API reply."""
    reply = build_dir / ".cmake" / "api" / "v1" / "reply"
    indexes = sorted(reply.glob("index-*.json"))
    if not indexes:
        return []
    index = json.loads(indexes[-1].read_text())
    codemodel = json.loads(
        (reply / index["reply"]["codemodel-v2"]["jsonFile"]).read_text())
    found = []
    for target in codemodel["configurations"][0]["targets"]:
        detail = json.loads((reply / target["jsonFile"]).read_text())
        if detail["type"] == "EXECUTABLE":
            found += [build_dir / a["path"] for a in detail["artifacts"]]
    return sorted(found)


def build(root: Path, build_dir: Path) -> bool:
    configure = [
        "cmake", "-S", str(root), "-B", str(build_dir),
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    query = build_dir / ".cmake" / "api" / "v1" / "query"
    query.mkdir(parents=True, exist_ok=True)
    (query / "codemodel-v2").touch()
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"check_unlinked: failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main() -> int:
    root = Path(sys.argv[2] if len(sys.argv) > 2 else
                Path(__file__).resolve().parent.parent).resolve()
    build_dir = Path(sys.argv[1] if len(sys.argv) > 1 else
                     root / "build" / "unlinked").resolve()
    if not build(root, build_dir):
        return 2
    library = build_dir / "libdtt.a"
    binaries = executables(build_dir)
    if not library.is_file() or not binaries:
        print(f"check_unlinked: no libdtt.a or executables in {build_dir}",
              file=sys.stderr)
        return 2

    defined = sorted(text_symbols(library))
    linked = set()
    for binary in binaries:
        linked |= text_symbols(binary)
    unlinked = sorted(
        name for mangled, name in zip(defined, demangle(defined))
        if name.startswith("dtt::") and mangled not in linked)

    if unlinked:
        print(f"check_unlinked: {len(unlinked)} dtt:: function(s) in "
              f"libdtt.a linked into none of {len(binaries)} binaries:",
              file=sys.stderr)
        for name in unlinked:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"check_unlinked: every dtt:: function in libdtt.a is linked into "
          f"one of {len(binaries)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
