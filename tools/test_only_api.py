#!/usr/bin/env python3
"""List the src/ functions that only tests use, and fail on any not allowed.

The rule (docs/architecture.md, "What src/ keeps"): every function in src/
is used by a program -- a bench, an example, a tool or fleetbench -- or is
named in tools/test_only_api.allow with the reason a test needs it. The
linker decides what "used" means, not a name grep:

1. Configure a Debug tree with -ffunction-sections -fno-inline and link
   with -Wl,--gc-sections, so every function keeps its own section and
   header-inline functions get an out-of-line copy wherever they are used.
2. Build every target of the top-level tree, and fleetbench from
   fleetbench/CMakeLists.txt in a subdirectory of the same build tree.
3. Take the text symbols (nm types T/t/W/w) of the src/ static libraries
   and remove every one that a non-test executable (bench/, examples/,
   tools/, fleetbench) still holds after --gc-sections.
4. Add the libra:: text symbols that test executables define and that
   neither the libraries nor a non-test executable hold: header-inline
   functions that only tests call.
5. Keep only names in namespace libra, and drop libra::testing::, lambdas,
   anonymous-namespace helpers (reachable only through a listed function),
   the special members the compiler may define implicitly, and template
   specializations of a template that a program instantiates too.

Every name printed must have an allowlist line, and every allowlist line
must name a function the search still prints: a line whose function is
gone or that a program now uses is stale and fails the run too, so the
list only shrinks. Allowlist lines read `<demangled name>  # <reason>`.

A constant leaves no symbol, so a second pass searches tokens instead: it
fails on any constexpr variable declared in a src/ header whose name
appears in no C++ file under src/, bench/, examples/, tools/, fleetbench/
or tests/ except in its own declaration. Comments, string literals and
static_assert statements are blanked out first: naming a constant there
does not read it. Constants have no allowlist.

Usage (from the repository root; needs cmake, a C++ toolchain, GTest,
google-benchmark and binutils' nm):
    python3 tools/test_only_api.py                   # build-api/, -j 4
    python3 tools/test_only_api.py --build-dir DIR -j 2
A clean build takes about 2.5 minutes on 4 cores; later runs rebuild
incrementally. Exits 0 when the search and the allowlist agree, 1 if not.
"""

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "test_only_api.allow"

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fno-inline",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
PROGRAM_DIRS = ("bench", "examples", "tools", "fleetbench")
TEST_DIR = "tests"
CODE_SUFFIXES = (".h", ".cpp")

# The name a constexpr variable declares: `constexpr T NAME =`, `NAME{` or
# `NAME[N] =`, possibly across lines. A function has a `(` before any `=`
# or `{`.
_CONSTEXPR = re.compile(r"\bconstexpr\b[^;(){}=]*?\b([A-Za-z_]\w*)\s*"
                        r"(?:\[[^\]]*\]\s*)?[={]")
_TOKEN = re.compile(r"[A-Za-z_]\w*")
_STATIC_ASSERT = re.compile(r"\bstatic_assert\s*\(")
# Comments, then raw, string and character literals; a quote right after an
# identifier character or a digit is a digit separator (1'000), not a literal.
_NOT_CODE = re.compile(r'//[^\n]*|/\*.*?\*/|\bR"([^()\\\s]{0,16})\(.*?\)\1"'
                       r'|"(?:\\.|[^"\\\n])*"|(?<!\w)\'(?:\\.|[^\'\\\n])*\'',
                       re.S)

# Mangled names in namespace libra (members, free functions, templates).
_LIBRA = re.compile(r"^_ZN[KVRO]*5libra")
_TESTING = re.compile(r"^_ZN[KVRO]*5libra7testing")
_ANONYMOUS = "_GLOBAL__N_"
_CLONE = re.compile(r" \[clone [^\]]*\]")
_ABI = re.compile(r"\[abi:[^\]]*\]")


def build(build_dir, jobs):
    """Configure (first time only) and build both trees."""
    trees = [(ROOT, build_dir), (ROOT / "fleetbench", build_dir / "fleetbench")]
    for source, binary in trees:
        if not (binary / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(source), "-B", str(binary)] +
                           FLAGS, check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", str(binary), "-j", str(jobs)],
                       check=True, stdout=subprocess.DEVNULL)


def text_symbols(path):
    """Mangled names of the functions `path` defines."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[-2] in ("T", "t", "W", "w"):
            names.add(parts[-1])
    return names


def demangle(mangled):
    out = subprocess.run(["c++filt"], input="\n".join(mangled), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(mangled, out.splitlines()))


def executables(directory):
    """Linked executables under `directory`, skipping CMake's own files."""
    if not directory.is_dir():
        return []
    found = []
    for path in directory.rglob("*"):
        if (path.is_file() and "CMakeFiles" not in path.parts and
                path.stat().st_mode & 0o111):
            with path.open("rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return sorted(found)


_MEMBER = re.compile(r"^(?P<qual>.+)::(?P<member>~?[A-Za-z_]\w*|operator=)"
                     r"\((?P<args>.*)\)$")


def is_special_member(name):
    """Constructors, destructors and assignments the compiler can define:
    `C::C()`, `C::~C()`, and `C::C` or `C::operator=` taking `C const&` or
    `C&&`."""
    m = _MEMBER.match(name)
    if m is None:
        return False
    qual, member, args = m.group("qual", "member", "args")
    cls = re.sub(r"<.*>$", "", qual.rsplit("::", 1)[-1])
    if member == "~" + cls or (member == cls and args == ""):
        return True
    return member in (cls, "operator=") and args in (f"{qual} const&",
                                                    f"{qual}&&")


_TEMPLATE = re.compile(r"^(?:[^(]* )?(libra::[\w:]*\w)<")


def template_key(name):
    """`libra::f` for a specialization `R libra::f<T>(...)`, else None."""
    m = _TEMPLATE.match(name)
    return m.group(1) if m else None


def keep(mangled, name):
    if not _LIBRA.match(mangled) or _TESTING.match(mangled):
        return False
    if _ANONYMOUS in mangled or "{lambda(" in name:
        return False
    return not is_special_member(name)


def normalise(name):
    return _ABI.sub("", _CLONE.sub("", name))


def search(build_dir):
    """Returns (test-only names, names a program uses)."""
    libraries = sorted((build_dir / "src").rglob("liblibra_*.a"))
    programs = [exe for d in PROGRAM_DIRS for exe in executables(build_dir / d)]
    tests = executables(build_dir / TEST_DIR)
    if not libraries or not programs or not tests:
        sys.exit(f"test_only_api: no libraries, programs or tests under "
                 f"{build_dir}")

    in_libraries = set().union(*(text_symbols(p) for p in libraries))
    in_programs = set().union(*(text_symbols(p) for p in programs))
    in_tests = set().union(*(text_symbols(p) for p in tests))

    candidates = (in_libraries | in_tests) - in_programs
    names = demangle(sorted(candidates | in_programs))
    found = {normalise(names[m]) for m in candidates if keep(m, names[m])}
    used = {normalise(names[m]) for m in in_programs}
    used_templates = {template_key(n) for n in used} - {None}
    return {n for n in found - used
            if template_key(n) not in used_templates}, used


def _blank(text):
    """text with everything but newlines turned into spaces."""
    return re.sub(r"[^\n]", " ", text)


def code_only(text):
    """C++ source with comments, string and character literals and
    static_assert(...) statements blanked out, line numbers kept."""
    code = _NOT_CODE.sub(lambda m: _blank(m.group(0)), text)
    pieces, at = [], 0
    for m in _STATIC_ASSERT.finditer(code):
        if m.start() < at:
            continue  # inside a statement already blanked
        depth, end = 1, m.end()
        while end < len(code) and depth:
            depth += {"(": 1, ")": -1}.get(code[end], 0)
            end += 1
        if code[end:end + 1] == ";":
            end += 1
        pieces += [code[at:m.start()], _blank(code[m.start():end])]
        at = end
    return "".join(pieces) + code[at:]


def unread_constants():
    """[(name, declaration sites)] for the constexpr variables of src/
    headers that no C++ file names outside their declarations, comments,
    string literals and static_asserts."""
    declared = {}
    tokens = Counter()
    for directory in ("src",) + PROGRAM_DIRS + (TEST_DIR,):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            code = code_only(path.read_text(encoding="utf-8",
                                            errors="replace"))
            tokens.update(_TOKEN.findall(code))
            if directory != "src" or path.suffix != ".h":
                continue
            for m in _CONSTEXPR.finditer(code):
                number = code.count("\n", 0, m.start(1)) + 1
                declared.setdefault(m.group(1), []).append(
                    f"{path.relative_to(ROOT)}:{number}")
    return sorted((name, sites) for name, sites in declared.items()
                  if tokens[name] <= len(sites))


def read_allowlist(path):
    """{name: reason}; exits on a line without a reason or a duplicate."""
    entries = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not sep or not reason:
            sys.exit(f"{path.name}:{number}: no reason given for '{name}'")
        if name in entries:
            sys.exit(f"{path.name}:{number}: '{name}' listed twice")
        entries[name] = reason
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build-api"),
                        help="scratch build tree (default: build-api/)")
    parser.add_argument("-j", "--jobs", type=int, default=4,
                        help="parallel compile jobs (default: 4)")
    args = parser.parse_args()

    unread = unread_constants()
    build_dir = Path(args.build_dir).resolve()
    build(build_dir, args.jobs)
    found, used = search(build_dir)
    allowed = read_allowlist(ALLOWLIST)

    unlisted = sorted(found - allowed.keys())
    stale = sorted(allowed.keys() - found)
    for name in sorted(found):
        mark = "allowed" if name in allowed else "NOT ALLOWED"
        print(f"{mark:12} {name}")
    for name in unlisted:
        print(f"error: only tests use {name}; delete it or give the reason "
              f"a test needs it in {ALLOWLIST.name}", file=sys.stderr)
    for name in stale:
        why = ("a program now uses it" if name in used
               else "src/ no longer defines it")
        print(f"error: stale {ALLOWLIST.name} line '{name}': {why}",
              file=sys.stderr)
    for name, sites in unread:
        print(f"error: nothing reads constant {name} ({', '.join(sites)}); "
              f"delete it", file=sys.stderr)
    print(f"{len(found)} test-only function(s), {len(allowed)} allowed, "
          f"{len(unlisted)} unlisted, {len(stale)} stale, "
          f"{len(unread)} unread constant(s)")
    return 1 if unlisted or stale or unread else 0


if __name__ == "__main__":
    sys.exit(main())
