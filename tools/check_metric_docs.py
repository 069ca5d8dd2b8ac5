#!/usr/bin/env python3
"""Fail when docs/observability.md's instrument table drifts from src/.

Collects every metric name registered under src/ through
GetCounter / GetGauge / GetHistogram("...") and compares it with the names
listed in the "Metric naming scheme" table of docs/observability.md. A table
row is `| `prefix.*` | instruments |`; each backticked instrument is appended
to the prefix, and `{a,b}` groups expand (`rows.{submitted,rejected}` is two
names). Names a component builds at run time from a caller-supplied prefix
(`GetCounter(prefix + ".hits")`) are checked by prefix: every such suffix
must be documented under each prefix in PREFIX_BUILT, and that prefix must
still appear as a string literal under src/. Registered as the
`docs.metric_names` ctest and run as a CI step.

Usage: check_metric_docs.py [repo_root]     (default: the parent of tools/)
Exit codes: 0 = table and source agree, 1 = names missing from the table or
documented but never registered (listed on stderr), 2 = no table or no
registered names found (miswired invocation).
"""

import itertools
import re
import sys
from pathlib import Path

# Prefixes that src/ passes to components which build metric names at run
# time (ShardedLruCache's metrics_prefix).
PREFIX_BUILT = ("serve.cache",)

LITERAL_RE = re.compile(r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"\s*\)')
BUILT_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*\w+\s*\+\s*"\.([^"]+)"\s*\)')
TABLE_HEADING = "### Metric naming scheme"
ROW_RE = re.compile(r"^\|\s*`([^`]+)\.\*`\s*\|(.*)\|\s*$")
CODE_RE = re.compile(r"`([^`]+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")


def expand(name: str) -> list[str]:
    """`a.{b,c}.d` -> [`a.b.d`, `a.c.d`]; any number of brace groups."""
    parts = BRACE_RE.split(name)
    # split() alternates literal text and brace contents.
    choices = [[p] if i % 2 == 0 else p.split(",")
               for i, p in enumerate(parts)]
    return ["".join(c.strip() for c in combo)
            for combo in itertools.product(*choices)]


def source_names(root: Path) -> tuple[set[str], set[str], str]:
    names, suffixes = set(), set()
    text_all = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = path.read_text(encoding="utf-8")
        text_all.append(text)
        names.update(LITERAL_RE.findall(text))
        suffixes.update(BUILT_RE.findall(text))
    return names, suffixes, "\n".join(text_all)


def documented_names(doc: Path) -> set[str] | None:
    lines = doc.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(TABLE_HEADING)
    except ValueError:
        return None
    names = set()
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        row = ROW_RE.match(line)
        if not row:
            continue
        prefix, cell = row.groups()
        for token in CODE_RE.findall(cell):
            names.update(f"{prefix}.{n}" for n in expand(token))
    return names


def main() -> int:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
    doc = root / "docs" / "observability.md"
    documented = documented_names(doc) if doc.is_file() else None
    registered, suffixes, source = source_names(root)
    if not documented or not registered:
        print(f"check_metric_docs: no instrument table in {doc} or no "
              f"registered metrics under {root / 'src'}", file=sys.stderr)
        return 2

    errors = []
    expected = set(registered)
    for prefix in PREFIX_BUILT:
        if f'"{prefix}"' not in source:
            errors.append(f"prefix {prefix!r} no longer appears under src/; "
                          "update PREFIX_BUILT")
        expected.update(f"{prefix}.{s}" for s in suffixes)
    for name in sorted(expected - documented):
        errors.append(f"missing from the docs table: {name}")
    for name in sorted(documented - expected):
        errors.append(f"documented but never registered: {name}")
    for err in errors:
        print(f"{doc.relative_to(root)}: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_metric_docs: {len(expected)} instruments documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
