#!/usr/bin/env python3
"""Fail when docs/observability.md's instrument or span table drifts from src/.

Metrics: collects every metric name registered under src/ through
GetCounter / GetGauge / GetHistogram("...") and compares it with the names
listed in the "Metric naming scheme" table of docs/observability.md. A table
row is `| `prefix.*` | instruments |`; each backticked instrument is appended
to the prefix, and `{a,b}` groups expand (`rows.{submitted,rejected}` is two
names). Names a component builds at run time from a caller-supplied prefix
(`GetCounter(prefix + ".hits")`) are checked by prefix: every such suffix
must be documented under each prefix in PREFIX_BUILT, and that prefix must
still appear as a string literal under src/.

Spans: collects every span name emitted under src/ through
`TraceSpan var("category", "name")`, EmitSpan or EmitAsyncBegin — the
arguments may sit on the lines after the call — and compares it with the
backticked names in the first column of the "Span taxonomy" table.

Registered as the `docs.metric_names` ctest and run as a CI step.

Usage: check_metric_docs.py [repo_root]     (default: the parent of tools/)
Exit codes: 0 = tables and source agree, 1 = names missing from a table or
documented but never emitted (listed on stderr), 2 = a table or its source
names not found (miswired invocation).
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
# The span name is a call's second string literal; \s spans newlines.
SPAN_RE = re.compile(
    r'(?:TraceSpan\s+\w+|EmitSpan|EmitAsyncBegin)\(\s*"[^"]*"\s*,\s*"([^"]+)"')
TABLE_HEADING = "### Metric naming scheme"
SPAN_HEADING = "### Span taxonomy"
ROW_RE = re.compile(r"^\|\s*`([^`]+)\.\*`\s*\|(.*)\|\s*$")
SPAN_ROW_RE = re.compile(r"^\|([^|]*)\|")
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


def source_names(root: Path) -> tuple[set[str], set[str], set[str], str]:
    names, suffixes, spans = set(), set(), set()
    text_all = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = path.read_text(encoding="utf-8")
        text_all.append(text)
        names.update(LITERAL_RE.findall(text))
        suffixes.update(BUILT_RE.findall(text))
        spans.update(SPAN_RE.findall(text))
    return names, suffixes, spans, "\n".join(text_all)


def table_lines(lines: list[str], heading: str) -> list[str] | None:
    """The lines after `heading` up to the next heading, or None."""
    try:
        start = lines.index(heading)
    except ValueError:
        return None
    table = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        table.append(line)
    return table


def documented_names(lines: list[str]) -> set[str] | None:
    table = table_lines(lines, TABLE_HEADING)
    if table is None:
        return None
    names = set()
    for line in table:
        row = ROW_RE.match(line)
        if not row:
            continue
        prefix, cell = row.groups()
        for token in CODE_RE.findall(cell):
            names.update(f"{prefix}.{n}" for n in expand(token))
    return names


def documented_spans(lines: list[str]) -> set[str] | None:
    table = table_lines(lines, SPAN_HEADING)
    if table is None:
        return None
    names = set()
    for line in table:
        row = SPAN_ROW_RE.match(line)
        if row:
            names.update(CODE_RE.findall(row.group(1)))
    return names


def main() -> int:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
    doc = root / "docs" / "observability.md"
    lines = (doc.read_text(encoding="utf-8").splitlines() if doc.is_file()
             else [])
    documented = documented_names(lines)
    documented_span_names = documented_spans(lines)
    registered, suffixes, spans, source = source_names(root)
    if not documented or not registered:
        print(f"check_metric_docs: no instrument table in {doc} or no "
              f"registered metrics under {root / 'src'}", file=sys.stderr)
        return 2
    if not documented_span_names or not spans:
        print(f"check_metric_docs: no span table in {doc} or no emitted "
              f"spans under {root / 'src'}", file=sys.stderr)
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
    for name in sorted(spans - documented_span_names):
        errors.append(f"span missing from the span taxonomy: {name}")
    for name in sorted(documented_span_names - spans):
        errors.append(f"span documented but never emitted: {name}")
    for err in errors:
        print(f"{doc.relative_to(root)}: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_metric_docs: {len(expected)} instruments and "
          f"{len(spans)} spans documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
