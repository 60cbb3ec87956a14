#!/usr/bin/env python3
"""Docs-consistency check (CI): the documentation must keep up with the wire
protocol and the telemetry surface.

Two rules, both extracted from the source of truth in lib/:

1. Every wire message — each constructor of ``Hf_proto.Message.t`` — and the
   two envelope tag bytes (126 reliability, 127 traced span) must be named
   somewhere under doc/.
2. Every ``hf.<layer>.<name>`` metric the code can register must be named
   somewhere under doc/.  Names are collected from (a) full string literals,
   and (b) the tracer's ``register``, which builds names as
   ``prefix ^ ".short"`` — its shorts are crossed with every explicit
   ``~prefix:"hf.*"`` call-site argument in lib/.

Exit 1 listing every missing name, so a PR that adds a message or metric
without documenting it fails in CI.  No third-party imports; runs anywhere
python3 runs.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIB = ROOT / "lib"
DOC = ROOT / "doc"


def doc_corpus() -> str:
    texts = [p.read_text(encoding="utf-8") for p in sorted(DOC.glob("*.md"))]
    if not texts:
        sys.exit("check_docs: no markdown files under doc/")
    return "\n".join(texts)


def wire_tags() -> list[str]:
    """Constructors of Message.t plus the two envelope tag bytes."""
    mli = (LIB / "proto" / "message.mli").read_text(encoding="utf-8")
    block = mli.split("type t =", 1)[1]
    names = []
    for line in block.splitlines():
        m = re.match(r"\s+\| ([A-Z][A-Za-z_0-9]*)", line)
        if m:
            names.append(m.group(1))
        elif re.match(r"^[a-z(]", line):  # next top-level item ends the type
            break
    codec = (LIB / "proto" / "codec.ml").read_text(encoding="utf-8")
    for tag_let in ("traced_tag", "rel_tag"):
        m = re.search(rf"let {tag_let} = (\d+)", codec)
        if not m:
            sys.exit(f"check_docs: {tag_let} not found in lib/proto/codec.ml")
        names.append(m.group(1))
    if len(names) < 14:
        sys.exit(f"check_docs: implausibly few wire tags extracted: {names}")
    return names


METRIC_LITERAL = re.compile(r'"(hf\.[a-z_]+\.[a-z_0-9]+)"')
CALLSITE_PREFIX = re.compile(r'~prefix:"(hf\.[a-z_]+)"')


def metric_names() -> list[str]:
    names: set[str] = set()
    sources = {p: p.read_text(encoding="utf-8") for p in sorted(LIB.rglob("*.ml"))}
    callsite_prefixes: set[str] = set()
    for text in sources.values():
        callsite_prefixes |= set(CALLSITE_PREFIX.findall(text))
    for text in sources.values():
        names |= set(METRIC_LITERAL.findall(text))
        for short in re.findall(r'prefix \^ "\.([a-z_0-9]+)"', text):
            for prefix in callsite_prefixes:
                names.add(f"{prefix}.{short}")
    # 57 live names (22 on the simulator's registry, 39 on a TCP site's,
    # 4 of them shared); far fewer means the extraction broke
    if len(names) < 50:
        sys.exit(f"check_docs: implausibly few metric names extracted ({len(names)})")
    return sorted(names)


def main() -> int:
    corpus = doc_corpus()
    missing = []
    for tag in wire_tags():
        if tag not in corpus:
            missing.append(f"wire tag/message `{tag}` (lib/proto) is not documented in doc/")
    for name in metric_names():
        if name not in corpus:
            missing.append(f"metric `{name}` is not documented in doc/")
    if missing:
        print("docs drift detected — update doc/ (see doc/architecture.md tables):")
        for line in missing:
            print(f"  - {line}")
        return 1
    print(
        f"docs-consistency: OK ({len(wire_tags())} wire tags, "
        f"{len(metric_names())} metric names all documented)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
