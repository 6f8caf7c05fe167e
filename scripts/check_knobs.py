#!/usr/bin/env python3
"""Fail when a node knob is set by nothing but tests.

A knob is a field of `core::NodeConfig` (src/core/node.h),
`core::AdmissionConfig` (src/core/admission.h) or
`location::FabricConfig` (src/location/fabric.h). Every knob must be
assigned somewhere under src/, bench/, perfbench/, tools/ or examples/:
`x.knob = ...`, `x->knob = ...`, a designated initializer `.knob = ...`,
or for a container `x.knob.push_back(...)` and the like. A knob that
only tests turn on switches a path no deployment, bench or tool runs:
either give it a user, or delete it together with the path it gates.

Fields whose type is one of the checked structs (`NodeConfig::admission`,
`NodeConfig::location`) are containers; their own fields are checked
instead. Identity, deployment and capacity settings that a real
deployment sets but no program in this repository has to can pass via
ALLOWLIST, one reason each.

Exit status: 0 when every knob has a setter or an allowlist entry, and
every allowlist entry names a knob that has no setter; 1 otherwise.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (struct name, header declaring it)
STRUCTS = [
    ("NodeConfig", "src/core/node.h"),
    ("AdmissionConfig", "src/core/admission.h"),
    ("FabricConfig", "src/location/fabric.h"),
]

SEARCH_DIRS = ["src", "bench", "perfbench", "tools", "examples"]

ALLOWLIST = {
    "disk_pages": "capacity bound a deployment sizes to its disk",
    "max_retries": "retry budget a deployment tunes to its network",
    "stats_series_capacity": "telemetry ring size a deployment sizes to "
    "its scrape interval",
    "principal": "ACL identity a deployment assigns per node",
}

FIELD_RE = re.compile(
    r"^\s*(?P<type>[A-Za-z_][\w:<>, ]*?)\s+(?P<name>[A-Za-z_]\w*)"
    r"\s*(?:=[^;]*|\{[^}]*\})?;"
)


def struct_fields(name: str, header: str) -> list[tuple[str, str]]:
    """(type, field) for each data member of `struct name` in `header`."""
    text = (ROOT / header).read_text()
    m = re.search(r"^struct " + name + r" \{\n(.*?)^\};", text, re.M | re.S)
    if m is None:
        sys.exit(f"{header}: struct {name} not found")
    fields = []
    for line in m.group(1).splitlines():
        code = line.split("//", 1)[0]
        if "(" in code:  # operator==, member functions
            continue
        fm = FIELD_RE.match(code)
        if fm:
            fields.append((fm.group("type").strip(), fm.group("name")))
    return fields


def sources() -> list[tuple[Path, str]]:
    out = []
    for d in SEARCH_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in (".h", ".cc", ".cpp"):
                out.append((path, path.read_text()))
    return out


def main() -> int:
    struct_names = {name for name, _ in STRUCTS}
    knobs: dict[str, str] = {}  # field -> owning struct
    for name, header in STRUCTS:
        for ftype, field in struct_fields(name, header):
            if ftype.split("::")[-1] in struct_names:
                continue  # embedded config: its fields are checked
            knobs[field] = name
    files = sources()
    failures = []
    for field, owner in sorted(knobs.items()):
        setter = re.compile(
            r"(?:\.|->)" + field
            + r"\s*(?:=(?!=)|\.(?:push_back|emplace_back|assign|insert)\()"
        )
        assigned = any(setter.search(text) for _, text in files)
        if assigned and field in ALLOWLIST:
            failures.append(f"ALLOWLIST entry {field!r} is set outside "
                            "tests/ now: drop the entry")
        elif not assigned and field not in ALLOWLIST:
            failures.append(
                f"{owner}::{field} is assigned nowhere under "
                f"{', '.join(SEARCH_DIRS)}: give it a user or delete it"
            )
    for field in sorted(ALLOWLIST):
        if field not in knobs:
            failures.append(f"ALLOWLIST names {field!r}, which is no knob")
    for f in failures:
        print(f"check_knobs: {f}")
    if failures:
        return 1
    print(f"check_knobs: {len(knobs)} knobs, each set outside tests/ "
          f"or allowlisted ({len(ALLOWLIST)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
