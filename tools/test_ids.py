#!/usr/bin/env python3
"""Diff two test-id listings and print the removed-tests manifest.

    python3 tools/test_ids.py FLOOR HEAD [--reason GLOB=TEXT ...]
    python3 tools/test_ids.py FLOOR HEAD --check MANIFEST

FLOOR and HEAD are test listings in any of three forms: one id per line,
`ctest -N` output, or `rofs_tests --gtest_list_tests` output. Both are
normalised the same way before comparing: runs of spaces are squeezed to
one and each id is cut at 100 characters, with trailing spaces dropped.

The first form prints a JSON list with one entry per FLOOR id that HEAD
lacks: {"id", "reason", "renamed_to"}. A missing id is matched to a new
HEAD id in three ways:
  * unstable: the same id up to gtest's raw parameter bytes
    (`# GetParam() = 64-byte object <40-5D ...>`). A parameter gtest
    cannot print is listed as its bytes, which can hold a pointer, so
    the id differs on every build of any tree. There is no stable new
    name, so `renamed_to` is null;
  * renamed: the same test with a different `# GetParam() = ...` comment
    (a parameter printer changed how gtest shows the parameter);
  * moved: the same test name (the part after the last '.') under a
    different suite, when exactly one new HEAD id has that name.
Any other missing id is deleted; its reason comes from the first
`--reason GLOB=TEXT` whose shell-style GLOB matches the id.

The second form reads a manifest in that format and exits 1, listing
what is wrong, if a missing FLOOR id is undeclared, a declared id is
still present, or a `renamed_to` is not in HEAD.
"""

import argparse
import fnmatch
import json
import re
import sys

MAX_ID = 100
CTEST_LINE = re.compile(r"^\s*Test\s+#\d+:\s*(.*)$")
RAW_BYTES = re.compile(r"(-byte object <).*$")


def normalise(test_id):
    return re.sub(r" +", " ", test_id.strip())[:MAX_ID].rstrip()


def read_ids(path):
    """Returns the normalised ids of a listing, in file order."""
    ids = []
    suite = None
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            m = CTEST_LINE.match(line)
            if m:
                ids.append(normalise(m.group(1)))
            elif line.startswith("  ") and suite is not None:
                ids.append(normalise(suite + line.strip()))
            elif line.split("#")[0].rstrip().endswith("."):
                suite = line.split("#")[0].strip()
            elif line.startswith(("Test project", "Total Tests")):
                continue
            else:
                ids.append(normalise(line))
    return ids


def base(test_id):
    """The id without its `# GetParam() = ...` comment."""
    return test_id.split(" # ", 1)[0]


def without_bytes(test_id):
    """The id with gtest's raw parameter bytes dropped."""
    return RAW_BYTES.sub(r"\1", test_id)


def manifest(floor, head, reasons):
    head_set = set(head)
    floor_set = set(floor)
    added = [h for h in head if h not in floor_set]
    with_bytes = {without_bytes(h) for h in added if RAW_BYTES.search(h)}
    by_base = {}
    by_name = {}
    for h in added:
        by_base.setdefault(base(h), []).append(h)
        by_name.setdefault(base(h).rsplit(".", 1)[-1], []).append(h)
    entries = []
    for test_id in floor:
        if test_id in head_set:
            continue
        same = by_base.get(base(test_id), [])
        name = base(test_id).rsplit(".", 1)[-1]
        moved = by_name.get(name, [])
        if RAW_BYTES.search(test_id) and without_bytes(test_id) in with_bytes:
            entries.append({
                "id": test_id,
                "reason": "unstable: the id holds gtest's raw parameter "
                          "bytes, which carry a pointer, so a rebuild of "
                          "the unchanged tree misses it too",
                "renamed_to": None,
            })
        elif len(same) == 1:
            entries.append({
                "id": test_id,
                "reason": "renamed: gtest now prints the parameter by name; "
                          "the old id held its raw bytes, which carry a "
                          "pointer and change from build to build",
                "renamed_to": same[0],
            })
        elif len(moved) == 1:
            entries.append({
                "id": test_id,
                "reason": "moved to suite " +
                          base(moved[0]).rsplit(".", 1)[0],
                "renamed_to": moved[0],
            })
        else:
            reason = next((text for glob, text in reasons
                           if fnmatch.fnmatchcase(test_id, glob)),
                          "test deleted")
            entries.append({"id": test_id, "reason": reason,
                            "renamed_to": None})
    return entries


def check(floor, head, entries):
    head_set = set(head)
    declared = {e["id"]: e for e in entries}
    problems = []
    for test_id in floor:
        if test_id not in head_set and test_id not in declared:
            problems.append("undeclared: " + test_id)
    for test_id, e in declared.items():
        if test_id in head_set:
            problems.append("declared but still present: " + test_id)
        target = e.get("renamed_to")
        if target is not None and normalise(target) not in head_set:
            problems.append("renamed_to not in head: " + target)
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("floor")
    parser.add_argument("head")
    parser.add_argument("--reason", action="append", default=[],
                        metavar="GLOB=TEXT",
                        help="reason for deleted ids matching GLOB")
    parser.add_argument("--check", metavar="MANIFEST",
                        help="verify MANIFEST instead of printing one")
    args = parser.parse_args()

    reasons = []
    for spec in args.reason:
        glob, sep, text = spec.partition("=")
        if not sep or not glob or not text:
            parser.error("--reason takes GLOB=TEXT, got " + repr(spec))
        reasons.append((glob, text))

    floor = read_ids(args.floor)
    head = read_ids(args.head)
    if args.check:
        with open(args.check, encoding="utf-8") as f:
            problems = check(floor, head, json.load(f))
        for p in problems:
            print(p)
        return 1 if problems else 0
    json.dump(manifest(floor, head, reasons), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
