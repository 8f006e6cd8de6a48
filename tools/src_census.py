#!/usr/bin/env python
"""List the names defined under ``src/`` that only tests reference.

ROADMAP's design aim is one way per job: a function, class or method
that no program path reaches either goes or is kept on purpose.  This
census finds the candidates.  It collects every function, class and
method defined in ``src/`` (dunder methods aside) and every identifier
the program uses: names, attributes, imported names and string
constants that are one identifier (``getattr`` targets), in the
reference directories (``src``, ``examples``, ``benchmarks``,
``perfbench`` and ``tools``).  A definition whose name is used nowhere
there (its own ``def``/``class`` line does not count, and neither does
anything under ``tests/``) is *unreferenced*, unless :data:`ALLOWLIST`
keeps it with a reason.  The match is by name, so a dead method that
shares its name with a live one is not found::

    python tools/src_census.py              # the repository
    python tools/src_census.py --root DIR   # a tree with DIR/src, ...

The census reports and never fails: exit status 0 whatever it finds
(``tests/tools/test_src_census.py`` is the tier-1 gate that requires
an empty report of the repository).  The table goes first; the last stdout line is the JSON summary
``{"unreferenced": [...], "allowlisted": [...], "stale": [...]}``,
where ``stale`` lists allowlist entries that are referenced after all
or no longer defined.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set

REPO_ROOT = Path(__file__).resolve().parents[1]

#: directories (below the root) whose code counts as a use
REFERENCE_DIRS = ("src", "examples", "benchmarks", "perfbench", "tools")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: qualified names kept on purpose although only tests reach them
ALLOWLIST: Dict[str, str] = {
    "check_trace_conformance":
        "checks a recorded arrival trace against a TSpec: the traffic "
        "tests hold the CBR sources to the TSpec they advertise",
    "unregister":
        "test support: removes a toy experiment a test registered",
    "clear_caches":
        "test support: empties the FEC memo tables between cache tests",
    "GuaranteedServiceManager.next_planned_poll":
        "reads the cached earliest planned poll that first_due gates on: "
        "the incremental-PFP property checks it against every planner",
    "GuaranteedServiceManager.planner_for":
        "test access to one stream's planner: the incremental-PFP "
        "property recomputes the due streams and the earliest poll from "
        "the planners",
}


class Definition(NamedTuple):
    """One function, class or method defined under ``src/``."""

    path: str
    line: int
    kind: str
    qualname: str

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def _python_files(directory: Path) -> Iterator[Path]:
    if directory.is_dir():
        yield from sorted(directory.rglob("*.py"))


def definitions(src: Path, root: Path) -> List[Definition]:
    """Every module-level function and class and every method of a
    module-level class under ``src``, dunder methods excluded."""
    found: List[Definition] = []
    for path in _python_files(src):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        where = str(path.relative_to(root))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Definition(where, node.lineno, "function",
                                        node.name))
            elif isinstance(node, ast.ClassDef):
                found.append(Definition(where, node.lineno, "class",
                                        node.name))
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and not (member.name.startswith("__")
                                     and member.name.endswith("__")):
                        found.append(Definition(
                            where, member.lineno, "method",
                            f"{node.name}.{member.name}"))
    return found


def _exports(tree: ast.Module) -> Set[int]:
    """Node ids of the ``__all__`` string lists of a module."""
    return {id(constant) for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for constant in ast.walk(node.value)}


def references(root: Path, skip: Set[Path] = frozenset()) -> Set[str]:
    """Every identifier the code of the reference directories uses.

    A definition's own name is not a use, and neither is an import or an
    ``__all__`` entry inside ``src/``: re-exporting a name does not run
    it.
    """
    used: Set[str] = set()
    for directory in REFERENCE_DIRS:
        for path in _python_files(root / directory):
            if path.resolve() in skip:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            in_src = directory == "src"
            exported = _exports(tree) if in_src else set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    if not in_src:
                        used.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and _IDENTIFIER.match(node.value) \
                        and id(node) not in exported:
                    used.add(node.value)
    return used


def census(root: Path, allowlist: Dict[str, str] = ALLOWLIST) -> dict:
    """``unreferenced``/``allowlisted`` definitions and ``stale``
    allowlist entries of the tree at ``root``."""
    defined = definitions(root / "src", root)
    used = references(root, skip={Path(__file__).resolve()})
    unreferenced, allowlisted = [], []
    for definition in defined:
        if definition.name in used:
            continue
        if definition.qualname in allowlist:
            allowlisted.append(definition)
        else:
            unreferenced.append(definition)
    kept = {definition.qualname for definition in allowlisted}
    return {"unreferenced": unreferenced, "allowlisted": allowlisted,
            "stale": sorted(set(allowlist) - kept)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree holding src/ and the reference "
                             "directories (default: the repository)")
    args = parser.parse_args(argv)
    if not (args.root / "src").is_dir():
        parser.error(f"no src/ directory below {args.root}")
    found = census(args.root)
    print(f"unreferenced outside tests ({len(found['unreferenced'])}):")
    for definition in found["unreferenced"]:
        print(f"  {definition.path}:{definition.line}  {definition.kind}  "
              f"{definition.qualname}")
    print(f"kept on purpose ({len(found['allowlisted'])}):")
    for definition in found["allowlisted"]:
        print(f"  {definition.qualname}: {ALLOWLIST[definition.qualname]}")
    if found["stale"]:
        print(f"stale allowlist entries ({len(found['stale'])}): "
              + ", ".join(found["stale"]))
    print(json.dumps({
        "unreferenced": [d.qualname for d in found["unreferenced"]],
        "allowlisted": [d.qualname for d in found["allowlisted"]],
        "stale": found["stale"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
