"""Documentation consistency checker (the CI docs job).

Three guarantees:

1. every relative markdown link in ``docs/`` and ``README.md`` resolves to
   an existing file;
2. every dotted ``repro.*`` name mentioned in ``docs/API.md``,
   ``README.md`` and ``docs/ARCHITECTURE.md`` actually exists — resolved
   by importing the longest module prefix and walking the remaining
   attributes, so the docs can never drift from the code without CI
   noticing;
3. every flag in a ``python -m repro.cli <cmd> ...`` usage line of
   ``README.md`` is an option of that subcommand in
   ``repro.cli.build_parser()``.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: markdown files whose relative links must resolve
LINK_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: the files whose dotted repro.* mentions must all import
NAME_FILES = [
    REPO / "docs" / "API.md", REPO / "README.md",
    REPO / "docs" / "ARCHITECTURE.md",
]

#: the file whose ``python -m repro.cli`` usage lines must use real flags
USAGE_FILE = REPO / "README.md"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
#: a usage line's subcommand and the rest of the line (up to a backtick)
_USAGE = re.compile(r"python -m repro\.cli ([a-z][\w-]*)([^`\n]*)")
#: a flag: a dash-led word not inside another word (``hier-cec`` is none)
_FLAG = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")


def check_links() -> list:
    failures = []
    for path in LINK_FILES:
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                failures.append(f"{path.relative_to(REPO)}: broken link "
                                f"-> {target}")
    return failures


def resolve_dotted(name: str):
    """Import the longest importable prefix, then getattr the rest."""
    parts = name.split(".")
    last_error = None
    for i in range(len(parts), 0, -1):
        module_name = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module_name)
        except ImportError as exc:
            last_error = exc
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)  # AttributeError = broken reference
        return obj
    raise ImportError(f"no importable prefix of {name!r}: {last_error}")


def check_api_names() -> list:
    failures = []
    for path in NAME_FILES:
        origin = path.relative_to(REPO)
        names = sorted(set(_DOTTED.findall(path.read_text())))
        for name in names:
            try:
                resolve_dotted(name)
            except (ImportError, AttributeError) as exc:
                failures.append(f"{origin}: {name} does not resolve ({exc})")
        print(f"{origin}: {len(names)} dotted names checked")
    return failures


def cli_options() -> dict:
    """Each subcommand of ``repro.cli.build_parser()`` mapped to the
    option strings it takes."""
    from repro.cli import build_parser

    (subcommands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: set(parser._option_string_actions)
        for name, parser in subcommands.choices.items()
    }


def check_cli_flags() -> list:
    """Failures for every usage line naming a subcommand or flag the CLI
    does not have (text after `` #`` is a comment)."""
    origin = USAGE_FILE.relative_to(REPO)
    options = cli_options()
    failures = []
    lines = 0
    for match in _USAGE.finditer(USAGE_FILE.read_text()):
        command, rest = match.groups()
        lines += 1
        known = options.get(command)
        if known is None:
            failures.append(f"{origin}: no repro.cli subcommand {command!r}")
            continue
        for flag in _FLAG.findall(rest.split(" #", 1)[0]):
            if flag not in known:
                failures.append(
                    f"{origin}: {command} has no option {flag} "
                    f"(usage: {match.group(0).strip()})"
                )
    print(f"{origin}: {lines} repro.cli usage lines checked")
    return failures


def main() -> int:
    failures = check_links() + check_api_names() + check_cli_flags()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"links OK across {len(LINK_FILES)} files; API names and "
              f"CLI usage flags OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
