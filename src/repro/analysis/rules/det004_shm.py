"""DET004 — shared-memory and worker-state pairing.

Two leak classes break long-lived runs and cross-test isolation:

- a ``SharedMemory(create=True)`` segment with no ``.unlink()`` anywhere
  in the module leaks ``/dev/shm`` space until reboot;
- an ``install_state(key, ...)`` with no matching
  ``uninstall_state(key)`` in the same module leaves stale state
  resident in worker pools, silently re-shipped on the next pool
  restart.

The pairing check is module-local and key-aware: the uninstall for
``EXTRACT_FLEET_KEY`` must live next to its install so the lifecycle is
auditable in one screenful.  Keys are compared after normalising the
first argument (string constant, Name, or ``module.CONST`` attribute).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.lint import Finding, Rule, SourceFile

RULE_ID = "DET004"

_CHANNELS = {
    "install_state": "uninstall_state",
}


def _key_token(node: ast.expr) -> str | None:
    """Normalise a state-key argument for matching install vs uninstall."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _check_file(source: SourceFile) -> Iterator[Finding]:
    tree = source.tree
    if tree is None:
        return

    creates: list[ast.Call] = []
    has_unlink = False
    installs: list[tuple[str, str | None, ast.Call]] = []
    uninstalled: set[tuple[str, str | None]] = set()

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name is None:
            continue
        if name == "SharedMemory":
            if any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                creates.append(node)
        elif name == "unlink":
            has_unlink = True
        elif name in _CHANNELS:
            key = _key_token(node.args[0]) if node.args else None
            installs.append((name, key, node))
        elif name in _CHANNELS.values():
            key = _key_token(node.args[0]) if node.args else None
            uninstalled.add((name, key))

    for call in creates:
        if not has_unlink:
            yield Finding(
                source.path,
                call.lineno,
                RULE_ID,
                "SharedMemory(create=True) with no .unlink() in this "
                "module; the segment leaks /dev/shm until reboot",
            )

    for install_name, key, call in installs:
        partner = _CHANNELS[install_name]
        if (partner, key) not in uninstalled:
            key_desc = key if key is not None else "<dynamic key>"
            yield Finding(
                source.path,
                call.lineno,
                RULE_ID,
                f"{install_name}({key_desc!r}, ...) has no matching "
                f"{partner} in this module; pool-resident state leaks "
                "across stages",
            )


def check(files: Mapping[str, SourceFile]) -> Iterable[Finding]:
    for path in sorted(files):
        if not path.startswith("src/repro/"):
            continue
        yield from _check_file(files[path])


RULE = Rule(id=RULE_ID, title="shm/worker-state pairing", check=check)
