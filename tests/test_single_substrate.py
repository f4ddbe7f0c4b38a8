"""One parallel substrate, one campaign-kind protocol.

The engine (`repro.engine.core`) is the only code that starts worker
processes: ``workers=N`` on every campaign entry point runs on a
throwaway engine, so no other module may import ``multiprocessing``.
And the engine, its request lookup and its daemon know no campaign kind
by name: each kind implements `repro.campaign.CampaignKind`, and the one
request-to-kind lookup (`repro.engine.state.KINDS`) is a table, not a
ladder.  These checks read the source, so a reintroduced pool or a
per-kind branch fails here before it can drift from the serial path.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(list(repro.__path__)[0]).resolve()
ENGINE_CORE = PACKAGE / "engine" / "core.py"
KIND_BLIND = [
    PACKAGE / "engine" / name for name in ("core.py", "state.py", "daemon.py")
]
REQUEST_TYPES = {
    "CampaignRequest", "SpecRequest", "ScenarioRequest", "FaultRequest",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports_multiprocessing(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "multiprocessing" for name in names):
            return True
    return False


def test_only_the_engine_imports_multiprocessing():
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != ENGINE_CORE and _imports_multiprocessing(_tree(path))
    ]
    assert offenders == []


def test_engine_modules_have_no_kind_ladders():
    for path in KIND_BLIND:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Compare):
                for side in [node.left, *node.comparators]:
                    assert not (
                        isinstance(side, ast.Attribute) and side.attr == "kind"
                    ), f"{path.name}:{node.lineno} compares a .kind"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                named = {
                    sub.id
                    for sub in ast.walk(node.args[1])
                    if isinstance(sub, ast.Name)
                }
                assert not named & REQUEST_TYPES, (
                    f"{path.name}:{node.lineno} dispatches on a request type"
                )


def test_every_request_type_has_exactly_one_kind():
    from repro.engine.state import KINDS, kind_of

    assert {cls.__name__ for cls in KINDS} == REQUEST_TYPES
    for request_type, kind in KINDS.items():
        assert kind.request_type is request_type
        assert kind_of(request_type.__new__(request_type)) is kind
