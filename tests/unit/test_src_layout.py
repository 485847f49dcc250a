"""``src/`` ships one engine per algorithm and never depends on the tests.

The frozen oracles the identity tests compare against — the dict-loop
MFC/IC simulators, the recursive dict-memo TreeDP, the sequential RID
pipeline and the level-by-level Edmonds engine — live under
``tests/oracles/``. The ``use_kernel`` switch that once selected them
from inside the production models is gone; this test greps the source
tree so neither the switch nor an import of test code can slip back in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _sources():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources found under {SRC}"
    return paths


def test_no_use_kernel_switch_in_src():
    offenders = [
        str(path.relative_to(SRC))
        for path in _sources()
        if "use_kernel" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_src_never_imports_tests():
    offenders = []
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module == "tests" or module.startswith("tests."):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
