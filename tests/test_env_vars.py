"""Inventory of the ``QF_*`` environment variables the package reads.

Every env knob is behaviour a run can pick up silently from its
environment, so the set is fixed here: adding one (or dropping one
the docs still describe) has to update this list and the table in
docs/api.md together. The scan takes every string constant under
``src/repro`` that is exactly a ``QF_...`` name, which is how each
variable is spelled where it is read or exported.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

DOCUMENTED = {"QF_TRACE", "QF_FAULTS", "QF_SANITIZE",
              "QF_SANITIZE_DETERMINISM"}

_NAME = re.compile(r"QF_[A-Z0-9_]+")


def qf_env_names(root: Path = SRC) -> set[str]:
    names = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _NAME.fullmatch(node.value)):
                names.add(node.value)
    return names


def test_qf_env_vars_are_exactly_the_documented_four():
    assert qf_env_names() == DOCUMENTED


def test_documented_vars_are_the_api_doc_table():
    doc = (SRC.parents[1] / "docs" / "api.md").read_text()
    table = set(re.findall(r"^\| `(QF_[A-Z0-9_]+)`", doc, re.MULTILINE))
    assert table == DOCUMENTED
