"""Every public module-level function and class of ``ecrm`` has a caller.

A name counts as referenced when the library itself, the benchmark harness
or an acceptance criterion reads it (a name, an attribute or a dotted
string such as perfbench's ``"kernels.gram_matrix"``) anywhere but inside
its own definition.  Imports do not count, so a re-export from the package
is not a caller, and neither are the unit tests, which would otherwise keep
alive the code they test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ecrm"

# Public names kept without such a caller, each with its reason.
ALLOWED = {
    "save_hierarchy": "the writer of the hierarchy file format (ROADMAP item 8)",
    "save_network": "the writer of the network file format (ROADMAP item 8)",
    "hierarchy_constraint_matrix": "the total-unimodularity tests build it",
    "assignment_constraint_matrix": "the total-unimodularity tests build it",
    "empirical_surrogate_risk": "the library reference for the bound command in test_cli",
}


def _reader_files():
    yield from sorted(SRC.glob("*.py"))
    yield from (p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))
    yield ROOT / "tests" / "test_acceptance.py"


def _names_read(tree, skip=frozenset()):
    """Names read in ``tree`` outside the nodes in ``skip``."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value.rsplit(".", 1)[-1])
        todo.extend(ast.iter_child_nodes(node))
    return out


def uncalled_public_names():
    defs, read = {}, set()
    for path in _reader_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        if path.parent == SRC:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defs[node.name] = path.stem
                    own.add(node)
        read |= _names_read(tree, own)
        for node in own:
            read |= _names_read(node) - {node.name}
    return sorted(f"{mod}.{name}" for name, mod in defs.items() if name not in read)


def test_every_public_function_and_class_has_a_caller():
    # A flagged name is dead code: delete it, or say in ALLOWED why it
    # stays.  An ALLOWED entry that gained a caller or went is stale.
    uncalled = {q.split(".")[1]: q for q in uncalled_public_names()}
    assert [q for name, q in uncalled.items() if name not in ALLOWED] == []
    assert sorted(name for name in uncalled if name in ALLOWED) == sorted(ALLOWED)
