"""The package keeps no public function or class that nothing reads.

Every module-level public function or class in ``src/enstune`` must be named
somewhere in the package outside its own definition, or in ``bench/``. The
only exceptions are the oracles below: tests need them to check the code
that runs, so they stay although no run calls them.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

ORACLES = {
    "be_forward_all": "batched forward, checked against the per-member loop",
    "materialized_member_params": "explicit W * (r s^T) weights, the BatchEnsemble oracle",
    "be_grad_check": "finite-difference check of the BatchEnsemble gradients",
    "grad_check": "finite-difference check of the MLP gradients",
    "diversity_kl": "KL form of diversity, checked against the entropy-gap form",
    "ambiguity": "acceptance criterion 1, the ambiguity decomposition",
    "stop_controller": "replays a score history through the patience rule",
    "rerun_from_manifest": "the reproducibility contract the README documents",
}


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _names(tree) -> Counter:
    """How often the tree names each identifier: variables, attributes, imports.
    A field a class body declares (``ambiguity: float``) names no function."""
    fields = {id(stmt.target) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
    out = Counter()
    for node in ast.walk(tree):
        if id(node) in fields:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _unread() -> set:
    """Public module-level names of the package that nothing else names."""
    trees = [_parse(p) for p in glob.glob(os.path.join(ROOT, "src", "enstune", "*.py"))]
    named = sum((_names(t) for t in trees), Counter())
    for path in glob.glob(os.path.join(ROOT, "bench", "*.py")):
        named += _names(_parse(path))
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and named[node.name] - _names(node)[node.name] == 0}


def test_every_public_name_is_read_or_an_oracle():
    unread = _unread()
    assert sorted(unread - set(ORACLES)) == [], "public names nothing reads"
    assert sorted(set(ORACLES) - unread) == [], "oracles now read need no exception"
