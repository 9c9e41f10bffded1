"""The package keeps no public function or class that nothing reads, and no
defaulted parameter of a public function that nothing passes.

Every module-level public function or class in ``src/enstune`` must be named
somewhere in the package outside its own definition, or in ``bench/``. The
only exceptions are the oracles below: tests need them to check the code
that runs, so they stay although no run calls them.

Likewise every defaulted parameter of a module-level public function must be
passed by some call in ``src/enstune`` or ``bench/``, by keyword or by
position, unless it is listed in ``UNPASSED`` with its reason. And every
module-level import in ``src/enstune`` must be read in its module.
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

UNPASSED = {
    ("train_ensemble", "member_seeds"): "bench/spans.py reads it by name",
    ("train_ensemble", "standardize"): "bench/spans.py reads it by name",
    ("make_batch_ensemble", "use_batchnorm"): "acceptance criterion 4's oracle switch",
    ("be_forward", "training"): "acceptance criterion 4's training-mode loop check",
    ("be_forward_all", "training"): "acceptance criterion 4's training-mode loop check",
    ("grad_check", "eps"): "a knob of the MLP gradient oracle",
    ("be_grad_check", "eps"): "a knob of the BatchEnsemble gradient oracle",
    ("main", "argv"): "the CLI entry point: the console script passes none, tests an argv",
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


def _trees(where: str) -> list:
    return [_parse(p) for p in glob.glob(os.path.join(ROOT, where, "*.py"))]


def _unread() -> set:
    """Public module-level names of the package that nothing else names."""
    trees = _trees(os.path.join("src", "enstune"))
    named = sum((_names(t) for t in trees + _trees("bench")), Counter())
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and named[node.name] - _names(node)[node.name] == 0}


def test_every_public_name_is_read_or_an_oracle():
    unread = _unread()
    assert sorted(unread - set(ORACLES)) == [], "public names nothing reads"
    assert sorted(set(ORACLES) - unread) == [], "oracles now read need no exception"


def _passed(trees) -> dict:
    """Per called name (a function, or an attribute such as ``module.f``):
    the keywords its calls pass and the most positional arguments one call
    passes before any ``*args``. Neither ``*args`` nor ``**mapping`` passes
    a parameter: what they hold is not known from the source."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords, positional = out.get(name, (set(), 0))
            plain = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            out[name] = (keywords | {k.arg for k in node.keywords if k.arg},
                         max(positional, plain))
    return out


def _unpassed(trees, callers) -> set:
    """(function, parameter) for each defaulted parameter of a module-level
    public function in ``trees`` that no call in ``callers`` passes."""
    passed = _passed(callers)
    out = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            keywords, n_positional = passed.get(node.name, (set(), 0))
            out |= {(node.name, name) for i, name in defaulted
                    if name not in keywords and (i is None or i >= n_positional)}
    return out


def test_every_defaulted_parameter_is_passed_or_listed():
    package = _trees(os.path.join("src", "enstune"))
    unpassed = _unpassed(package, package + _trees("bench"))
    assert sorted(unpassed - set(UNPASSED)) == [], "defaulted parameters nothing passes"
    assert sorted(set(UNPASSED) - unpassed) == [], "listed parameters now passed"


def test_parameter_check_sees_keywords_positions_and_mappings():
    module = ast.parse("def f(a, b=1, *, c=2):\n    pass\n")
    for calls, unpassed in [("f(0)", {("f", "b"), ("f", "c")}),
                            ("f(0, 1)", {("f", "c")}),
                            ("m.f(0, c=3)", {("f", "b")}),
                            ("f(*xs)", {("f", "b"), ("f", "c")}),
                            ("f(0, **kw)", {("f", "b"), ("f", "c")})]:
        assert _unpassed([module], [ast.parse(calls)]) == unpassed, calls


def _unused_imports(tree) -> set:
    """The names a module's top-level imports bind that the module never
    reads (``from __future__`` imports bind none)."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_import_is_used():
    unused = {(os.path.basename(path), name)
              for path in glob.glob(os.path.join(ROOT, "src", "enstune", "*.py"))
              for name in _unused_imports(_parse(path))}
    assert sorted(unused) == [], "imports their module never reads"


def test_import_check_sees_aliases_and_dotted_modules():
    module = ast.parse("from __future__ import annotations\nimport os.path\n"
                       "import json\nfrom .a import b, c as d\nos.sep\nd()\n")
    assert _unused_imports(module) == {"json", "b"}
