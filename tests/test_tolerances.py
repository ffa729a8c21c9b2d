"""The tolerance policy: every tolerance of the package is a named level.

The shared levels form the table at the top of projective.py. Another
module may name a constant of its own algorithm, but not reassign a
value the table already names. Reference data (golden.py) and default
noise levels are numbers, not tolerances.
"""

import ast
from pathlib import Path

import twoslit

SRC = Path(twoslit.__file__).resolve().parent
# algorithm constants that share a value with a table level
ALGORITHM_CONSTANTS = {("synthetic.py", "STEP_TOL"), ("selfcal.py", "DEGENERACY_TOL")}
NOISE_CONFIGS = {"SceneConfig", "SelfcalConfig"}


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def constants(tree):
    """Module-level UPPER_CASE assignments, name -> value node."""
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()}


def noise_defaults(name, tree):
    """Value nodes of the default noise levels: the noise_sigma fields of
    the config classes and the --sigma defaults of the command line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in NOISE_CONFIGS:
            yield from (field.value for field in node.body if isinstance(field, ast.AnnAssign)
                        and field.target.id == "noise_sigma")
        if name == "cli.py" and isinstance(node, ast.keyword) and node.arg == "sigma":
            yield node.value


def small_floats(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, float) and 0 < abs(n.value) < 1e-2]


def test_no_bare_tolerance_literals():
    found = []
    for name, tree in modules().items():
        if name == "golden.py":
            continue
        allowed = [*constants(tree).values(), *noise_defaults(name, tree)]
        exempt = {id(n) for node in allowed for n in small_floats(node)}
        found += [f"{name}:{n.lineno}: {n.value!r}" for n in small_floats(tree)
                  if id(n) not in exempt]
    assert not found, "name these tolerances in the table of projective.py: " + ", ".join(found)


def test_table_levels_are_defined_once():
    trees = modules()
    table = {name: node.value for name, node in constants(trees.pop("projective.py")).items()
             if isinstance(node, ast.Constant) and isinstance(node.value, float)}
    assert {"TOL", "ZERO_TOL", "COARSE_TOL"} <= set(table)
    clashes = [f"{module}: {name} = {node.value!r}"
               for module, tree in trees.items() for name, node in constants(tree).items()
               if (module, name) not in ALGORITHM_CONSTANTS and isinstance(node, ast.Constant)
               and node.value in table.values()]
    assert not clashes, "use the table's name instead: " + ", ".join(clashes)
