"""The module boundaries of `epsilon0.ramsey` that are kept on purpose.

The oracles share no code with the solvers or the checkers they are used
to test, and the solvers take nothing from the oracles.  Imports are read
from the source with `ast`, at any depth (a function-level import counts).
Each property has one oracle search: the threshold queries run the
maximum search from a floor and define no search of their own.
Each property has one checker, in `checkers.py`, which works on the
instance masks and calls no per-pair `color`/`beats`/`pair_index`; the
coloring -> tournament rule is written once, in `PairColoring.out`, besides
the verifier's own score test.
Outside the package, `epsilon0.sweep` builds every report in one place:
one `Report(...)` call and no per-kind `_sweep_<kind>` function.  Its
exhaustive sweeps run on chunk kernels that call no scalar solver,
checker or trace encoder per code, and the coloring kernel's verifier
shares no helper with the kernel.
Ordinal text has one parser, `epsilon0.ordinal.parse_ordinal`, which
tokenizes with one regex: no character scanner is left, and the log
parsers of `descent` and `enumeration` call it instead of a copy.
"""

import ast
import importlib
from pathlib import Path

import epsilon0.cli
import epsilon0.descent
import epsilon0.enumeration
import epsilon0.ordinal
import epsilon0.ramsey
import epsilon0.ramsey.instances
import epsilon0.ramsey.solvers

RAMSEY = Path(epsilon0.ramsey.__file__).resolve().parent
SRC = RAMSEY.parent
# the package exports the function `sweep` under the module's name
SWEEP = importlib.import_module("epsilon0.sweep")


def _imported_modules(name):
    """Absolute names of the modules that epsilon0.ramsey.<name> imports,
    with `from pkg import mod` counted as importing pkg.mod."""
    package = "epsilon0.ramsey"
    found = set()
    for node in ast.walk(ast.parse((RAMSEY / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _imports_any(name, targets):
    return sorted(m for m in _imported_modules(name)
                  for t in targets if m == t or m.startswith(t + "."))


def test_the_oracles_import_no_solver_or_checker():
    assert _imports_any("oracles", ["epsilon0.ramsey.solvers",
                                    "epsilon0.ramsey.checkers"]) == []


def test_the_solvers_import_no_oracle():
    assert _imports_any("solvers", ["epsilon0.ramsey.oracles"]) == []


def test_the_import_reader_sees_relative_imports():
    assert "epsilon0.ramsey.instances" in _imported_modules("oracles")
    assert "epsilon0.ramsey.checkers.coloring_is_transitive" in _imported_modules("solvers")


def test_the_oracles_have_one_search_per_property():
    tree = ast.parse((RAMSEY / "oracles.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    nested = {f.name: [g.name for g in ast.walk(f) if g is not f
                       and isinstance(g, ast.FunctionDef)] for f in functions}
    assert sum(len(names) for names in nested.values()) == 2
    assert sorted(f for f, names in nested.items() if names) == [
        "_max_homogeneous", "_max_transitive"]
    assert nested["has_homogeneous_of_size"] == []
    assert nested["has_transitive_of_size"] == []


def test_the_package_exports_stay_the_same():
    assert epsilon0.ramsey.__all__ == [
        "PairColoring", "Tournament", "LinearOrderInstance", "SetFamily",
        "pair_index", "pair_count",
        "parse_coloring", "format_coloring", "parse_tournament",
        "format_tournament", "parse_order", "format_order",
        "HomogeneityCheck", "TransitivityCheck", "is_homogeneous", "is_transitive",
        "tournament_from_coloring", "coloring_from_tournament",
        "coloring_is_transitive", "order_from_transitive_coloring",
        "brute_max_homogeneous", "brute_max_transitive",
        "has_homogeneous_of_size", "has_transitive_of_size",
        "Classification", "limit_classification",
        "CohResult", "EmptyCellError", "coh_solve",
        "EmResult", "em_solve", "AdsResult", "ads_solve",
        "SolverTrace", "TraceCheck", "rt22_solve", "verify_trace",
    ]


def test_every_instance_format_lives_in_instances():
    instances = epsilon0.ramsey.instances
    for kind in ("coloring", "tournament", "order", "family"):
        for verb in ("parse", "format"):
            name = f"{verb}_{kind}"
            assert name in instances.__all__
            assert getattr(instances, name).__module__ == "epsilon0.ramsey.instances"
    assert epsilon0.cli.parse_family is instances.parse_family
    assert epsilon0.cli.format_family is instances.format_family


def test_sweep_builds_every_report_in_one_place():
    sweep_py = Path(epsilon0.ramsey.__file__).resolve().parent.parent / "sweep.py"
    tree = ast.parse(sweep_py.read_text())
    reports = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "Report"]
    assert len(reports) == 1
    assert [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name.startswith("_sweep_")] == []


def _functions(path):
    return {f.name: f for f in ast.walk(ast.parse(path.read_text()))
            if isinstance(f, ast.FunctionDef)}


def _called_names(function):
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_the_checkers_work_on_masks_and_import_no_solver_or_oracle():
    text = (RAMSEY / "checkers.py").read_text()
    assert ".color(" not in text and ".beats(" not in text and "pair_index" not in text
    assert _imports_any("checkers", ["epsilon0.ramsey.solvers",
                                     "epsilon0.ramsey.oracles"]) == []


def test_one_cohesive_search_and_one_off_color_pair_search():
    checkers = _functions(RAMSEY / "checkers.py")
    assert "_cohesive_offender" in checkers and "_off_color_pair" in checkers
    verify_trace = _functions(RAMSEY / "solvers.py")["verify_trace"]
    verify_cohesive = _functions(SRC / "sweep.py")["verify_cohesive"]
    assert "_cohesive_offender" in _called_names(verify_trace)
    assert "_cohesive_offender" in _called_names(verify_cohesive)
    assert "_off_color_pair" in _called_names(verify_trace)
    assert "_off_color_pair" in _called_names(checkers["is_homogeneous"])


def test_the_coloring_to_tournament_rule_is_written_once():
    rule = "adj[x] ^ ((1 << x) - 1)"
    places, total = [], 0
    for path in sorted(SRC.rglob("*.py")):
        functions = _functions(path).values()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            total += line.count(rule)
            places += [(path.name, f.name) for f in functions
                       if rule in line and f.lineno <= number <= f.end_lineno]
    assert total == 2
    assert sorted(places) == [("instances.py", "out"), ("solvers.py", "verify_trace")]


def _sweep_definitions():
    """The top-level functions, classes and constants of sweep.py by name."""
    tree = ast.parse((SRC / "sweep.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return found


def _reached(definitions, roots):
    """The definitions of sweep.py that `roots` (names or nodes) reach
    through the names they mention, the roots' own names included."""
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            if node in seen:
                continue
            seen.add(node)
            node = definitions[node]
        todo += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                 and n.id in definitions and n.id not in seen]
    return seen


def test_the_coloring_verifier_shares_no_helper_with_the_kernel():
    definitions = _sweep_definitions()
    kernel = _reached(definitions, ["_coloring_chunk"])
    verifier = _reached(definitions, ["_verify_coloring_chunk"])
    assert {"_out_mask_array", "_patience", "_score_ok", "_em_passes"} <= kernel
    # the one shared name is the kernel's output type, which the verifier reads
    assert kernel & verifier == {"_ColoringChunk"}
    mentioned = {n.id for n in ast.walk(definitions["_verify_coloring_chunk"])
                 if isinstance(n, ast.Name)}
    assert not mentioned & {"_out_mask_array", "_patience", "_score_ok", "_window_mask",
                            "_POPCOUNT", "default_window"}


def test_exhaustive_sweeps_make_no_per_code_scalar_call():
    definitions = _sweep_definitions()
    sweep_fn = definitions["sweep"]
    (branch,) = [node for node in ast.walk(sweep_fn) if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "mode == 'exhaustive'"]
    kernels = [entry[3].__name__ for entry in SWEEP._KINDS.values() if entry[3]]
    assert sorted(kernels) == ["_coloring_rows", "_order_rows", "_tournament_rows"]
    reached = _reached(definitions, [*kernels, *branch.body])
    called = set().union(*(_called_names(definitions[name]) for name in reached
                           if isinstance(definitions[name], ast.FunctionDef)),
                         *(_called_names(node) for node in branch.body))
    scalar = {"rt22_solve", "verify_trace", "ads_solve", "to_json", "em_solve_masks",
              "_check_coloring", "_check_order", "_check_tournament", "PairColoring",
              "LinearOrderInstance", "Tournament"}
    assert not called & scalar
    assert {"_coloring_chunk", "_verify_coloring_chunk", "_trace_lines", "_patience"} <= reached


def test_the_scalar_solvers_stay_exported():
    exported = set(epsilon0.ramsey.solvers.__all__)
    assert {"rt22_solve", "verify_trace", "ads_solve", "coh_solve", "em_solve",
            "em_solve_masks", "SolverTrace", "default_window"} <= exported
    assert all(callable(getattr(epsilon0.ramsey.solvers, name)) for name in exported)


def _mentions(node, name):
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def test_ordinal_text_has_one_tokenizing_parser():
    tree = ast.parse((SRC / "ordinal.py").read_text())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "_Scanner" not in classes
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert not any(_mentions(loop, "isspace") for loop in loops)
    # the grammar is read in one place: no other function of src/ tests for its tokens
    readers = sorted({(path.name, f.name) for path in SRC.rglob("*.py")
                      for f in _functions(path).values() for node in ast.walk(f)
                      if isinstance(node, ast.Compare)
                      and any(isinstance(n, ast.Constant) and n.value in ("w", "w^(", "^")
                              for n in [node.left, *node.comparators])})
    assert readers == [("ordinal.py", "parse_ordinal")]
    for module in (epsilon0.descent, epsilon0.enumeration):
        assert module.parse_ordinal is epsilon0.ordinal.parse_ordinal
        functions = _functions(Path(module.__file__))
        assert not [name for name in functions if "parse_ord" in name or "_term" in name]
        assert any("parse_ordinal" in _called_names(f) for f in functions.values())
