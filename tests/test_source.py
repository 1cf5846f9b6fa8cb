"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stefan1d"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts: every invariant must be checked by code that
    # still runs, and raise one of the package's errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/stefan1d: {found}"


def test_measures_are_built_only_in_the_measure_module():
    # every other module builds through make_step_measure, indicator, + or the
    # canonicaliser, so each measure passes the one door, measure._checked
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "measure.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "StepMeasure" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, f"StepMeasure called outside measure.py: {found}"


def test_order_certificates_are_built_only_in_the_potential_module():
    # every certificate comes from the order walk; a refused input raises
    # instead of yielding a certificate made up by hand
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "potential.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "OrderCertificate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, f"OrderCertificate called outside potential.py: {found}"


def test_restrict_is_called_nowhere_in_the_package():
    # a component's part is read through measure._cuts alone; restrict is its
    # public wrapper, still imported where the traced benchmark rebinds it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "restrict" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, f"restrict called in src/stefan1d: {found}"


def test_potentials_are_built_only_for_the_potential_command():
    # the walk is the package's one certificate route: potential() serves the
    # `potential` command alone, and no piecewise maximum stands in for the walk
    calls = [
        (path.name, node.lineno, name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        for name in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        if name in ("potential", "max_on")
    ]
    found = [f"{f}:{line} {name}" for f, line, name in calls if (f, name) != ("cli.py", "potential")]
    assert not found, f"potential or max_on called in src/stefan1d: {found}"
    assert any(f == "cli.py" for f, _, _ in calls), "the potential command no longer calls potential"


def test_only_the_walk_knows_it_runs_in_float32():
    # every other layer reads the walk's report, which is float64 and in the
    # input's own coordinates: the walk's precision is one module's decision
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "walkers.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "float32"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert not found, f"float32 named outside walkers.py: {found}"


def test_first_moment_is_named_nowhere_in_the_package():
    # beta has one definition, summed about each component's midpoint in
    # solver._holes: a first moment about 0 squares breaks and overflows far from 0
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for field in ("id", "attr", "name", "arg", "asname")
        if getattr(node, field, None) == "first_moment"
    ]
    assert not found, f"first_moment named in src/stefan1d: {found}"


def test_every_refusal_is_a_validation_error():
    # the exit code is one decision, made in errors.py: cli.main exits 2 on a
    # ValidationError, 3 on a VerificationError and 1 on its own input errors,
    # and names no other type, so a new refusal needs no second list
    from stefan1d import errors

    defined = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    others = {cls.__name__ for cls in defined if not issubclass(cls, errors.ValidationError)}
    assert others == {"VerificationError"}
    tree = ast.parse((SRC / "cli.py").read_text())
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    caught = [
        getattr(handler.type, "id", ast.dump(handler.type))
        for node in ast.walk(main)
        if isinstance(node, ast.Try)
        for handler in node.handlers
    ]
    assert sorted(caught) == ["CliInputError", "ValidationError", "VerificationError"]
