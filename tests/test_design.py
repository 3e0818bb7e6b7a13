"""Design checks on the package source itself."""

import ast
from pathlib import Path

import firstlook

PACKAGE = Path(firstlook.__file__).parent

# every value a caller may leave out: a default is a knob, so adding one
# means adding it here on purpose
SETTABLE_VALUES = [
    "cli.main(argv)",
    "contracts.GbmParams.mu",
    "contracts.OptionContract.strike_basis",
    "diagnostics.estimate_sv(window)",
    "diagnostics.gbm_test(alpha)",
    "diagnostics.gbm_test(lags)",
    "gbm_lattice.LatticeMethod.stretch_lambda",
    "output.json_dump(path)",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable_values(tree: ast.Module, module: str) -> list[str]:
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.extend(f"{scope}{name}({a.arg})" for a in defaulted)
                visit(child, f"{scope}{name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    found.extend(
                        f"{scope}{child.name}.{stmt.target.id}"
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    )
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(tree, f"{module}.")
    return found


def test_settable_values_are_the_listed_eight():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _settable_values(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == SETTABLE_VALUES


def _imported_modules(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_scipy():
    # scipy is a test oracle only: at start-up scipy.special costs about 0.25 s
    # and 26 MB, scipy.stats about 0.6 s and 45 MB. The walk covers every
    # scope, so an import inside a function is found too
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sorted(_imported_modules(ast.parse(path.read_text())))
        if name.split(".")[0] == "scipy"
    ]
    assert offenders == []


def test_only_output_rounds_numbers():
    # every CSV cell and JSON float is rounded by output.py, so a 12-digit
    # format elsewhere would be a second rounding rule
    holders = [path.name for path in sorted(PACKAGE.glob("*.py")) if ".12g" in path.read_text()]
    assert holders == ["output.py"]


def test_only_contracts_defines_a_terminal_payoff():
    # every lattice pays through contracts.terminal_payoff, one overflow policy
    # for all; Monte Carlo's state is linear CPM, so it calls payoff directly
    definers, callers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and "payoff" in node.name:
                definers.add(path.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "payoff":
                    callers.add(path.name)
    assert sorted(definers) == ["contracts.py"]
    assert sorted(callers) == ["contracts.py", "montecarlo.py"]
