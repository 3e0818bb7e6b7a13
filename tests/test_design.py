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


def test_only_output_writes_json_and_refuses_non_finite_numbers():
    # JSON has no NaN or Infinity: one json.dumps, in output.py, raises on
    # them instead of printing a report no JSON reader takes
    calls = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func) in ("json.dump", "json.dumps")
    ]
    assert calls == ["output.py: json.dumps(_rounded(payload), indent=2, allow_nan=False)"]


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


def test_only_contracts_sums_terminal_payoffs():
    # every lattice prices through contracts.expected_payoff: one sum, one
    # discount and one finite check. A second sum needs the payoffs, so
    # terminal_payoff feeds only it and the SV dump's backward induction, and
    # no lattice sums through BLAS, whose bits depend on its thread count
    callers, blas = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        callers.setdefault(node.func.id, set()).add(f"{path.stem}.{func.name}")
        if path.stem.endswith("lattice"):
            blas += [
                f"{path.name}: {ast.unparse(node)}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("dot", "inner", "matmul")
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            ]
    assert callers["terminal_payoff"] == {"contracts.expected_payoff", "sv_lattice._backward_values"}
    assert callers["expected_payoff"] == {
        "gbm_lattice.binomial_price_sum", "gbm_lattice.trinomial_price", "sv_lattice.price_sv_option",
    }
    assert blas == []


def _calls_by_outermost_function(tree: ast.Module) -> list[tuple[str, str]]:
    """(called name, the module-level function or method around the call).

    A call in a nested function counts toward the function it is nested
    in, and a call outside any function toward ``<module>``.
    """
    found = []

    def visit(node: ast.AST, owner: str | None, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{scope}{child.name}.")
                continue
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}{child.name}", scope)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                found.append((name, owner or "<module>"))
            visit(child, owner, scope)

    visit(tree, None, "")
    return found


def test_one_walk_draws_the_normals():
    # _walk_paths owns the Philox stream: its draw order (step, eps_price,
    # eps_vol, path) is what seeded runs reproduce, and it refuses an unstable
    # volatility step before it draws, for every Monte Carlo caller. Its
    # draw-ahead thread runs a function nested in it, which counts as part of it
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, owner in _calls_by_outermost_function(ast.parse(path.read_text())):
            if name in ("standard_normal", "_generator"):
                callers.setdefault(name, set()).add(f"{path.stem}.{owner}")
    assert callers == {
        "standard_normal": {"montecarlo._walk_paths"},
        "_generator": {"montecarlo._walk_paths"},
    }


def test_a_draw_outside_the_walk_is_found():
    source = """
def _walk_paths():
    def draw_ahead():
        rng.standard_normal(out=ring)

def sample_paths():
    def draw():
        rng.standard_normal(out=eps)

class Sampler:
    def draw(self):
        return _generator(1)

RNG = _generator(2)
"""
    assert sorted(_calls_by_outermost_function(ast.parse(source))) == [
        ("_generator", "<module>"),
        ("_generator", "Sampler.draw"),
        ("standard_normal", "_walk_paths"),
        ("standard_normal", "sample_paths"),
    ]


def _is_log_price(node: ast.AST) -> bool:
    """``<index> * spacing + drift``: a node's log price on a lattice grid."""
    def named(side, word):
        return isinstance(side, ast.Name) and word in side.id

    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    return any(named(side, "drift") for side in sides) and any(
        isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
        and (named(side.left, "spacing") or named(side.right, "spacing"))
        for side in sides
    )


def test_one_walk_steps_the_sv_masses():
    # _walk owns the SV mass recursion and its fault checks, and only
    # _log_prices places a node, so the build, the node dump and the fault
    # scan see each level's log prices bit for bit alike
    callers, formed = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_walk":
                        callers.add(f"{path.stem}.{func.name}")
                    if _is_log_price(node):
                        formed.add(f"{path.stem}.{func.name}")
    assert callers == {"sv_lattice.build_censored_lattice", "sv_lattice.walk_levels"}
    assert formed == {"sv_lattice._log_prices"}
