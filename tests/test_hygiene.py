"""Source hygiene checks that need only the standard library."""

import ast
import inspect
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path: pathlib.Path) -> list:
    """Names an import in path binds and nothing in path reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    # the package's __init__ imports names to re-export them
    sources = [p for p in (ROOT / "src" / "besovlab").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "tests").glob("*.py")
    unused = [entry for path in sorted(sources) for entry in unused_imports(path)]
    assert unused == []


def referenced_names(source: str) -> set:
    """Names source reads (as a name, an attribute or a module it imports
    from), leaving out a function's or class's references to its own name."""
    tree = ast.parse(source)
    names = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id != own:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def defined_names(source: str, name: str) -> list:
    """(place, name) of every top-level function and class in source and of
    every method of its top-level classes, dunders excluded."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for stmt in ast.parse(source, filename=name).body:
        if not isinstance(stmt, (*functions, ast.ClassDef)):
            continue
        body = stmt.body if isinstance(stmt, ast.ClassDef) else []
        for node in [stmt, *(m for m in body if isinstance(m, functions))]:
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found.append((f"{name}:{node.lineno}", node.name))
    return found


# toolkit functions the README documents for users; the package itself does
# not call them
TOOLKIT_ONLY = {"dyadic_block", "helmholtz_inverse", "random_field"}


def unreferenced_definitions(defining: dict, reading: list) -> list:
    """Functions, classes and methods defined in the sources of defining
    ({file name: text}) that neither those sources nor the texts in reading
    reference, TOOLKIT_ONLY excepted; names are matched, not bindings."""
    used = set().union(*(referenced_names(text) for text in [*defining.values(), *reading]))
    return [f"{place}: {name}" for file, text in defining.items()
            for place, name in defined_names(text, file)
            if name not in used | TOOLKIT_ONLY]


def test_every_exported_name_is_used():
    # an exported name, and every function, class and method of the
    # package, must serve the package or the benchmark, not only tests
    import besovlab

    package = {p.name: p.read_text() for p in sorted((ROOT / "src" / "besovlab").glob("*.py"))
               if p.name != "__init__.py"}
    benchmark = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*(referenced_names(text) for text in [*package.values(), *benchmark]))
    assert sorted(set(besovlab.__all__) - used - TOOLKIT_ONLY) == []
    assert unreferenced_definitions(package, benchmark) == []
    probe = ("class Grid:\n"
             "    def padded(self, m):\n"
             "        return Grid(m)\n"
             "    def __repr__(self):\n"
             "        return self.multiplier()\n"
             "    def multiplier(self):\n"
             "        return 0\n"
             "def _chunks(total):\n"
             "    return _chunks(total - 1)\n"
             "def random_field(grid):\n"
             "    def nested():\n"
             "        return grid\n"
             "    return nested\n"
             "_helper = lambda: Grid(16).padded(32)\n")
    assert unreferenced_definitions({"probe": probe}, []) == ["probe:8: _chunks"]
    assert unreferenced_definitions({"probe": probe}, ["x = _chunks"]) == []
    assert [f.split(": ")[1] for f in unreferenced_definitions(
        {"probe": probe.replace(".padded(32)", "")}, [])] == ["padded", "_chunks"]


def test_dynamics_imports_nothing_from_besov():
    # the solver needs no Besov norm; the Taylor check owns the norms it reads
    tree = ast.parse((ROOT / "src" / "besovlab" / "dynamics.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert [m for m in modules if m and m.rsplit(".", 1)[-1] == "besov"] == []


def test_import_loads_no_executor_module():
    # the runners' threads come from threading, which numpy already loads;
    # concurrent.futures would add ~9 ms and 0.25 MB to every start-up
    code = "import sys, besovlab; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def fft_access_faults(source: str, name: str) -> list:
    """Places in source that reach numpy.fft other than by calling
    np.fft.rfft(...) or np.fft.irfft(...): an import from numpy.fft, an alias
    of the module or of a transform, or another transform."""
    tree = ast.parse(source, filename=name)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.fft")
            or (node.module == "numpy" and any(a.name == "fft" for a in node.names))
        ):
            faults.append(f"{name}:{node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.fft") for a in node.names
        ):
            faults.append(f"{name}:{node.lineno}: import numpy.fft")
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)):
            transform = parents.get(node)
            call = parents.get(transform)
            ok = (
                node.value.id == "np"
                and isinstance(transform, ast.Attribute)
                and transform.attr in ("rfft", "irfft")
                and isinstance(call, ast.Call)
                and call.func is transform
            )
            if not ok:
                faults.append(f"{name}:{node.lineno}: {ast.unparse(transform or node)}")
    return faults


def test_transforms_are_called_through_np_fft():
    # perfbench's tracer replaces np.fft.rfft/irfft to count and time every
    # transform; an alias taken at import time would escape it
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources for f in fft_access_faults(path.read_text(), path.name)]
    assert faults == []
    bad = ("from numpy.fft import rfft\n"
           "import numpy.fft as nf\n"
           "rfft = np.fft.rfft\n"
           "y = np.fft.fft(x)\n"
           "z = np.fft.irfft(x, 8, out=w)\n")
    assert [f.split(":")[1] for f in fft_access_faults(bad, "probe")] == ["1", "2", "3", "4"]


EXEMPT_PARAMETERS = {"self", "cls", "_"}


def unread_parameters(source: str, name: str) -> list:
    """Parameters of a function or lambda in source that its body never reads
    (self, cls and _ exempt); a read in a nested function or lambda counts."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        owner = getattr(node, "name", "<lambda>")
        faults += [f"{name}:{node.lineno}: {owner}.{p.arg}" for p in params
                   if p is not None and p.arg not in EXEMPT_PARAMETERS | read]
    return faults


def test_every_parameter_is_read():
    # a parameter nothing reads is an API that misleads its callers
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources for f in unread_parameters(path.read_text(), path.name)]
    assert faults == []
    probe = ("def f(self, a, b, *rest, c, **kw):\n"
             "    b = a\n"
             "    return lambda _, d: (lambda: c)\n"
             "g = lambda x, y: x\n")
    assert sorted(f.split(": ")[1] for f in unread_parameters(probe, "probe")) == [
        "<lambda>.d", "<lambda>.y", "f.b", "f.kw", "f.rest"]


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _constant_value(node: ast.AST):
    """node's value if it is a literal or an infinity (math.inf, np.inf,
    INF), else None."""
    if isinstance(node, ast.Constant):
        return node.value
    if (isinstance(node, ast.Attribute) and node.attr == "inf") or (
        isinstance(node, ast.Name) and node.id == "INF"
    ):
        return math.inf
    return None


# B^{3/2}_{2,1} and B^{3/2}_{2,inf} as (s, p, r); besov owns B321 and B32INF
CRITICAL_INDICES = ([1.5, 2, 1], [1.5, 2, math.inf])


def critical_norm_copies(source: str, name: str) -> list:
    """Places in source that build the index B^{3/2}_{2,1} or B^{3/2}_{2,inf}
    (BesovIndex with constant arguments s = 1.5, p = 2 and r = 1 or an
    infinity, defaults included) or take a Besov norm of a block profile
    formed in the same expression."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.Call):
            continue
        called = _called_name(node)
        if called == "BesovIndex":
            given = dict(zip(("s", "p", "r"), node.args))
            given.update((kw.arg, kw.value) for kw in node.keywords)
            values = [given.get(k, ast.Constant(d)) for k, d in (("s", None), ("p", 2), ("r", 1))]
            if [_constant_value(v) for v in values] in CRITICAL_INDICES:
                faults.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
        elif called == "_besov_norm" and node.args and isinstance(node.args[0], ast.Call):
            if _called_name(node.args[0]) == "_lp_profile":
                faults.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return faults


def test_critical_norm_has_one_owner():
    # besov owns B321, B32INF and _coeff_norm; a profile reused for several
    # indices is not a copy
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources if path.name != "besov.py"
              for f in critical_norm_copies(path.read_text(), path.name)]
    assert faults == []
    probe = ("a = BesovIndex(1.5, 2, 1)\n"
             "b = besov.BesovIndex(1.5, r=1.0)\n"
             "c = BesovIndex(1.5, 2, math.inf)\n"
             "d = float(_besov_norm(_lp_profile(x, cutoffs), idx))\n"
             "profile = _lp_profile(x, cutoffs)\n"
             "e = _besov_norm(profile, B321) + _besov_norm(profile, BesovIndex(2.5))\n"
             "f = BesovIndex(s=1.5, r=INF), BesovIndex(1.5, 2, np.inf)\n"
             "g = BesovIndex(1.5, 2, 2), BesovIndex(1.5, 2, r), BesovIndex(2.5, 2, math.inf)\n")
    assert [f.split(":")[1] for f in critical_norm_copies(probe, "probe")] == [
        "1", "2", "3", "4", "7", "7"]


# views of a family member that rebuild a Field from its half-spectrum
SPECTRUM_VIEWS = {"packet", "bump_fast"}


def spectrum_sup_copies(source: str, name: str) -> list:
    """Places in source that take a sup from a half-spectrum by hand:
    _max_abs of an _ifft call, or max_abs() of a _to_field call or of a
    family's packet or bump_fast view."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.Call):
            continue
        called = _called_name(node)
        if called == "_max_abs" and node.args and isinstance(node.args[0], ast.Call):
            copy = _called_name(node.args[0]) == "_ifft"
        elif called == "max_abs" and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            copy = (isinstance(owner, ast.Call) and _called_name(owner) == "_to_field") or (
                isinstance(owner, ast.Attribute) and owner.attr in SPECTRUM_VIEWS
            )
        else:
            copy = False
        if copy:
            faults.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return faults


def test_spectrum_sup_has_one_owner():
    # spectral._coeff_sup is the one sup read from a half-spectrum
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources if path.name != "spectral.py"
              for f in spectrum_sup_copies(path.read_text(), path.name)]
    assert faults == []
    probe = ("a = float(_max_abs(_ifft(grid, F0)))\n"
             "b = _to_field(grid, slow).max_abs()\n"
             "c = fam.packet.max_abs() + fam.bump_fast.max_abs()\n"
             "d = _max_abs(samples), _max_abs(_ifft(grid, F) - f)\n"
             "e = bump.max_abs(), fam.slow.max_abs(), spectral._max_abs(_ifft(g, F))\n")
    lines = sorted(int(f.split(":")[1]) for f in spectrum_sup_copies(probe, "probe"))
    assert lines == [1, 2, 3, 3, 5]


# the Littlewood-Paley blocks' support edges; besov._block_reach owns them
BLOCK_EDGES = (4.0 / 3.0, 8.0 / 3.0)
# (file, function) allowed to restate them: validate's probe of the spec
EDGE_PROBES = {("harness.py", "_check_cutoffs")}


def block_edge_copies(source: str, name: str) -> list:
    """Places in source outside EDGE_PROBES that write a block support edge,
    as a literal or as a quotient of two literals."""
    faults = []
    for stmt in ast.parse(source, filename=name).body:
        if (name, getattr(stmt, "name", None)) in EDGE_PROBES:
            continue
        for node in ast.walk(stmt):
            value = _constant_value(node)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left, right = _constant_value(node.left), _constant_value(node.right)
                if isinstance(left, (int, float)) and isinstance(right, (int, float)) and right:
                    value = left / right
            if isinstance(value, (int, float)) and value in BLOCK_EDGES:
                faults.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return faults


def test_block_reach_has_one_owner():
    # outside besov, only validate's spec probe writes the edges 4/3 and 8/3
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources if path.name != "besov.py"
              for f in block_edge_copies(path.read_text(), path.name)]
    assert faults == []
    probe = ("def reach(j):\n"
             "    return 2.0**j, (8.0 / 3.0) * 2.0**j\n"
             "lo = 4 / 3\n"
             "hi = 2.6666666666666665\n"
             "ok = 2.0 / 3.0, num * 4 // 3, 1.0 / 3.0\n"
             "def _check_cutoffs(report):\n"
             "    return 4.0 / 3.0\n")
    assert [f.split(":")[1] for f in block_edge_copies(probe, "harness.py")] == ["2", "3", "4"]
    assert [f.split(":")[1] for f in block_edge_copies(probe, "probe")] == ["2", "3", "4", "7"]


# (file, function) allowed to call spectral._xi_max: the Grid it describes
# and the one loop that sizes grids
XI_MAX_OWNERS = {("spectral.py", "Grid.__init__"), ("wavepackets.py", "_coarsest_points")}


def xi_max_calls(source: str, name: str) -> list:
    """Calls of _xi_max in source outside XI_MAX_OWNERS, a function named
    by its dotted path through the classes and functions that enclose it."""
    faults = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call) and _called_name(child) == "_xi_max"
                    and (name, scope) not in XI_MAX_OWNERS):
                faults.append(f"{name}:{child.lineno}: {ast.unparse(child)}")
            visit(child, scope)

    visit(ast.parse(source, filename=name), "")
    return faults


def test_grid_sizing_has_one_owner():
    # wavepackets._coarsest_points is the one loop that sizes a grid from
    # its xi_max; everything else reads Grid.xi_max
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources for f in xi_max_calls(path.read_text(), path.name)]
    assert faults == []
    probe = ("class Grid:\n"
             "    def __init__(self, n, L):\n"
             "        self.xi_max = _xi_max(n, L)\n"
             "def _smooth_grid(grid):\n"
             "    return spectral._xi_max(16, grid.half_length)\n"
             "def _coarsest_points(L, fits):\n"
             "    return fits(_xi_max(16, L)) or (lambda: _xi_max(24, L))()\n"
             "x = _xi_max(8, 1.0), grid.xi_max\n")
    assert [f.split(":")[1] for f in xi_max_calls(probe, "spectral.py")] == ["5", "7", "7", "8"]
    assert [f.split(":")[1] for f in xi_max_calls(probe, "wavepackets.py")] == ["3", "5", "8"]


MODEL_MEMBERS = {"CH", "NOVIKOV"}


def _is_model_member(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in MODEL_MEMBERS
            and isinstance(node.value, ast.Name) and node.value.id == "Model")


def model_identity_tests(source: str, name: str) -> list:
    """Places in source that compare with Model.CH or Model.NOVIKOV (is,
    is not, ==, !=, ...), on either side, or test membership in a literal
    tuple, list or set holding one."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        operands += [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set))
                     for e in o.elts]
        if any(_is_model_member(operand) for operand in operands):
            faults.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return faults


def test_model_identity_has_one_owner():
    # both models are the generalized CH equation: code reads Model.degree,
    # and only the enum says which degree each member has
    sources = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    faults = [f for path in sources for f in model_identity_tests(path.read_text(), path.name)]
    assert faults == []
    probe = ("a = 2 if model is Model.CH else 3\n"
             "if Model.NOVIKOV == config.model:\n"
             "    b = model in (Model.CH, None)\n"
             "c = model is not Model.NOVIKOV\n"
             "d = rhs(u, Model.CH), model.degree == 1, Other.CH is model, x in [y]\n")
    lines = sorted(int(f.split(":")[1]) for f in model_identity_tests(probe, "probe"))
    assert lines == [1, 2, 3, 4]


def unpassed_defaults(functions, sources) -> list:
    """Parameters with a default of functions that no call in sources (source
    texts) passes, by keyword or positionally at the parameter's index; a
    call is matched by the called name, and a starred argument passes every
    position."""
    keywords, positional = {}, {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            called = isinstance(node, ast.Call) and _called_name(node)
            if not called:
                continue
            keywords.setdefault(called, set()).update(kw.arg for kw in node.keywords)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = math.inf if starred else len(node.args)
            positional[called] = max(positional.get(called, 0), count)
    faults = []
    for fn in functions:
        name = fn.__name__
        for index, param in enumerate(inspect.signature(fn).parameters.values()):
            by_position = param.kind is not inspect.Parameter.KEYWORD_ONLY
            if param.default is inspect.Parameter.empty or param.name in keywords.get(name, ()):
                continue
            if not (by_position and index < positional.get(name, 0)):
                faults.append(f"{name}({param.name}=)")
    return faults


def test_every_default_is_passed():
    # a defaulted parameter that neither the package nor the benchmark passes
    # is an option only tests use
    import besovlab

    functions = [getattr(besovlab, name) for name in sorted(besovlab.__all__)]
    functions = [fn for fn in functions if inspect.isfunction(fn)]
    paths = sorted((ROOT / "src" / "besovlab").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    assert unpassed_defaults(functions, [path.read_text() for path in paths]) == []

    def f(a, b=1, *, c=2):
        return a, b, c

    def g(a, b=1, c=2, d=3):
        return a, b, c, d

    probe = "f(0, 1)\nobj.g(0, c=3, **kw)\nh(*args)\n"
    assert unpassed_defaults([f, g], [probe]) == ["f(c=)", "g(b=)", "g(d=)"]
