"""Static checks on the package sources that need no linter installed."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "hibikit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named with a leading underscore that no code
    of the package refers to, outside their own body; as "module.name"."""
    defined = []
    refs = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                defined.append((module, node.name))
                own.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None and own.get(id(node)) != name:
                refs.add(name.split(".")[-1])
    return [f"{module}.{name}" for module, name in defined if name not in refs]


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes, and the public methods and
    properties of those classes, that no code of the package refers to
    outside their own body; as "module.name" and "module.Class.name". A
    member counts as referred to only through an attribute, such as
    obj.name. The entry point cli.main and dunder methods are exempt."""
    defined = []
    refs = set()
    attrs = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {}

        def define(node, qualname):
            defined.append((module, qualname, node.name))
            for inner in ast.walk(node):
                own.setdefault(id(inner), set()).add(node.name)

        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                define(node, node.name)
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not member.name.startswith("_")):
                            define(member, f"{node.name}.{member.name}")
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None and name not in own.get(id(node), ()):
                refs.add(name.split(".")[-1])
                if isinstance(node, ast.Attribute):
                    attrs.add(name)
    return [f"{module}.{qualname}" for module, qualname, name in defined
            if name not in (attrs if "." in qualname else refs)
            and (module, qualname) != ("cli", "main")]


# what a call passes for a parameter that *args or **kwargs may reach
STARRED = object()


def call_sites(sources: dict[str, str]):
    """The package's function definitions and calls, which the call-site
    lints read: each definition as (module, callee, function, parameters,
    offset), the parameters as (position or None, name, defaulted); each
    call under its callee's name, a bare name or an attribute; and the
    names the package reads other than as a callee. A method's calls
    through an attribute, or a class's through its name for __init__,
    pass self first, so its offset is 1. The entry point cli.main is left
    out."""
    defs = []
    calls: dict[str, list[ast.Call]] = {}
    named = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {id(m): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for m in node.body}
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                params = [(i, p.arg, i >= first) for i, p in enumerate(positional)]
                params += [(None, p.arg, d is not None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)]
                cls = owner.get(id(node))
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                if (module, node.name) != ("cli", "main"):
                    defs.append((module, cls if node.name == "__init__" else node.name,
                                 node.name, params, int(cls is not None and not static)))
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                named.add(getattr(node, "id", None) or node.attr)
    return defs, calls, named


def argument(call: ast.Call, index, param: str, offset: int):
    """The expression the call passes for the parameter, None when it
    passes none, or STARRED when a starred argument may reach it."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if any(k.arg is None for k in call.keywords):
        return STARRED
    if index is None:
        return None
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return STARRED
        if k == index - offset:
            return arg
    return None


def settled_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of the package's functions and methods that
    every call in the package sets, or that no call sets; as
    "module.function(parameter)". Calls are matched by call_sites. A call
    with *args or **kwargs that may reach the parameter counts as neither
    setting it nor leaving it. A function the package names other than as
    the callee of a call, such as a callback, is skipped, as is the entry
    point cli.main."""
    defs, calls, named = call_sites(sources)
    out = []
    for module, callee, name, params, offset in defs:
        if callee in named:
            continue
        for index, param, defaulted in params:
            if not defaulted:
                continue
            passed = [argument(call, index, param, offset) for call in calls.get(callee, [])]
            seen = {None if a is STARRED else a is not None for a in passed}
            if seen in ({True}, {False}, set()):
                out.append(f"{module}.{name}({param})")
    return out


def mode_flags(sources: dict[str, str]) -> list[str]:
    """Parameters of the package's functions and methods that every call in
    the package passes as the literal True or False; as
    "module.function(parameter)". Such a function is two functions sharing
    one body, one per literal. Calls are matched by call_sites; a function
    no call reaches, or that the package names other than as the callee of
    a call, is skipped, as is the entry point cli.main."""
    defs, calls, named = call_sites(sources)
    out = []
    for module, callee, name, params, offset in defs:
        if callee in named or not calls.get(callee):
            continue
        for index, param, _ in params:
            passed = [argument(call, index, param, offset) for call in calls[callee]]
            if all(isinstance(a, ast.Constant) and type(a.value) is bool for a in passed):
                out.append(f"{module}.{name}({param})")
    return out


def hand_written_memos(sources: dict[str, str]) -> list[str]:
    """Functions and methods that test obj.attr is None, or is not None, as
    the whole condition of an if, and also assign obj.attr: a memo kept by
    hand, where poset._kept keeps the table; as "module.function". A
    compound condition, such as cli.resolve_face's, is not flagged."""
    out = []
    for module, source in sources.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tested, assigned = set(), set()
            for node in ast.walk(func):
                if isinstance(node, ast.If):
                    test = node.test
                    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Attribute)
                            and len(test.ops) == 1 and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                            and isinstance(test.comparators[0], ast.Constant)
                            and test.comparators[0].value is None):
                        tested.add(ast.unparse(test.left))
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                           else [])
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
                            assigned.add(ast.unparse(leaf))
            if tested & assigned:
                out.append(f"{module}.{func.name}")
    return out


def cached_properties(sources: dict[str, str]) -> list[str]:
    """Each name or attribute cached_property, as "module:line": a table
    kept in an attribute of its own, where poset._kept keeps it in the
    object's one memo dict."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if getattr(node, "id", None) == "cached_property"
            or getattr(node, "attr", None) == "cached_property"
            or (isinstance(node, ast.alias) and node.name == "cached_property")]


def code_lines(source: str) -> int:
    """The lines of the source that hold code, by a tokenize/AST count:
    docstrings (a string statement that opens a module, class or function
    body), comments and blank lines are left out, and a statement over
    several lines counts each of them."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def assert_statements(sources: dict[str, str]) -> list[str]:
    """Assert statements, which python -O strips, so a certificate written
    as one would not run; as "module:line"."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def certificate_messages(source: str) -> list[tuple[int, str | None]]:
    """Each `raise AssertionError(message)` of the source as (line, message):
    a string literal as it is, an f-string as its literal prefix, the text
    before its first replacement field, and anything else, or no message,
    as None."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else None
        if ast.unparse(call.func if call else node.exc) != "AssertionError":
            continue
        arg = call.args[0] if call and call.args else None
        if isinstance(arg, ast.JoinedStr):
            prefix = ""
            for part in arg.values:
                if not isinstance(part, ast.Constant):
                    break
                prefix += part.value
            out.append((node.lineno, prefix))
        else:
            out.append((node.lineno, arg.value if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str) else None))
    return out


def assertion_patterns(source: str) -> list[str]:
    """The match= patterns of the source's pytest.raises(AssertionError, ...)
    calls that are a string literal, a module-level name bound to one, or
    re.escape of either."""
    tree = ast.parse(source)
    names = {target.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
             for target in node.targets if isinstance(target, ast.Name)}

    def pattern(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "re.escape"
                and len(node.args) == 1 and (inner := pattern(node.args[0])) is not None):
            return re.escape(inner)
        return None

    return [p for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "pytest.raises"
            and [ast.unparse(a) for a in node.args] == ["AssertionError"]
            for k in node.keywords if k.arg == "match" and (p := pattern(k.value)) is not None]


def untested_certificates(sources: dict[str, str], tests: dict[str, str]) -> list[str]:
    """The `raise AssertionError` sites of the sources whose message no
    match= pattern of the tests' pytest.raises(AssertionError, ...) finds,
    by re.search as pytest matches; as "module:line". A pattern that finds
    the messages of two or more sites counts for none of them, as it cannot
    tell which one fired. A certificate no test can make fail is an
    argument, which belongs in a docstring."""
    sites = [(module, line, message) for module, source in sources.items()
             for line, message in certificate_messages(source)]
    messages = [message for _, _, message in sites if message is not None]
    patterns = [p for source in tests.values() for p in assertion_patterns(source)
                if sum(bool(re.search(p, message)) for message in messages) == 1]
    return [f"{module}:{line}" for module, line, message in sites
            if message is None or not any(re.search(p, message) for p in patterns)]


def importers(sources: dict[str, str], name: str) -> list[str]:
    """The modules that import the module `name` or a name from it,
    anywhere in their source."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if ((isinstance(node, ast.Import) and any(a.name == name for a in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.module == name)):
                out.append(module)
                break
    return sorted(out)


def test_unused_imports_detects_dead_name():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert unused_imports(source) == ["os", "dumps"]


def test_unreferenced_private_functions_detects_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n",
        "b": "from a import _used\n\n\ndef _local():\n    pass\n\n\nrun = [_local]\n",
    }
    assert unreferenced_private_functions(sources) == ["a._dead"]


def test_unreferenced_public_names_detects_test_only_api():
    sources = {
        "a": "class Used:\n    pass\n\n\nclass Dead:\n    x = Dead\n\n\n"
             "def helper():\n    return helper()\n",
        "b": "from a import Used\n\n\ndef run():\n    return Used\n\n\nrun()\n",
        "cli": "def main():\n    pass\n",
    }
    assert unreferenced_public_names(sources) == ["a.Dead", "a.helper"]


def test_unreferenced_public_names_detects_test_only_members():
    sources = {
        "a": "class Shape:\n"
             "    def __init__(self):\n        self.area()\n\n"
             "    def area(self):\n        return 0\n\n"
             "    @property\n    def dead(self):\n        return self.dead\n\n"
             "    def shadowed(self):\n        pass\n\n"
             "    def _private(self):\n        pass\n\n"
             "    def __eq__(self, other):\n        return True\n",
        "b": "from a import Shape\n\n\nshadowed = Shape()\n",
    }
    assert unreferenced_public_names(sources) == ["a.Shape.dead", "a.Shape.shadowed"]


def test_settled_defaults_detects_knobs_that_no_call_turns():
    sources = {
        "a": "def always(x, den=1):\n    return x\n\n\n"
             "def never(x, *, seed=0):\n    return x\n\n\n"
             "def mixed(x, K=None):\n    return x\n\n\n"
             "def spread(x, den=1):\n    return x\n\n\n"
             "def callback(x, den=1):\n    return x\n\n\n"
             "class Box:\n"
             "    def __init__(self, size=1):\n        self.size = size\n\n"
             "    def grow(self, by=1):\n        return self.size + by\n",
        "b": "from a import Box, always, callback, mixed, never, spread\n\n\n"
             "run = [always(1, 2), always(1, den=3), never(1), never(2), mixed(1), mixed(1, 2),\n"
             "       spread(*[1, 2]), spread(1), map(callback, [1]), Box(2).grow(), Box(3).grow()]\n",
    }
    assert settled_defaults(sources) == ["a.always(den)", "a.never(seed)", "a.__init__(size)",
                                         "a.grow(by)"]


def test_mode_flags_detects_a_literal_switch():
    sources = {
        "a": "def cells(n, corners):\n    return n\n\n\n"
             "def scaled(x, exact=True):\n    return x\n\n\n"
             "def mixed(x, flag):\n    return x\n\n\n"
             "def spread(x, flag):\n    return x\n\n\n"
             "def callback(x, flag):\n    return x\n\n\n"
             "def uncalled(x, flag):\n    return x\n\n\n"
             "class Box:\n"
             "    def __init__(self, shut):\n        self.shut = shut\n\n"
             "    def turn(self, on):\n        return on\n",
        "b": "from a import Box, callback, cells, mixed, scaled, spread\n\n\n"
             "run = [cells(1, corners=True), cells(2, False), scaled(1, False),\n"
             "       scaled(2, exact=False), mixed(1, True), mixed(1, 1 > 0), spread(*[1, True]),\n"
             "       spread(1, False), map(callback, [1]), Box(True).turn(False),\n"
             "       Box(False).turn(on=True)]\n",
    }
    assert mode_flags(sources) == ["a.cells(corners)", "a.scaled(exact)", "a.__init__(shut)",
                                   "a.turn(on)"]


def test_hand_written_memos_detects_both_tests():
    sources = {
        "a": "def memo(L):\n    if L._cone is None:\n        L._cone = build(L)\n"
             "    return L._cone\n\n\n"
             "def early(F):\n    if F._span is not None:\n        return F._span\n"
             "    F._span, done = 1, True\n    return F._span\n\n\n"
             "def slot(K, spec):\n    if K._resolved is None or K._resolved[0] != spec:\n"
             "        K._resolved = (spec, 1)\n    return K._resolved[1]\n\n\n"
             "def guard(x):\n    if x.y is None:\n        raise ValueError\n    return x.y\n\n\n"
             "def other(x):\n    if x.y is None:\n        x.z = 1\n",
        "b": "class Box:\n    def size(self):\n        if self._size is None:\n"
             "            self._size = 3\n        return self._size\n",
    }
    assert hand_written_memos(sources) == ["a.memo", "a.early", "b.size"]


def test_cached_properties_detects_each_spelling():
    sources = {
        "a": "from functools import cache, cached_property\n\n\n"
             "class A:\n    @cached_property\n    def t(self):\n        return 1\n",
        "b": "import functools\n\n\nclass B:\n    @functools.cached_property\n"
             "    def t(self):\n        return 1\n",
        "c": "from functools import cache\n\n\n@cache\ndef f(x):\n    return x\n",
    }
    assert cached_properties(sources) == ["a:1", "a:5", "b:5"]


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    source = ('"""Module\ndocstring."""\n'
              "\n"
              "# a comment\n"
              "import os  # trailing comment\n"
              "\n\n"
              "def f(x,\n"
              "      y):\n"
              '    """One line."""\n'
              '    s = """not a\n'
              '    docstring"""\n'
              "    return (x +\n"
              "            y)\n")
    # import, the two lines of the def, the two of the string assignment
    # and the two of the return
    assert code_lines(source) == 7


def test_assert_statements_detects_both_forms():
    sources = {
        "a": "def f(x):\n    assert x\n    if not x:\n        raise AssertionError\n",
        "b": "class C:\n    def g(self, y):\n        assert y > 0, 'positive'\n",
        "c": "def h(z):\n    return z.assert_called()\n",
    }
    assert assert_statements(sources) == ["a:2", "b:3"]


def test_untested_certificates_detects_each_unmatched_raise():
    sources = {
        "a": "def f(x):\n    if x:\n        raise AssertionError(\"tested by a literal\")\n"
             "    if not x:\n        raise AssertionError(\"never tested\")\n",
        "b": "def g(y):\n    if y:\n        raise AssertionError(f\"prefix {y} suffix\")\n"
             "    if y > 1:\n        raise AssertionError(f\"{y} is only matched past a field\")\n"
             "    if y > 2:\n        raise AssertionError(\"a |P| + 1 count\")\n"
             "    if y > 3:\n        raise AssertionError(\"by name\")\n"
             "    if y > 4:\n        raise AssertionError\n",
        "c": "def h(z):\n    if z:\n        raise AssertionError(\"the sets are not closed\")\n"
             "    if not z:\n        raise AssertionError(\"the ideals are not closed\")\n",
    }
    tests = {
        "test_a": "import re\n\nimport pytest\n\nNAMED = \"by name\"\n\n\n"
                  "def test_f():\n"
                  "    with pytest.raises(AssertionError, match=\"by a literal\"):\n        f(1)\n"
                  "    with pytest.raises(AssertionError, match=\"prefix\"):\n        g(1)\n"
                  "    with pytest.raises(AssertionError, match=\"matched past\"):\n        g(2)\n"
                  "    with pytest.raises(AssertionError, match=re.escape(\"|P| + 1\")):\n"
                  "        g(3)\n"
                  "    with pytest.raises(AssertionError, match=NAMED):\n        g(4)\n",
        "test_b": "import pytest\n\n\ndef test_h():\n"
                  "    with pytest.raises(ValueError, match=\"never tested\"):\n        f(0)\n"
                  "    with pytest.raises(AssertionError):\n        f(0)\n",
        # a pattern that finds two messages counts for neither
        "test_c": "import pytest\n\n\ndef test_k():\n"
                  "    with pytest.raises(AssertionError, match=\"not closed\"):\n        h(1)\n"
                  "    with pytest.raises(AssertionError, match=\"ideals\"):\n        h(0)\n",
    }
    assert untested_certificates(sources, tests) == ["a:5", "b:5", "b:11", "c:3"]


def test_fraction_importers_detects_both_forms():
    sources = {"a": "from fractions import Fraction\n", "b": "def f():\n    import fractions\n",
               "c": "import math\n"}
    assert importers(sources, "fractions") == ["a", "b"]


def test_only_cli_imports_fractions():
    # a rational vector in the package is an integer tuple over one
    # denominator; Fraction only parses the CLI's weights, and a NotInCone
    # message prints its violated value as a reduced num/den
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert importers(sources, "fractions") == ["cli"]


def test_hibi_imports_nothing_from_exactgeom():
    # the certificate ranks no matrix: dim_cap is dimR minus the standard
    # monomial count, by the cover argument in hibi's module docstring, and
    # each face runs one containment mask test
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert "hibi" not in importers(sources, "exactgeom")


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize at start-up; records
    # are NamedTuples or __slots__ classes
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert importers(sources, "dataclasses") == []


def test_every_public_name_is_reached_from_the_package():
    # a public function, class, method or property that only tests call
    # belongs in tests/
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_public_names(sources) == []


def test_no_default_is_settled_by_its_callers():
    # an option every caller sets, or that no caller sets, picks no path:
    # the parameter is required, or the default is the code
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert settled_defaults(sources) == []


def test_no_mode_flag():
    # a parameter every caller passes as True or False splits one body into
    # two functions; each is its own function, or the flag is read off data
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert mode_flags(sources) == []


def test_no_hand_written_memo():
    # a table that depends on one object alone is kept by poset._kept, in
    # the object's one memo dict, not in an attribute named for the table
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert hand_written_memos(sources) == []


def test_no_cached_property():
    # every per-object table is kept by poset._kept, the package's one memo
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert cached_properties(sources) == []


def test_no_assert_statement():
    # every certificate raises AssertionError itself, so it runs under -O
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert assert_statements(sources) == []


def test_every_certificate_fails_in_a_named_test():
    # each raise AssertionError in src is matched by a test that makes it
    # fire; a check that no input can fail is argued in its docstring
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    tests = {p.stem: p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))}
    assert untested_certificates(sources, tests) == []


def test_every_private_function_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_functions(sources) == []


@pytest.mark.parametrize("path", SOURCES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent.name == "hibikit" else f"tests/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
