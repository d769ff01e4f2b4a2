"""Every pdivgen import is at module level, and every imported name is used;
no definition or parameter goes unread, every default is overridden by some
call, and no division makes a float."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdivgen"


def _unused_imports(tree):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        # names inside string annotations such as -> "QCone" count as used
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.parse(note.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _function_level_imports(tree):
    # a set, since an import in a nested function sits in two function bodies
    return sorted({
        (inner.lineno, ast.unparse(inner))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def test_no_function_level_imports():
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in _function_level_imports(ast.parse(path.read_text()))
    ]
    assert not found, "imports inside functions:\n" + "\n".join(found)


def _unread_parameters(tree):
    # methods are exempt: a backend interface method keeps its signature
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [(node.lineno, node.name, p.arg) for p in params if p.arg not in read]
    return found


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line}: {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert not unread, "parameters that are never read:\n" + "\n".join(unread)


def _true_divisions(tree):
    # integral coefficients are ints, and int / int is a float
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_no_true_division():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _true_divisions(ast.parse(path.read_text()))
    ]
    assert not found, "true divisions, which give floats on ints:\n" + "\n".join(found)


# library entry points read only from outside src/pdivgen
UNREAD_ALLOWED = {
    ("cli", "main"),
    ("pdivisor", "validate"),
    # the paper's restriction D|c; the general route reads each ray's
    # sections from D itself, and a property test pins that the two
    # evaluate alike on every simplex of the subdivision
    ("pdivisor", "restrict"),
}


def _references(node):
    """Names loaded and attributes read anywhere under the node, with counts."""
    refs = {}
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] = refs.get(n.id, 0) + 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] = refs.get(n.attr, 0) + 1
    return refs


def _definitions_without_a_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = {}
    for tree in trees.values():
        for name, count in _references(tree).items():
            total[name] = total.get(name, 0) + count
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # a reference inside the definition itself, such as recursion, is no reader
            own = _references(node).get(node.name, 0)
            if total.get(node.name, 0) == own and (module, node.name) not in UNREAD_ALLOWED:
                found.append(f"{module}.{node.name}")
    return found


def test_every_definition_has_a_reader():
    unread = _definitions_without_a_reader()
    assert not unread, "definitions that nothing in src/pdivgen reads:\n" + "\n".join(unread)


# members read only from outside src/pdivgen
MEMBER_UNREAD_ALLOWED = {
    # the table of defining forms, which the test oracles walk
    ("varieties", "Variety.forms"),
    # the Cox construction's intermediate data, which the acceptance suites check
    ("coxs5", "CoxResult.ray_classes"),
    ("coxs5", "CoxResult.bpf_multiples"),
    ("coxs5", "CoxResult.pool"),
    ("coxs5", "CoxResult.minors_match"),
}


def _members(cls):
    """Methods, properties and annotated fields (NamedTuple fields) of a class."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _attribute_loads(node):
    loads = {}
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            loads[n.attr] = loads.get(n.attr, 0) + 1
    return loads


def _trees_and_attribute_loads():
    """Each module's syntax tree, and the attribute reads across all of them."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = {}
    for tree in trees.values():
        for name, count in _attribute_loads(tree).items():
            total[name] = total.get(name, 0) + count
    return trees, total


def _members_without_a_reader():
    trees, total = _trees_and_attribute_loads()
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _members(cls):
                if name.startswith("__") and name.endswith("__"):
                    continue
                # a read inside the member itself, such as recursion, is no reader;
                # reads are matched by attribute name, so a name defined on two
                # classes counts a read of either one as a read of both
                own = _attribute_loads(node).get(name, 0)
                qualified = f"{cls.name}.{name}"
                if total.get(name, 0) == own and (module, qualified) not in MEMBER_UNREAD_ALLOWED:
                    found.append(f"{module}.{qualified}")
    return found


def test_every_member_has_a_reader():
    unread = _members_without_a_reader()
    assert not unread, "members that nothing in src/pdivgen reads:\n" + "\n".join(unread)


# attributes read only from outside src/pdivgen
INIT_ATTRIBUTE_UNREAD_ALLOWED = {
    # the position of a job parse error, which the CLI tests read
    ("cli", "JobParseError.line"),
    ("cli", "JobParseError.col"),
}


def _init_attributes(cls):
    """Each self.<attribute> that the class's __init__ assigns."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__" and node.args.args:
            this = node.args.args[0].arg
            for n in ast.walk(node):
                if (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == this
                ):
                    yield n.attr


def _init_attributes_without_a_reader():
    trees, total = _trees_and_attribute_loads()
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name in dict.fromkeys(_init_attributes(cls)):
                # reads are matched by attribute name, as for members
                qualified = f"{cls.name}.{name}"
                if not total.get(name) and (module, qualified) not in INIT_ATTRIBUTE_UNREAD_ALLOWED:
                    found.append(f"{module}.{qualified}")
    return found


def test_every_attribute_set_in_init_has_a_reader():
    unread = _init_attributes_without_a_reader()
    assert not unread, "attributes that nothing in src/pdivgen reads:\n" + "\n".join(unread)


def _defaulted_parameters(node):
    """Index (None when keyword-only) and name of each parameter with a default."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    found = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    found += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _calls_by_name(trees):
    """Each call in the trees, under the name of the function it calls."""
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    return calls


def _passes(call, index, name):
    """Whether the call passes the parameter, by position or by keyword."""
    # a starred argument may pass any positional parameter, a ** mapping any
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    if index is not None and (index < len(call.args) or starred):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def _defaults_never_passed():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = _calls_by_name(trees)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (module, node.name) in UNREAD_ALLOWED:
                continue
            for index, name in _defaulted_parameters(node):
                if not any(_passes(c, index, name) for c in calls.get(node.name, ())):
                    found.append(f"{module}.{node.name}({name})")
    return found


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a constant in disguise
    never = _defaults_never_passed()
    assert not never, "defaulted parameters that no call in src/pdivgen passes:\n" + "\n".join(never)
