"""Hygiene of the package source: no unused imports, every ``__all__``
entry names something the module defines and something the code reads, and
the CLI's import path stays free of modules that only slow start-up:
``cli`` imports no layer at module level and builds no parser on import,
each module imports only its pinned layers, each subcommand loads only the
layers it runs, and no subcommand loads ``dataclasses``; the
CLI holds no cap, and only ``run`` answers a budget.

The first three checks read the source with ``ast``; nothing is imported.
An ``__all__`` entry must be defined in its module by a ``def``, a
``class`` or an assignment: a name bound by an import is a second name for
something another module exports, so its readers import it from there.
An ``__all__`` entry is read when some module of ``src/locert`` or
``perfbench`` loads it as a name or an attribute; its definition, its
``__all__`` string and an import alone do not count.  The tests are not
readers: an export only they read must back a claim or a cross-check named
in ``TEST_ONLY_EXPORTS``.  Every exception class the package defines must
be caught by type somewhere in it or in ``perfbench``, and every defaulted
parameter of a package function or class (a NamedTuple's field defaults
count) must be passed by some call in those same readers and omitted by
another: a knob only the tests turn is a constant, and a default every
caller overrides is a required parameter.

The per-item kernels named in ``ENUM_FREE_KERNELS`` are read as bytecode:
none of them reads an Enum member through its class, which costs a slow
``EnumType.__getattr__`` call on CPython 3.11 (``words.Sign3``).  The
Proposition 4.3 grid loop is read the same way: it builds no image in K,
which its shared grid holds, and a report builds each image once.
"""

from __future__ import annotations

import ast
import builtins
import dis
import enum
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from locert import compat
from locert.compat import phi_peripheral
from locert.klein import KleinElement
from locert.words import Sign3

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "locert"
MODULES = sorted(SRC.glob("*.py"))
READERS = MODULES + sorted(ROOT.glob("perfbench/*.py"))

# Exports that only the tests read, each with the claim or cross-check it
# backs.
TEST_ONLY_EXPORTS = {
    # the independent soundness check on every closed coset table
    "fpgroup.py: check_closed_table",
    # |Delta(-1)|, the 2-fold cover order by direct evaluation
    "alexander.py: evaluate_at_int",
    # membership in the peripheral subgroup <s2, Delta^2> of Proposition
    # 4.3, with its coordinates (k, l)
    "braid.py: peripheral_parse",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in the module -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield node.returns
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    """Names the code reads; a definition such as ``X = 1`` stores, so it
    does not count."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    # String annotations such as -> "Presentation" name types too.
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Names the module's top-level statements define; an import binds a
    name but defines none."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return defined


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def unresolved_exports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = _top_level_definitions(tree)
    return [f"{path.name}: {name}" for name in _exported(tree) if name not in defined]


def unread_exports() -> list[str]:
    read = set()
    for path in READERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _used(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        f"{path.name}: {name}"
        for path in MODULES
        for name in _exported(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_resolve(path):
    assert unresolved_exports(path) == []


def test_an_export_bound_by_an_import_does_not_resolve(tmp_path):
    # Word and power are other names for words' GroupWord and word_power;
    # SIGMA1 and parse are defined here, and Missing is not bound at all.
    module = tmp_path / "layer.py"
    module.write_text(
        "from .words import GroupWord as Word\n"
        "from .words import word_power as power\n"
        "__all__ = ['Word', 'SIGMA1', 'parse', 'power', 'Missing']\n"
        "SIGMA1: Word = (1,)\n"
        "def parse(text):\n"
        "    return power(SIGMA1, len(text))\n",
        encoding="utf-8",
    )
    assert unresolved_exports(module) == [
        "layer.py: Word", "layer.py: power", "layer.py: Missing"
    ]


def test_every_export_is_read():
    # equality, so an entry that gains a reader or leaves __all__ fails too
    assert set(unread_exports()) == TEST_ONLY_EXPORTS


def _referenced(node: ast.AST) -> set[str]:
    """Names and attribute names inside an expression."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def exception_classes() -> dict[str, str]:
    """Classes defined in the package that derive from an exception ->
    "module: name"."""
    bases = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                where = f"{path.name}: {node.name}"
                bases[node.name] = (where, set().union(*map(_referenced, node.bases)))
    builtin = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found: dict[str, str] = {}
    while True:
        new = {name: where for name, (where, names) in bases.items()
               if name not in found and names & (builtin | set(found))}
        if not new:
            return found
        found.update(new)


def caught_names() -> set[str]:
    """Names read in an ``except`` clause or as the class argument of an
    ``isinstance`` call, in the package or the benchmark."""
    caught = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _referenced(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                caught |= _referenced(node.args[1])
    return caught


def test_every_exception_class_is_caught():
    # An exception class earns its place only where code tells it apart;
    # elsewhere a built-in one (ValueError, OverflowError) says the same.
    classes = exception_classes()
    assert "cli.py: _UsageError" in classes.values()
    caught = caught_names()
    assert sorted(where for name, where in classes.items() if name not in caught) == []


def defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """"module: function(parameter)" -> (callee, parameter, the index a
    caller passes it at positionally, or None for keyword-only), for every
    parameter with a default of a function or method in the package.  The
    callee of a class's ``__new__`` or ``__init__`` is the class: a call
    ``TorusKnotPiece(r, s, chirality)`` runs ``TorusKnotPiece.__new__``, and
    a ``super().__new__(...)`` call inside another class does not.  A
    class-body field with a value, such as ``b: int = 1`` in a NamedTuple,
    is a defaulted parameter of its class, at the field's position among
    the annotated fields."""
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = [
                node for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
            for i, field in enumerate(fields):
                if field.value is not None:
                    name = field.target.id
                    found[f"{path.name}: {cls.name}({name})"] = (cls.name, name, i)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            cls = owner.get(id(node))
            skip = 1 if cls and positional else 0  # self, cls
            if cls and node.name in ("__new__", "__init__"):
                callee, where = cls, f"{path.name}: {cls}.{node.name}"
            else:
                callee, where = node.name, f"{path.name}: {node.name}"
            for i in range(len(positional) - len(a.defaults), len(positional)):
                name = positional[i].arg
                found[f"{where}({name})"] = (callee, name, i - skip)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    found[f"{where}({arg.arg})"] = (callee, arg.arg, None)
    return found


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)


def default_passes() -> dict[str, list[bool]]:
    """"module: function(parameter)" -> whether each call of its callee in
    the readers passes the parameter.  Calls match by the callee's bare
    name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(callee, []).append(node)
    return {
        where: [_passes(call, param, index) for call in calls.get(function, [])]
        for where, (function, param, index) in defaulted_parameters().items()
    }


def test_every_default_is_passed_by_a_reader():
    # A default that no product or benchmark call overrides is a constant in
    # disguise; tests that need another value monkeypatch a module constant.
    assert "cli.py: run(out)" in defaulted_parameters()
    assert sorted(where for where, passes in default_passes().items() if not any(passes)) == []


def test_constructor_defaults_match_calls_of_their_class(tmp_path, monkeypatch):
    # Piece(1, 2) passes b; the super().__new__ calls construct a Base or a
    # tuple and say nothing about Piece.__new__'s default.
    module = tmp_path / "pieces.py"
    module.write_text(
        "class Base(tuple):\n"
        "    def __new__(cls, a):\n"
        "        return super().__new__(cls, (a,))\n"
        "class Piece(Base):\n"
        "    def __new__(cls, a, b=1):\n"
        "        return super().__new__(cls, a)\n"
        "Piece(1, 2)\n",
        encoding="utf-8",
    )
    monkeypatch.setitem(globals(), "MODULES", [module])
    monkeypatch.setitem(globals(), "READERS", [module])
    assert default_passes() == {"pieces.py: Piece.__new__(b)": [True]}


def test_field_defaults_match_calls_of_their_class(tmp_path, monkeypatch):
    # A NamedTuple's field defaults are parameters of the class: Piece(1, 2)
    # passes b and omits c, Piece(1, c=3) the other way round, and the
    # field without a value has no default to match.
    module = tmp_path / "pieces.py"
    module.write_text(
        "from typing import NamedTuple\n"
        "class Piece(NamedTuple):\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: int = 2\n"
        "    def scaled(self, k: int) -> int:\n"
        "        return k * self.a\n"
        "Piece(1, 2)\n"
        "Piece(1, c=3)\n",
        encoding="utf-8",
    )
    monkeypatch.setitem(globals(), "MODULES", [module])
    monkeypatch.setitem(globals(), "READERS", [module])
    assert default_passes() == {
        "pieces.py: Piece(b)": [True, False],
        "pieces.py: Piece(c)": [False, True],
    }


def test_every_default_is_omitted_by_a_reader():
    # A default that every product or benchmark call overrides is a required
    # parameter in disguise, and a second copy of a value its callers own.
    assert "cli.py: run(argv)" in defaulted_parameters()
    assert sorted(where for where, passes in default_passes().items() if all(passes)) == []


def _fresh(probe: str, *argv: str) -> str:
    """Stdout of ``probe`` run in a fresh interpreter with ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_cli_import_loads_no_fractions_or_decimal():
    # Each costs a few milliseconds of every CLI process's start-up, and
    # exact arithmetic here is done on integers.
    probe = (
        "import sys, locert.cli; "
        "print(sorted({'fractions', 'decimal', '_decimal', '_pydecimal'} & set(sys.modules)))"
    )
    assert _fresh(probe) == "[]"


def test_cli_holds_no_cap():
    # A cap lives in the layer whose work it bounds, so a direct caller of
    # the layer meets it too: the CLI's only integer constants are its exit
    # codes, and it raises no OverflowError.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    constants = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
            node.value, ast.Constant
        ) and type(node.value.value) is int:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            constants |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert constants == {"EXIT_OK", "EXIT_INPUT_ERROR", "EXIT_UNKNOWN", "EXIT_CHECK_FAILED"}
    raised = [ast.unparse(node.exc) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None]
    assert [exc for exc in raised if exc.startswith("OverflowError")] == []


def test_only_run_answers_a_budget():
    # A stopped computation is an OverflowError whose message is the reason,
    # and run alone turns it into "inconclusive": no handler returns that
    # status or catches OverflowError, and only run and the exit-code table
    # name the status.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    mentions, returns, catches = set(), set(), set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            name = top.name
        else:
            name = ast.unparse(top.targets[0] if isinstance(top, ast.Assign) else top)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value == "inconclusive":
                mentions.add(name)
            if isinstance(node, ast.Return) and node.value is not None and any(
                isinstance(c, ast.Constant) and c.value == "inconclusive"
                for c in ast.walk(node.value)
            ):
                returns.add(name)
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(n, ast.Name) and n.id == "OverflowError"
                for n in ast.walk(node.type)
            ):
                catches.add(name)
    assert (returns, catches, mentions) == (set(), {"run"}, {"run", "_STATUS_EXIT"})


_LOADED = (
    "import io, sys, locert.cli\n"
    "if sys.argv[1:]:\n"
    "    locert.cli.run(sys.argv[1:], out=io.StringIO())\n"
    "print(' '.join(m for m in sys.modules if m.startswith('locert')))"
)
_DATA = str(SRC / "data")

# One run per subcommand family -> the locert modules beyond locert.cli it
# loads.  A layer's own imports count (``_LAYER_IMPORTS`` lists them): every
# layer binds words, klein and seifert add slopes, and compat braid, fpgroup,
# klein and sampling; the group fill handler reads its slope with slopes.
_FAMILY_MODULES = {
    "slope": (["slope", "delta", "2/1", "1/1"], "slopes words"),
    "braid": (["braid", "sign", "aB"], "braid words"),
    "klein": (["klein", "fill", "1", "0"], "klein slopes words"),
    "group": (["group", "fill", f"{_DATA}/b3_presentation.json", "--mu", "s2",
               "--longitude", "s1", "--slope", "1/0"], "fpgroup slopes words"),
    "splice": (["splice", "cert", f"{_DATA}/double_trefoil_splice.json"],
               "seifert slopes words"),
    "hf": (["hf", "rank", "--p", "5", "--q", "1", "--nu", "1", "--ranks", "1"],
           "slopes words"),
    "cover": (["cover", "order", "--poly", "t^2 - t + 1", "--n", "7"],
              "alexander words"),
    "verify": (["verify", "proposition-4-3", "--samples", "1", "--grid-bound", "1"],
               "braid compat fpgroup klein sampling slopes words"),
}


def test_cli_import_loads_no_layer():
    assert set(_fresh(_LOADED).split()) == {"locert", "locert.cli"}


_PARSERS_BUILT = (
    "import argparse, io\n"
    "built = []\n"
    "init = argparse.ArgumentParser.__init__\n"
    "def counted(self, *args, **kwargs):\n"
    "    built.append(self)\n"
    "    init(self, *args, **kwargs)\n"
    "argparse.ArgumentParser.__init__ = counted\n"
    "import locert.cli\n"
    "counts = [len(built)]\n"
    "for _ in range(2):\n"
    "    locert.cli.run(['slope', 'delta', '2/1', '1/1'], out=io.StringIO())\n"
    "    counts.append(len(built))\n"
    "print(*counts)"
)


def test_cli_import_builds_no_parser():
    # The parser tree (about 4 ms) is built on the first run and kept: import
    # builds none, and a second run builds no more.
    on_import, after_first, after_second = map(int, _fresh(_PARSERS_BUILT).split())
    assert on_import == 0 and after_first > 0 and after_second == after_first


@pytest.mark.parametrize("family", sorted(_FAMILY_MODULES))
def test_subcommand_loads_only_its_layers(family):
    argv, layers = _FAMILY_MODULES[family]
    expected = {"locert", "locert.cli"} | {f"locert.{m}" for m in layers.split()}
    assert set(_fresh(_LOADED, *argv).split()) == expected


@pytest.mark.parametrize("family", sorted(_FAMILY_MODULES))
def test_subcommand_loads_no_dataclasses(family):
    # dataclasses brings inspect, ast, dis and tokenize into a process's
    # start-up; the package's value types are NamedTuples instead
    probe = (
        "import io, sys, locert.cli\n"
        "locert.cli.run(sys.argv[1:], out=io.StringIO())\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _fresh(probe, *_FAMILY_MODULES[family][0]) == "[]"


# Each module of the package -> the package modules it imports, in any
# statement; cli counts only its module level, where it imports none, since
# each handler imports its own layers.  words sits at the bottom and holds
# the shared names: braid takes its word helpers there, not from fpgroup, so
# a braid query never compiles fpgroup, and fpgroup needs nothing from
# braid; klein takes Sign3 there, so it loads neither braid nor fpgroup, and
# meets B3 only in compat.  The digit-limit helpers ``parse_int``,
# ``int_str`` and ``brief_repr`` live there too, so alexander and fpgroup
# read and echo input without loading slopes.
_LAYER_IMPORTS = {
    "__init__": set(),
    "alexander": {"words"},
    "braid": {"words"},
    "cli": set(),
    "compat": {"braid", "fpgroup", "klein", "sampling", "slopes", "words"},
    "fpgroup": {"words"},
    "klein": {"slopes", "words"},
    "sampling": {"words"},
    "seifert": {"slopes", "words"},
    "slopes": {"words"},
    "words": set(),
}


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, by relative or absolute
    name: in any statement, or only in its top-level statements for cli."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in tree.body if path.stem == "cli" else ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("locert" if node.level else "", node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("locert.")}
    return found


def test_layer_imports_are_pinned():
    # A static check: a new edge, such as braid importing fpgroup again,
    # fails here without starting a process.
    assert {path.stem: package_imports(path) for path in MODULES} == _LAYER_IMPORTS


# The per-item kernels: each reads Enum members from module constants bound
# at import, never through the Enum class (the convention at ``words.Sign3``).
ENUM_FREE_KERNELS = {
    "braid": ("_order", "_s2_power_sign", "conj_sign", "dd_normal_form", "_peel"),
    "klein": ("k_sign",),
    "compat": ("verify_compatibility",),
    "seifert": ("slope_lo_verdict", "torus_knot_lspace_verdict", "zhs_lo_status",
                "_pair", "_certify_edge"),
}


def instructions(function):
    """``function``'s bytecode instructions, nested code included."""
    codes = [function.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        yield from dis.get_instructions(code)


def enum_member_reads(function) -> list[str]:
    """The ``Class.member`` reads in ``function``'s bytecode, nested code
    included: a LOAD_GLOBAL of an Enum subclass that a LOAD_ATTR follows."""
    reads = []
    enum_name = None
    for ins in instructions(function):
        if enum_name is not None and ins.opname == "LOAD_ATTR":
            reads.append(f"{enum_name}.{ins.argval}")
        enum_name = None
        if ins.opname == "LOAD_GLOBAL":
            value = function.__globals__.get(ins.argval)
            if isinstance(value, type) and issubclass(value, enum.Enum):
                enum_name = ins.argval
    return reads


_PLANTED_POSITIVE = Sign3.POSITIVE


def _planted_read(sign: Sign3) -> bool:
    return sign is Sign3.POSITIVE


def _planted_nested_read(signs: list[Sign3]) -> list[Sign3]:
    return [s for s in signs if s is not Sign3.TRIVIAL]


def _hoisted_read(sign: Sign3) -> bool:
    return sign is _PLANTED_POSITIVE


def test_enum_member_reads_catches_a_planted_read():
    assert enum_member_reads(_planted_read) == ["Sign3.POSITIVE"]
    assert enum_member_reads(_planted_nested_read) == ["Sign3.TRIVIAL"]
    assert enum_member_reads(_hoisted_read) == []


@pytest.mark.parametrize("layer", sorted(ENUM_FREE_KERNELS))
def test_kernels_read_no_enum_member_through_its_class(layer):
    module = importlib.import_module(f"locert.{layer}")
    reads = {name: enum_member_reads(getattr(module, name))
             for name in ENUM_FREE_KERNELS[layer]}
    assert {name: found for name, found in reads.items() if found} == {}


# The images in K that Proposition 4.3's shared grid holds: the grid loop
# reads them from the grid, and builds none itself.
_GRID_IMAGES = {"phi_peripheral", "KleinElement"}


def image_builds(function) -> list[str]:
    """The names in ``_GRID_IMAGES`` that ``function``'s bytecode loads as
    globals, nested code included."""
    return [ins.argval for ins in instructions(function)
            if ins.opname == "LOAD_GLOBAL" and ins.argval in _GRID_IMAGES]


def _planted_image(k: int, l: int) -> KleinElement:
    return KleinElement(2 * l, -k - l)


def _planted_nested_image(points: list[tuple[int, int]]) -> list[KleinElement]:
    return [phi_peripheral(k, l) for k, l in points]


def _shared_images(bound: int) -> list[KleinElement]:
    return [image for _, _, image in compat._grid(bound)]


def test_image_builds_catches_a_planted_call():
    assert image_builds(_planted_image) == ["KleinElement"]
    assert image_builds(_planted_nested_image) == ["phi_peripheral"]
    assert image_builds(_shared_images) == []


def test_grid_loop_builds_no_image():
    assert image_builds(compat.verify_compatibility) == []


def test_a_report_builds_each_image_once(monkeypatch):
    # 5 samples and the control, at B = 4: one grid of 9^2 - 1 = 80 points,
    # so one image per grid point, not one per positive of each conjugator
    images = []
    phi = compat.phi_peripheral

    def counting_phi(k, l):
        images.append((k, l))
        return phi(k, l)

    monkeypatch.setattr(compat, "phi_peripheral", counting_phi)
    compat._grid.cache_clear()
    compat.proposition_4_3_report(1, 5, 10, 4, False)
    assert len(images) == 80
