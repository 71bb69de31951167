"""The package root: its exports, and what importing and running kisp loads."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import kisp

MODULES = ("interp", "reduction", "semantics", "temporal", "terms", "tree")
SRC = pathlib.Path(kisp.__file__).resolve().parent.parent
SMITH = pathlib.Path(__file__).parent / "data" / "smith.tree"

PUBLIC = [
    "Atom", "ConstraintViolation", "FamilyTree", "Interpreter", "InvalidTreeError",
    "KinTerm", "KinTermError", "KispError", "Person", "ReducedTerm",
    "ReductionDictionary", "Sex", "StructuralError", "Timeline", "UnknownPersonError",
    "basic_kin", "concat_count", "eval_term", "expand", "format_date", "format_value",
    "load_tree", "optimal_shorten", "parse_date", "parse_kin_term", "parse_program",
    "push_dual", "remaining_concats", "render", "shorten", "validate_tree", "__version__",
]


def test_all_is_the_public_api():
    assert kisp.__all__ == PUBLIC


def test_each_export_is_its_home_modules_object():
    for name in PUBLIC[:-1]:
        value = getattr(kisp, name)
        home = value.__module__
        assert home in {f"kisp.{module}" for module in MODULES}, name
        assert value is getattr(importlib.import_module(home), name)


def test_each_export_is_written_once():
    source = pathlib.Path(kisp.__file__).read_text(encoding="utf-8")
    for name in PUBLIC[:-1]:
        assert len(re.findall(rf"\b{name}\b", source)) == 1, name


def test_dir_lists_exports_and_modules():
    listed = dir(kisp)
    assert set(PUBLIC) <= set(listed)
    assert set(MODULES) <= set(listed)


def test_modules_are_attributes():
    for module in MODULES:
        assert getattr(kisp, module) is importlib.import_module(f"kisp.{module}")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from kisp import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(kisp, name) for name in PUBLIC
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        kisp.frobnicate
    with pytest.raises(ImportError):
        exec("from kisp import frobnicate", {})


def imported_by(code: str) -> set[str]:
    """The modules a fresh interpreter has imported after ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_by(code: str) -> set[str]:
    """The kisp submodules a fresh interpreter has imported after ``code``."""
    return {module for module in imported_by(code) if module.startswith("kisp.")}


def test_import_kisp_loads_no_submodule():
    assert loaded_by("import kisp") == set()


def test_name_access_loads_only_its_module():
    assert loaded_by("import kisp; kisp.parse_kin_term") == {"kisp.terms"}


def cli_loads(*argv: str) -> set[str]:
    return loaded_by(f"import kisp.cli; assert kisp.cli.main({list(argv)!r}) == 0")


def test_reduce_loads_neither_interpreter_nor_tree():
    loaded = cli_loads("reduce", "son (father | mother)")
    assert {"kisp.terms", "kisp.reduction"} <= loaded
    assert not loaded & {"kisp.interp", "kisp.tree", "kisp.semantics", "kisp.temporal"}


@pytest.mark.parametrize(
    "argv", [("validate",), ("term", "son (father|mother)", "eli")], ids=["validate", "term"]
)
def test_tree_commands_do_not_load_interpreter(argv):
    loaded = cli_loads("--tree", str(SMITH), *argv)
    assert "kisp.tree" in loaded
    assert "kisp.interp" not in loaded


def test_eval_loads_interpreter():
    assert "kisp.interp" in cli_loads("--tree", str(SMITH), "eval", "(+ 1 2)")


@pytest.mark.parametrize(
    "argv",
    [("reduce", "son (father | mother)"), ("--tree", str(SMITH), "validate"),
     ("--tree", str(SMITH), "term", "son (father|mother)", "eli"),
     ("--tree", str(SMITH), "eval", "(+ 1 2)")],
    ids=["reduce", "validate", "term", "eval"],
)
def test_commands_import_neither_dataclasses_nor_inspect(argv):
    # the records are built without them, which keeps them out of start-up
    code = f"import kisp.cli; assert kisp.cli.main({list(argv)!r}) == 0"
    assert not imported_by(code) & {"dataclasses", "inspect"}
