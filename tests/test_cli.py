import io
import json

import pytest

from kisp.cli import main

from conftest import SMITH_PATH, TRAP_PATH

TREE = str(SMITH_PATH)


def kisp(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval ------------------------------------------------------------------


def test_eval_prints_value(capsys):
    code, out, err = kisp(
        capsys, "--tree", TREE, "--ego", "eli", "eval", "(count (children ego))"
    )
    assert (code, out, err) == (0, "0\n", "")


def test_eval_skips_defines_in_output(capsys):
    code, out, _ = kisp(
        capsys, "--tree", TREE, "eval", "(define x 3) (* x 14)"
    )
    assert code == 0
    assert out == "42\n"


def test_eval_error_exit_code(capsys):
    code, out, err = kisp(capsys, "--tree", TREE, "eval", "(boom)")
    assert code == 4
    assert out == ""
    assert "unbound reference" in err


def test_eval_prints_values_before_an_error(capsys):
    code, out, err = kisp(capsys, "--tree", TREE, "eval", "(+ 1 2) (boom)")
    assert (code, out) == (4, "3\n")
    assert "unbound reference" in err
    # a parse error anywhere aborts before the first term runs
    code, out, _ = kisp(capsys, "--tree", TREE, "eval", "(+ 1 2) (+ 2 (define x 3))")
    assert (code, out) == (4, "")


def test_eval_too_deep_is_eval_error(capsys):
    src = "(define s (lambda (n) (if (= n 0) 0 (+ n (s (- n 1)))))) (s 5000)"
    code, out, err = kisp(capsys, "--tree", TREE, "eval", src)
    assert (code, out) == (4, "")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_eval_prints_deeply_nested_list(capsys):
    src = (
        "(define nest (lambda (n acc) (if (= n 0) acc (nest (- n 1) (list acc)))))"
        "(nest 5000 (list 1))"
    )
    code, out, err = kisp(capsys, "--tree", TREE, "eval", src)
    assert (code, err) == (0, "")
    assert out == "(" * 5001 + "1" + ")" * 5001 + "\n"


def test_eval_parse_error_exit_code(capsys):
    code, _, err = kisp(capsys, "--tree", TREE, "eval", "(+ 2 (define three 3))")
    assert code == 4
    assert "define" in err


def test_eval_requires_tree(capsys):
    code, _, err = kisp(capsys, "eval", "(+ 1 2)")
    assert code == 1
    assert "--tree" in err


def test_unknown_ego_is_usage_error(capsys):
    code, _, err = kisp(capsys, "--tree", TREE, "--ego", "ghost", "eval", "1")
    assert code == 1
    assert "ghost" in err


def test_now_flag_fixes_output(capsys):
    argv = ["--tree", TREE, "--now", "01.01.2000", "eval", "(past (date '31.12.1999'))"]
    first = kisp(capsys, *argv)
    second = kisp(capsys, *argv)
    assert first == second == (0, "true\n", "")


def test_bad_now_flag_is_usage_error(capsys):
    code, _, err = kisp(capsys, "--tree", TREE, "--now", "2000-01-01", "eval", "1")
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = kisp(capsys, "--tree", TREE, "frobnicate")
    assert code == 1


# --- run -------------------------------------------------------------------


def test_run_script(capsys, tmp_path):
    script = tmp_path / "query.kisp"
    script.write_text(
        "(define parents (lambda (p) (join (mother p) (father p))))\n"
        "(count (parents ego))\n"
        "((twice square) 2)\n",
        encoding="utf-8",
    )
    code, out, err = kisp(capsys, "--tree", TREE, "--ego", "eli", "run", str(script))
    assert (code, err) == (0, "")
    assert out == "2\n16\n"


def test_run_missing_script(capsys, tmp_path):
    code, _, err = kisp(capsys, "--tree", TREE, "run", str(tmp_path / "nope.kisp"))
    assert code == 2
    assert "cannot read script" in err


def test_run_non_utf8_script_is_file_error(capsys, tmp_path):
    script = tmp_path / "latin1.kisp"
    script.write_bytes(b"(+ 1 2) ; caf\xe9\n")
    code, out, err = kisp(capsys, "--tree", TREE, "run", str(script))
    assert (code, out) == (2, "")
    assert "cannot read script" in err
    assert "Traceback" not in err


# --- validate ----------------------------------------------------------------


def test_validate_ok_silent(capsys):
    assert kisp(capsys, "--tree", TREE, "validate") == (0, "", "")


def test_validate_reports_violations(capsys, tmp_path):
    bad = {
        "persons": [
            {"id": "kid", "name": "Kid", "sex": "MALE", "birthdate": "01.01.1950"},
            {"id": "pa", "name": "Pa", "sex": "MALE", "birthdate": "01.01.1960"},
        ],
        "bonds": [{"type": "parental", "parent": "pa", "child": "kid"}],
    }
    path = tmp_path / "bad.tree"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, out, _ = kisp(capsys, "--tree", str(path), "validate")
    assert code == 3
    assert out.startswith("C6:")


def test_query_mode_refuses_invalid_tree(capsys, tmp_path):
    bad = {
        "persons": [
            {"id": "a", "name": "A", "sex": "MALE", "birthdate": "01.01.1950"},
            {"id": "b", "name": "B", "sex": "MALE", "birthdate": "01.01.1952"},
        ],
        "bonds": [{"type": "marital", "a": "a", "b": "b", "wedding": "01.01.1980"}],
    }
    path = tmp_path / "bad.tree"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _, err = kisp(capsys, "--tree", str(path), "eval", "(+ 1 1)")
    assert code == 3
    assert "C3" in err


def test_unreadable_tree_is_file_error(capsys):
    code, _, err = kisp(capsys, "--tree", "/no/such/file.tree", "validate")
    assert code == 2
    assert "cannot read tree file" in err


def test_malformed_tree_is_file_error(capsys, tmp_path):
    path = tmp_path / "broken.tree"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = kisp(capsys, "--tree", str(path), "validate")
    assert code == 2


def test_deeply_nested_tree_is_file_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = kisp(capsys, "--tree", str(path), "validate")
    assert (code, out) == (2, "")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_non_utf8_tree_is_file_error(capsys, tmp_path):
    path = tmp_path / "latin1.tree"
    path.write_bytes(SMITH_PATH.read_bytes().replace(b'"Eli', b'"\xc9li'))
    code, out, err = kisp(capsys, "--tree", str(path), "validate")
    assert (code, out) == (2, "")
    assert "cannot read tree file" in err
    assert "Traceback" not in err


# --- term ----------------------------------------------------------------------


def test_term_prints_sorted_ids(capsys):
    code, out, _ = kisp(
        capsys, "--tree", TREE, "term", "son (father|mother) (father|mother)", "eli"
    )
    assert code == 0
    assert out == "bob\ncarl\n"


def test_term_empty_result(capsys):
    code, out, _ = kisp(capsys, "--tree", TREE, "term", "wife", "eve")
    assert (code, out) == (0, "")


def test_term_unknown_person(capsys):
    code, _, err = kisp(capsys, "--tree", TREE, "term", "father", "ghost")
    assert code == 1
    assert "ghost" in err


def test_term_parse_error(capsys):
    code, _, err = kisp(capsys, "--tree", TREE, "term", "uncle", "eli")
    assert code == 4


def test_term_nested_too_deeply_is_eval_error(capsys):
    term = "(" * 1200 + "father" + ")" * 1200
    code, out, err = kisp(capsys, "--tree", TREE, "term", term, "eli")
    assert (code, out) == (4, "")
    assert "nested too deeply (at position" in err
    assert "Traceback" not in err


def _chain(factors):
    return " ".join(["son", "(father | mother)", "daughter", "wife"] * (factors // 4))


# Terms that parse but that the term operations, which recurse once per node,
# cannot walk on the Python stack: each is an evaluation error, not a crash.
LONG_TERMS = [
    ("reduce", _chain(1024)),
    ("reduce", "son" + "^+" * 3000),
    ("reduce", " | ".join(["son", "daughter"] * 1500)),
    ("term", _chain(3000)),
    ("term", "son^-1" + "^+" * 5000),
    ("term", " | ".join(["son", "daughter"] * 2500)),
    ("term", "(son" + "^-1" * 5000 + ")"),
]


@pytest.mark.parametrize(
    "command, term", LONG_TERMS,
    ids=["reduce-chain-1024", "reduce-dual-3000", "reduce-fork-3000", "term-chain-3000",
         "term-dual-5000", "term-fork-5000", "term-inverse-5000"],
)
def test_long_term_is_eval_error(capsys, command, term):
    argv = ["reduce", term] if command == "reduce" else ["--tree", TREE, "term", term, "eli"]
    code, out, err = kisp(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "kisp: kin term too long or nested too deeply\n"
    assert "Traceback" not in err


# --- reduce ---------------------------------------------------------------------


def test_reduce_standard_dictionary(capsys):
    assert kisp(capsys, "reduce", "father (father | mother)") == (
        0,
        "grandfather\n",
        "",
    )


def test_reduce_partial(capsys):
    code, out, _ = kisp(capsys, "reduce", "father . father (father|mother)")
    assert (code, out) == (0, "father of grandfather\n")


def test_reduce_custom_dictionary(capsys):
    code, out, _ = kisp(
        capsys, "--dict", str(TRAP_PATH), "reduce", "father mother son daughter wife"
    )
    assert (code, out) == (0, "father of blocker of wife\n")


def test_reduce_needs_no_tree(capsys):
    code, out, _ = kisp(capsys, "reduce", "son (father | mother)")
    assert (code, out) == (0, "brother\n")


def test_reduce_bad_term(capsys):
    code, _, err = kisp(capsys, "reduce", "father ^^ mother")
    assert code == 4


def test_reduce_inverse_rejected(capsys):
    code, _, err = kisp(capsys, "reduce", "father^-1")
    assert code == 4
    assert "inverse" in err


def test_reduce_missing_dictionary(capsys):
    code, _, err = kisp(capsys, "--dict", "/no/such.dict", "reduce", "father")
    assert code == 2


def test_reduce_dictionary_nested_too_deeply_is_file_error(capsys, tmp_path):
    path = tmp_path / "deep.dict"
    pattern = "(" * 1200 + "son . (father | mother)" + ")" * 1200
    path.write_text(f"{pattern} => brother\n", encoding="utf-8")
    code, out, err = kisp(capsys, "--dict", str(path), "reduce", "son (father | mother)")
    assert (code, out) == (2, "")
    assert "line 1: term nested too deeply" in err
    assert "Traceback" not in err


def test_reduce_non_utf8_dictionary_is_file_error(capsys, tmp_path):
    path = tmp_path / "latin1.dict"
    path.write_bytes(b"son . (father | mother) => fr\xe8re\n")
    code, out, err = kisp(capsys, "--dict", str(path), "reduce", "son (father | mother)")
    assert (code, out) == (2, "")
    assert "cannot read dictionary file" in err
    assert "Traceback" not in err


# --- repl -----------------------------------------------------------------------


def repl(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["--tree", TREE, *argv, "repl"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_prompt_and_values(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, "(+ 1 2)\n")
    assert code == 0
    assert "kisp> " in out
    assert "3\n" in out


def test_repl_define_persists_and_prints_void(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "(define x 21)\n(* x 2)\n")
    assert code == 0
    assert "void\n" in out  # the define itself evaluates to void
    assert "42\n" in out


def test_repl_multiline_continuation(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "(+ 1\n2)\n")
    assert code == 0
    assert "....> " in out
    assert "3\n" in out


def test_repl_survives_errors(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, "(boom)\n(+ 1 1)\n")
    assert code == 0
    assert "unbound reference" in err
    assert "2\n" in out


def test_repl_ego_binding(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "(attr ego 'name')\n", "--ego", "eli")
    assert code == 0
    assert "'Eli Smith'\n" in out
