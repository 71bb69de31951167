from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kisp.interp import (
    VACANT,
    VOID,
    Application,
    Builtin,
    Closure,
    Define,
    Environment,
    Interpreter,
    KEYWORDS,
    MAX_DEPTH,
    MAX_NESTING,
    KispError,
    KispLexError,
    KispParseError,
    KispRuntimeError,
    Lambda,
    Literal,
    PersonRef,
    Reference,
    format_value,
    kisp_equal,
    parse_program,
    tokenize,
)
from kisp.semantics import eval_term
from kisp.temporal import Timeline, parse_date
from kisp.terms import Atom, parse_kin_term
from kisp.tree import basic_kin

import helpers


def run(interp, src):
    return interp.eval_text(src)


# --- lexer ---------------------------------------------------------------------


def test_tokenize_simple_application():
    kinds = [(t.kind, t.value) for t in tokenize("(+ 2 3)")]
    assert kinds == [("(", "("), ("name", "+"), ("numeral", 2), ("numeral", 3), (")", ")")]


def test_tokenize_string_with_punctuation():
    tokens = tokenize("'Hello, World!'")
    assert [(t.kind, t.value) for t in tokens] == [("string", "Hello, World!")]


def test_tokenize_empty_string_literal():
    assert tokenize("''")[0].value == ""


def test_numerals_zero_prefixed_and_negative():
    assert tokenize("007")[0].value == 7
    assert tokenize("-5")[0].value == -5
    assert tokenize("-0")[0].value == 0


def test_dash_case_and_question_mark_references():
    assert tokenize("long-name")[0] .value == "long-name"
    assert tokenize("very-long-name")[0].value == "very-long-name"
    assert tokenize("married?")[0].value == "married?"
    assert tokenize("is-happy?")[0].value == "is-happy?"


def test_leading_dash_reference_rejected():
    with pytest.raises(KispLexError):
        tokenize("-illegal")


@pytest.mark.parametrize("bad", ["trailing-", "mid--dash", "ab?c", "a_b", "1abc", "--", "?"])
def test_malformed_words_rejected(bad):
    with pytest.raises(KispLexError):
        tokenize(bad)


def test_unterminated_string_rejected():
    with pytest.raises(KispLexError):
        tokenize("'oops")
    with pytest.raises(KispLexError):
        tokenize("'line\nbreak'")


def test_non_ascii_in_string_rejected():
    with pytest.raises(KispLexError):
        tokenize("'café'")


def test_token_positions():
    tok = tokenize("(+\n   weird)")[2]
    assert (tok.line, tok.col) == (2, 4)


# --- parser ---------------------------------------------------------------------


def test_parse_define_at_top_level():
    (node,) = parse_program("(define three 3)")
    assert node == Define("three", Literal(3, 1, 15), 1, 1)


def test_nested_define_rejected():
    with pytest.raises(KispParseError):
        parse_program("(+ 2 (define three 3))")


def test_define_inside_lambda_rejected():
    with pytest.raises(KispParseError):
        parse_program("(lambda (x) (define y x))")


def test_empty_parens_rejected():
    with pytest.raises(KispParseError):
        parse_program("()")


def test_niladic_lambda_allowed():
    (node,) = parse_program("(lambda () 'Hello, World!')")
    assert isinstance(node, Lambda)
    assert node.params == ()


def test_lambda_body_is_single_term():
    with pytest.raises(KispParseError):
        parse_program("(lambda (x) x x)")
    with pytest.raises(KispParseError):
        parse_program("(lambda (x))")


def test_duplicate_lambda_parameter_rejected():
    with pytest.raises(KispParseError):
        parse_program("(lambda (x x) x)")


def test_if_requires_three_operands():
    with pytest.raises(KispParseError):
        parse_program("(if true 1)")
    with pytest.raises(KispParseError):
        parse_program("(if true 1 2 3)")


def test_and_or_need_two_operands():
    with pytest.raises(KispParseError):
        parse_program("(and true)")
    with pytest.raises(KispParseError):
        parse_program("(or false)")


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_keywords_unshadowable(keyword):
    with pytest.raises(KispParseError):
        parse_program(f"(define {keyword} 1)")
    with pytest.raises(KispParseError):
        parse_program(f"(lambda ({keyword}) 1)")


@pytest.mark.parametrize("word", ["and", "or"])
def test_short_circuit_names_reserved(word):
    with pytest.raises(KispParseError):
        parse_program(f"(define {word} 1)")
    with pytest.raises(KispParseError):
        parse_program(f"(lambda ({word}) 1)")
    with pytest.raises(KispParseError):
        parse_program(f"(list {word})")


def test_unbalanced_parens_rejected():
    with pytest.raises(KispParseError):
        parse_program("(+ 1 2")
    with pytest.raises(KispParseError):
        parse_program("(+ 1 2))")


def test_application_shape():
    (node,) = parse_program("(f a 1)")
    assert isinstance(node, Application)
    assert node.head == Reference("f", 1, 2)
    assert len(node.args) == 2


# --- evaluation ------------------------------------------------------------------


@pytest.fixture
def bare():
    return Interpreter()


def test_arithmetic(bare):
    assert run(bare, "(+ 2 3)") == 5
    assert run(bare, "(+ 1 2 3 4)") == 10
    assert run(bare, "(- 10 4)") == 6
    assert run(bare, "(* 6 7)") == 42
    assert run(bare, "(< 1 2)") is True
    assert run(bare, "(< 2 1)") is False
    assert run(bare, "(inc 41)") == 42


def test_arbitrary_precision(bare):
    assert run(bare, "(* 4611686018427387904 4)") == 2**64
    assert run(bare, "(+ 9223372036854775807 1)") == 2**63


def test_literals(bare):
    assert run(bare, "true") is True
    assert run(bare, "false") is False
    assert run(bare, "void") is VOID
    assert run(bare, "vacant") == VACANT
    assert run(bare, "007") == 7
    assert run(bare, "'text'") == "text"


def test_define_then_use(bare):
    assert bare.eval_text("(define three 3) (+ three three)") == 6


def test_define_returns_void(bare):
    assert bare.eval_text("(define x 1)") is VOID


def test_lambda_application_and_closures(bare):
    assert run(bare, "((lambda (x y) (+ x y)) 2 3)") == 5
    assert run(bare, "((lambda () 'Hello, World!'))") == "Hello, World!"
    # captured environment, not dynamic scope
    src = """
    (define make-adder (lambda (n) (lambda (x) (+ x n))))
    (define add-two (make-adder 2))
    (add-two 40)
    """
    assert bare.eval_text(src) == 42


def test_higher_order_prelude(bare):
    assert run(bare, "((twice square) 2)") == 16
    assert run(bare, "((compose inc inc) 0)") == 2


def test_if_evaluates_single_branch(bare):
    assert run(bare, "(if true 1 undefined-ref)") == 1
    assert run(bare, "(if false undefined-ref 2)") == 2
    with pytest.raises(KispRuntimeError):
        run(bare, "(if 1 2 3)")  # condition must be boolean


def test_and_or_short_circuit(bare):
    assert run(bare, "(and false undefined-ref)") is False
    assert run(bare, "(or true undefined-ref)") is True
    assert run(bare, "(and true true false)") is False
    assert run(bare, "(or false false true)") is True
    with pytest.raises(KispRuntimeError):
        run(bare, "(and true 1)")


def test_equality_is_structural_and_cross_type_false(bare):
    assert run(bare, "(= 3 3)") is True
    assert run(bare, "(= 'a' 'a')") is True
    assert run(bare, "(= (list 1 2) (list 1 2))") is True
    assert run(bare, "(= void void)") is True
    assert run(bare, "(= vacant vacant)") is True
    assert run(bare, "(= void vacant)") is False
    assert run(bare, "(= 1 true)") is False
    assert run(bare, "(= 0 false)") is False
    assert run(bare, "(= 'MALE' 1)") is False
    assert run(bare, "(= (list 1) (list 1 1))") is False


def test_kisp_equal_bool_vs_int():
    assert not kisp_equal(True, 1)
    assert not kisp_equal(0, False)
    assert kisp_equal((True,), (True,))
    assert not kisp_equal((True,), (1,))


# Atoms that Python's own equality would confuse: booleans and the numerals
# they equal, equal persons and dates held in distinct objects, and
# closures/builtins that are equal field by field but are distinct functions.
_BODY = Literal(1, 1, 1)
_ATOMS = [
    True, False, 1, 0, -1, "bob", "", "true", VOID,
    PersonRef("bob"), PersonRef("bob"), PersonRef("eve"),
    date(2000, 1, 1), date(2000, 1, 1), date(1999, 12, 31),
    Closure((), _BODY, Environment()), Closure((), _BODY, Environment()),
    Builtin("inc", 1, 1, lambda interp, args, node: args[0] + 1),
    Builtin("inc", 1, 1, lambda interp, args, node: args[0] + 1),
]
kisp_values = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


def _rebuilt(value):
    """An equal value made of fresh list and person objects."""
    if isinstance(value, tuple):
        return tuple(_rebuilt(v) for v in value)
    if isinstance(value, PersonRef):
        return PersonRef(value.id)
    return value


@given(st.lists(kisp_values, max_size=12), st.lists(kisp_values, max_size=4))
def test_join_matches_pairwise_dedup(first, second):
    interp = Interpreter()
    interp.globals.bind("xs", tuple(first))
    ys = second + _ATOMS + [_rebuilt(v) for v in first]
    interp.globals.bind("ys", tuple(ys))
    got = interp.eval_text("(join xs ys)")
    want = helpers._dedup(first + ys)
    # same length and the very same objects: first occurrences, in order
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


@given(kisp_values, kisp_values)
def test_equality_matches_pairwise(a, b):
    interp = Interpreter()
    for other in (b, a, _rebuilt(a), *_ATOMS):
        interp.globals.bind("a", a)
        interp.globals.bind("b", other)
        want = helpers.kisp_equal(a, other)
        assert interp.eval_text("(= a b)") is want
        assert kisp_equal(a, other) is want


def test_list_builtins(bare):
    assert run(bare, "(list 1 2 3)") == (1, 2, 3)
    assert run(bare, "(list)") == ()
    assert run(bare, "(append (list 1 2) (list 3) vacant)") == (1, 2, 3)
    assert run(bare, "(concat 'foo' '-' 'bar')") == "foo-bar"
    assert run(bare, "(join (list 1 2) (list 2 3))") == (1, 2, 3)
    assert run(bare, "(join (list true) (list 1))") == (True, 1)
    assert run(bare, "(count (list 1 2 3))") == 3
    assert run(bare, "(count vacant)") == 0


def test_filter_and_map(bare):
    assert run(bare, "(filter (lambda (x) (< 1 x)) (list 1 2 3))") == (2, 3)
    assert run(bare, "(map inc (list 1 2 3))") == (2, 3, 4)
    with pytest.raises(KispRuntimeError):
        run(bare, "(filter (lambda (x) x) (list 1))")  # non-boolean predicate


def test_not(bare):
    assert run(bare, "(not true)") is False
    assert run(bare, "(not false)") is True
    with pytest.raises(KispRuntimeError):
        run(bare, "(not 0)")


def test_runtime_errors_carry_position(bare):
    with pytest.raises(KispRuntimeError) as exc:
        run(bare, "(+ 1\n   missing)")
    assert (exc.value.line, exc.value.col) == (2, 4)


def test_unbound_reference(bare):
    with pytest.raises(KispRuntimeError):
        run(bare, "nope")


def test_apply_non_function(bare):
    with pytest.raises(KispRuntimeError):
        run(bare, "(3 4)")


def test_arity_mismatch(bare):
    with pytest.raises(KispRuntimeError):
        run(bare, "((lambda (x) x) 1 2)")
    with pytest.raises(KispRuntimeError):
        run(bare, "(inc)")
    with pytest.raises(KispRuntimeError):
        run(bare, "(- 1)")


def test_builtins_are_rebindable_but_keywords_are_not(bare):
    # only the nine keywords (plus and/or) are off limits
    assert bare.eval_text("(define inc (lambda (x) (+ x 10))) (inc 1)") == 11


def test_redefinition_takes_effect(bare):
    assert bare.eval_text("(define x 1) (define x 2) x") == 2


# --- tree-backed evaluation --------------------------------------------------------


def test_people_ordering(interp):
    people = run(interp, "people")
    assert people == tuple(
        PersonRef(i) for i in ["adam", "eve", "bob", "dana", "carl", "eli", "fay", "hank"]
    )


def test_now_binding(interp):
    assert run(interp, "now") == parse_date("01.01.2000")
    assert run(interp, "(past (date '01.09.1939'))") is True
    assert run(interp, "(future (date '02.01.2000'))") is True
    assert run(interp, "(past now)") is False
    assert run(interp, "(future now)") is False


def test_ego_binding(interp):
    assert run(interp, "ego") == PersonRef("eli")


def test_unknown_ego_rejected(smith_tree):
    from kisp.tree import UnknownPersonError

    with pytest.raises(UnknownPersonError):
        Interpreter(smith_tree, ego="ghost")


def test_accessors_on_single_person(interp):
    assert run(interp, "(father ego)") == (PersonRef("bob"),)
    assert run(interp, "(mother ego)") == (PersonRef("dana"),)
    assert run(interp, "(children ego)") == ()
    assert run(interp, "(spouse ego)") == ()


def test_accessors_lift_over_lists(interp):
    interp.globals.bind("pair", (PersonRef("bob"), PersonRef("dana")))
    # both parents map to the same children; result is deduplicated
    assert run(interp, "(children pair)") == (PersonRef("eli"), PersonRef("fay"))
    interp.globals.bind("brothers", (PersonRef("bob"), PersonRef("carl")))
    assert run(interp, "(father brothers)") == (PersonRef("adam"),)


def test_accessor_results_in_tree_order(interp):
    interp.globals.bind("reversed-pair", (PersonRef("dana"), PersonRef("bob")))
    assert run(interp, "(children reversed-pair)") == (PersonRef("eli"), PersonRef("fay"))


def test_sex_specific_accessors(interp):
    interp.globals.bind("adam-ref", PersonRef("adam"))
    assert run(interp, "(son adam-ref)") == (PersonRef("bob"), PersonRef("carl"))
    assert run(interp, "(daughter adam-ref)") == ()
    interp.globals.bind("eve-ref", PersonRef("eve"))
    assert run(interp, "(husband eve-ref)") == (PersonRef("adam"),)
    assert run(interp, "(wife eve-ref)") == ()


def test_attr(interp):
    assert run(interp, "(attr ego 'name')") == "Eli Smith"
    assert run(interp, "(attr ego 'sex')") == "MALE"
    assert run(interp, "(attr ego 'birthdate')") == parse_date("11.03.1990")
    assert run(interp, "(attr ego 'birthplace')") == "Springfield"
    interp.globals.bind("carl-ref", PersonRef("carl"))
    assert run(interp, "(attr carl-ref 'birthplace')") is VOID
    with pytest.raises(KispRuntimeError):
        run(interp, "(attr ego 'shoe-size')")


def test_date_builtin(interp):
    assert run(interp, "(date '01.09.1939')") == parse_date("01.09.1939")
    with pytest.raises(KispRuntimeError):
        run(interp, "(date 'yesterday')")


def test_temporal_builtins(interp):
    assert run(interp, "(before (date '01.09.1939') (date '02.09.1945'))") is True
    assert run(interp, "(after (date '02.09.1945') (date '01.09.1939'))") is True
    assert (
        run(interp, "(during (date '01.01.1941') (date '01.09.1939') (date '02.09.1945'))")
        is True
    )


def test_accessors_agree_with_kin_semantics(interp, smith_tree):
    interp.eval_text("(define parents (lambda (p) (join (mother p) (father p))))")
    term = parse_kin_term("father | mother")
    for p in smith_tree.persons:
        interp.globals.bind("subject", PersonRef(p.id))
        got = {ref.id for ref in run(interp, "(parents subject)")}
        assert got == eval_term(smith_tree, term, {p.id})


def test_relation_table_agrees_with_oracle(interp, smith_tree, smith_raw):
    oracle = helpers.TreeOracle(smith_raw)
    for atom in Atom:
        for pid in oracle.ids:
            assert basic_kin(smith_tree, atom, pid) == oracle.atom(atom.value, pid)
    expected = {
        "children": oracle.children,
        "spouse": oracle.spouses,
        **{a.value: {p: oracle.atom(a.value, p) for p in oracle.ids} for a in Atom},
    }
    for name, related in expected.items():
        for pid in oracle.ids:
            interp.globals.bind("subject", PersonRef(pid))
            got = [ref.id for ref in run(interp, f"({name} subject)")]
            assert got == [q for q in oracle.ids if q in related[pid]]


def test_accessors_require_tree():
    bare = Interpreter()
    bare.globals.bind("someone", PersonRef("x"))
    with pytest.raises(KispRuntimeError):
        bare.eval_text("(children someone)")


def test_evaluation_is_deterministic(smith_tree):
    src = """
    (define parents (lambda (p) (join (mother p) (father p))))
    (filter (lambda (p) (< 0 (count (parents p)))) people)
    ((twice square) 2)
    """
    outputs = []
    for _ in range(2):
        interp = Interpreter(smith_tree, Timeline(parse_date("01.01.2000")), ego="eli")
        outputs.append("\n".join(interp.script_output(src)))
    assert outputs[0] == outputs[1]


# --- printing -------------------------------------------------------------------


def test_format_value_cases(interp):
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(42) == "42"
    assert format_value(-5) == "-5"
    assert format_value("hi") == "'hi'"
    assert format_value(VOID) == "void"
    assert format_value(()) == "()"
    assert format_value((1, "a", VOID)) == "(1 'a' void)"
    assert format_value(((1,), (), ((2, "( x )"),), 3)) == "((1) () ((2 '( x )')) 3)"
    assert format_value(PersonRef("bob")) == "bob"
    assert format_value(parse_date("01.09.1939")) == "01.09.1939"
    assert format_value(run(interp, "(lambda (x) x)")) == "<function>"
    assert format_value(run(interp, "inc")) == "<builtin inc>"


def test_script_output_skips_defines(interp):
    lines = interp.script_output("(define x 3) (+ x 1) 'done'")
    assert lines == ["4", "'done'"]


def test_script_error_aborts(interp):
    with pytest.raises(KispError):
        interp.eval_program("(+ 1 2) (boom) (+ 3 4)")


# --- tail calls and the depth limit ---------------------------------------------

SUM_DOWN = "(define s (lambda (n) (if (= n 0) 0 (+ n (s (- n 1))))))\n"


def test_tail_recursive_countdown_runs_in_constant_stack(bare):
    src = "(define down (lambda (n) (if (= n 0) 0 (down (- n 1))))) (down 100000)"
    assert bare.eval_text(src) == 0


def test_mutual_tail_recursion(bare):
    bare.eval_text(
        "(define even? (lambda (n) (if (= n 0) true (odd? (- n 1)))))"
        "(define odd? (lambda (n) (if (= n 0) false (even? (- n 1)))))"
    )
    assert bare.eval_text("(odd? 10001)") is True
    assert bare.eval_text("(even? 10001)") is False


def test_non_tail_recursion_within_limit(bare):
    assert bare.eval_text(SUM_DOWN + "(s 150)") == 11325


def test_non_tail_recursion_past_limit_is_positioned_error(bare):
    src = SUM_DOWN + "(s 5000)"
    with pytest.raises(KispRuntimeError) as exc:
        bare.eval_text(src)
    # the limit trips inside the recursion, at a node of the definition
    assert exc.value.line == 1
    assert (exc.value.line, exc.value.col) in {(t.line, t.col) for t in tokenize(src)}
    assert bare.eval_text("(+ 1 2)") == 3


NEST = "(define nest (lambda (n acc) (if (= n 0) acc (nest (- n 1) (list acc)))))\n"


@pytest.mark.parametrize(
    "src, error",
    [
        ("(+ 1 " * 5000 + "0" + ")" * 5000, KispParseError),
        ("(define f (lambda (n) (if (= n 0) (list) (map f (list (- n 1))))))"
         "(f 5000)", KispRuntimeError),
        (NEST + "(= (nest 5000 (list)) (nest 5000 (list)))", KispRuntimeError),
    ],
    ids=["nested-source", "recursion-through-map", "deep-list-equality"],
)
def test_deep_programs_fail_as_kisp_errors(bare, src, error):
    # no RecursionError escapes, whatever runs out of Python stack
    with pytest.raises(error, match="nested too deeply"):
        bare.eval_text(src)
    assert bare.eval_text("(+ 1 2)") == 3


# --- the analysed evaluator against the reference evaluator ------------------------

PARAMS = ("x", "y", "z")
# Globals a program may define, in an order that keeps definitions from
# calling themselves: the value defined for one may refer only to the names
# after it.  The last four rebind builtins.
DEFINABLE = ("f", "g", "inc", "not", "date", "+")
PURE = ("date", "+", "-", "*", "<", "=", "inc", "not", "list", "concat", "before", "after",
        "during")
LITERALS = ("0", "2", "-1", "true", "void", "vacant", "'a'", "'01.01.1900'", "'31.02.1900'")


@st.composite
def kisp_terms(draw, params: tuple = (), names: tuple = DEFINABLE, depth: int = 3):
    """KISP source for one term: numerals, booleans, parameters of the
    enclosing lambdas, globals (some unbound), ``if``, ``and``/``or``,
    lambdas that capture and shadow parameters, builtins on the results,
    ``filter``/``map``, applications with any number of operands, and pure
    builtins applied to literals only."""
    leaves = ["numeral", "boolean", "global", "pure"] + ["param"] * (2 if params else 0)
    kind = draw(st.sampled_from(leaves + (["if", "logic", "lambda", "call", "let", "builtin",
                                           "list-op"] if depth > 0 else [])))
    sub = lambda: draw(kisp_terms(params, names, depth - 1))  # noqa: E731
    if kind == "numeral":
        return str(draw(st.integers(-2, 3)))
    if kind == "boolean":
        return draw(st.sampled_from(["true", "false"]))
    if kind == "param":
        return draw(st.sampled_from(params))
    if kind == "pure":  # folded while the name stays bound to its builtin
        literals = draw(st.lists(st.sampled_from(LITERALS), max_size=3))
        return f"({' '.join((draw(st.sampled_from(PURE)), *literals))})"
    if kind == "global":
        return draw(st.sampled_from(names + ("+", "=", "unbound", "people", "void", "vacant")))
    if kind == "if":
        return f"(if {sub()} {sub()} {sub()})"
    if kind == "logic":
        op = draw(st.sampled_from(["and", "or"]))
        return f"({op} {' '.join(sub() for _ in range(draw(st.integers(2, 3))))})"
    if kind == "lambda":
        new = tuple(draw(st.lists(st.sampled_from(PARAMS), max_size=2, unique=True)))
        body = draw(kisp_terms(tuple(dict.fromkeys(params + new)), names, depth - 1))
        return f"(lambda ({' '.join(new)}) {body})"
    if kind == "call":
        return f"({' '.join(sub() for _ in range(draw(st.integers(1, 3))))})"
    if kind == "let":  # a lambda applied at once, so that its parameters shadow
        new = tuple(draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=2, unique=True)))
        body = draw(kisp_terms(tuple(dict.fromkeys(params + new)), names, depth - 1))
        return f"((lambda ({' '.join(new)}) {body}) {' '.join(sub() for _ in new)})"
    if kind == "builtin":
        name = draw(st.sampled_from(["inc", "not", "+", "-", "<", "=", "list", "count"]))
        return f"({name} {' '.join(sub() for _ in range(draw(st.integers(1, 2))))})"
    return f"({draw(st.sampled_from(['filter', 'map']))} {sub()} (list {sub()} {sub()}))"


@st.composite
def kisp_programs(draw):
    """Top-level terms, among them defines that rebind a global, a builtin
    too, after closures that use it were made, and calls of those closures
    before and after."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["define", "term", "call"]))
        if kind == "define":
            i = draw(st.integers(0, len(DEFINABLE) - 1))
            value = draw(kisp_terms(names=DEFINABLE[i + 1:]))
            terms.append(f"(define {DEFINABLE[i]} {value})")
        elif kind == "term":
            terms.append(draw(kisp_terms(names=DEFINABLE)))
        else:
            literals = draw(st.lists(st.sampled_from(LITERALS), max_size=2))
            terms.append(f"({' '.join((draw(st.sampled_from(('f', 'g'))), *literals))})")
    return "\n".join(terms)


@settings(max_examples=400, deadline=2000)
@given(kisp_programs())
def test_analysed_evaluator_matches_reference(src):
    # the same printed values, or the same error class, message and position
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)


# The builtins whose application to literals the evaluator folds, and the
# builtins a folded name may be rebound to.
FOLDED = ("date", "+", "-", "*", "<", "=", "inc", "not", "list", "concat")
REBOUND_TO = FOLDED + ("count", "before", "append")


@st.composite
def rebound_fold_programs(draw):
    """A closure around a folded builtin applied to literals, called, then
    called again after each rebinding of that builtin's name, to another
    builtin or to a lambda."""
    name = draw(st.sampled_from(FOLDED))
    literals = draw(st.lists(st.sampled_from(("2", "3") + LITERALS), max_size=3))
    pure = f"({' '.join((name, *literals))})"
    body = draw(st.sampled_from([pure, f"(list {pure})"]))  # in tail position or not
    terms = [f"(define f (lambda () {body}))", "(f)"]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            value = draw(st.sampled_from(REBOUND_TO))
        else:
            params = tuple(draw(st.lists(st.sampled_from(PARAMS), max_size=3, unique=True)))
            value = f"(lambda ({' '.join(params)}) {draw(kisp_terms(params, (), 1))})"
        terms += [f"(define {name} {value})", "(f)"]
    return "\n".join(terms)


@settings(max_examples=200, deadline=2000)
@given(rebound_fold_programs())
def test_folded_value_follows_its_rebound_builtin_like_the_reference(src):
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)


@pytest.mark.parametrize(
    "src",
    [
        SUM_DOWN + "(s 5000)",
        "(define d (lambda (n) (if (= n 0) 0 (inc (d (- n 1))))))\n(d 298) (d 299) (d 300)",
        "(define g (lambda (n) (+ 1 (if (= n 0) 0 (g (- n 1))))))\n(g 1000)",
        "(define m (lambda (n) (if (= n 0) 0 (count (map m (list (- n 1)))))))\n(m 200)",
        "(define a (lambda (n) (and (< 0 n) (or false (a (- n 1))))))\n(a 1000)",
    ],
    ids=["operand", "boundary", "if-operand", "through-map", "and-or"],
)
def test_depth_limit_matches_reference(src):
    # the limit trips at the same term, in whatever way the recursion nests
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)
    assert got[1] is not None and got[1][1] == "evaluation nested too deeply"


def test_depth_limit_trips_before_the_python_stack_runs_out():
    # a recursion such as SUM_DOWN takes two Python frames per level, so
    # MAX_DEPTH trips first even under a caller a hundred frames deep
    src = SUM_DOWN + "(s 5000)"
    want = helpers.run_kisp(helpers.ReferenceInterpreter(), src)
    assert _in_deep_stack(100, lambda: helpers.run_kisp(Interpreter(), src)) == want


def test_inner_parameter_shadows_outer(bare):
    assert run(bare, "((lambda (x) ((lambda (x) x) 2)) 1)") == 2
    assert run(bare, "((lambda (x y) ((lambda (y) (- x y)) 10)) 1 2)") == -9
    assert run(bare, "(((lambda (x) (lambda (y) (lambda (x) (list x y)))) 1) 2)") is not None
    assert run(bare, "((((lambda (x) (lambda (y) (lambda (x) (list x y)))) 1) 2) 3)") == (3, 2)


def test_builtin_applies_a_closure_to_many_items_at_one_depth(bare):
    # each application by map starts at the depth map was called at
    bare.globals.bind("xs", tuple(range(2 * MAX_DEPTH)))
    assert run(bare, "(count (map (lambda (n) (inc (inc n))) xs))") == 2 * MAX_DEPTH
    assert run(bare, "(count (filter (lambda (n) (< (inc n) 5)) xs))") == 4


def test_closure_sees_a_builtin_rebound_after_it_was_made():
    src = "(define f (lambda (x) (inc x)))\n(f 1)\n(define inc (lambda (x) (* x 10)))\n(f 1)"
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src) == (["2", "10"], None)


# --- late-bound globals, memoised dates, tail-call errors -----------------------


def test_global_defined_after_the_closure_resolves_when_called(bare):
    bare.eval_text("(define f (lambda (x) (+ x later)))")
    with pytest.raises(KispRuntimeError, match="unbound reference 'later'") as exc:
        bare.eval_text("(f 1)")
    assert (exc.value.line, exc.value.col) == (1, 28)  # the reference itself
    bare.eval_text("(define later 41)")
    assert bare.eval_text("(f 1)") == 42


def test_bad_date_in_a_filter_fails_on_every_run(interp):
    src = "(count (filter (lambda (p) (before (date '31.02.1900') now)) people))"
    for _ in range(2):  # a bad literal is never remembered as parsed
        with pytest.raises(KispRuntimeError, match="bad date literal '31.02.1900'") as exc:
            interp.eval_text(src)
        assert (exc.value.line, exc.value.col) == (1, 36)
    assert interp.eval_text(src.replace("31.02", "28.02")) == 8


def test_arity_error_of_a_closure_called_in_tail_position(bare):
    src = "(define f (lambda (x) x))\n(define g (lambda (y) (if true (f y y) 0)))\n(g 1)"
    with pytest.raises(KispRuntimeError) as exc:
        bare.eval_text(src)
    assert exc.value.message == "function expects 1 argument(s), got 2"
    assert (exc.value.line, exc.value.col) == (2, 32)


# --- pure builtins folded on literals, filter/map through one caller ----------------


def _count_calls(interp, name):
    """Rebind builtin ``name`` to a new ``Builtin`` of the same name that
    records each call, the way a tracer wraps the builtins."""
    builtin = interp.globals.bindings[name]
    calls = []

    def fn(i, args, node):
        calls.append(tuple(args))
        return builtin.fn(i, args, node)

    interp.globals.bind(name, Builtin(builtin.name, builtin.min_args, builtin.max_args, fn))
    return calls


def test_pure_builtin_on_literals_runs_once_per_binding(interp):
    calls = _count_calls(interp, "date")
    interp.eval_text("(define young (lambda (p) (after (attr p 'birthdate') (date '01.01.1965'))))")
    for _ in range(2):  # once for all eight persons, and kept across terms
        assert run(interp, "(count (filter young people))") == 5
        assert calls == [("01.01.1965",)]
    interp.eval_text("(define real-date date)\n(define date (lambda (t) (real-date '01.01.1990')))")
    assert run(interp, "(count (filter young people))") == 3  # the next call sees it
    assert calls[1:] == [("01.01.1990",)]  # the literal in the new closure, once
    interp.eval_text("(define date real-date)")
    assert run(interp, "(count (filter young people))") == 5
    assert len(calls) == 2  # the same builtin again: its kept value


def test_pure_name_rebound_to_another_builtin():
    src = ("(define date +)\n(define f (lambda () (list (date 2 5) (inc 1))))\n(f)\n"
           "(define date *)\n(f)\n(define inc -)\n(f)")
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)
    assert got[0] == ["(7 2)", "(10 2)"]
    assert got[1][1:] == ("'-' expects 2 argument(s), got 1", 2, 39)


def test_redefined_builtins_reach_closures_made_before():
    src = ("(define f (lambda () (list (+ 1 2) (= 1 1) (date '01.01.1900'))))\n(f)\n"
           "(define + (lambda (a b) (* a b)))\n(define = (lambda (a b) false))\n"
           "(define date (lambda (t) t))\n(f)")
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)
    assert got == (["(3 true 01.01.1900)", "(2 false '01.01.1900')"], None)


def test_redefined_list_builtins_reach_closures_made_before(smith_tree):
    src = ("(define sexes (lambda () (map (lambda (p) (attr p 'sex')) people)))\n"
           "(define men (lambda () (count (filter (lambda (s) (= s 'MALE')) (sexes)))))\n"
           "(men)\n(define attr (lambda (p k) 'MALE'))\n(men)\n"
           "(define map (lambda (f xs) (list (f 1))))\n(men)\n"
           "(define filter (lambda (f xs) vacant))\n(men)")
    timeline = Timeline(parse_date("01.01.2000"))
    got = helpers.run_kisp(Interpreter(smith_tree, timeline), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(smith_tree, timeline), src)
    assert got == (["5", "8", "1", "0"], None)


def test_filter_and_map_with_a_builtin(bare):
    assert run(bare, "(map inc (list 1 2 3))") == (2, 3, 4)
    assert run(bare, "(filter not (list true false true))") == (False,)
    assert run(bare, "(map count (list vacant (list 1 2)))") == (0, 2)
    with pytest.raises(KispRuntimeError, match="'[+]' expects at least 2 argument"):
        run(bare, "(map + (list 1))")


@pytest.mark.parametrize(
    "src",
    [
        "(filter (lambda () true) (list 1 2))",
        "(filter 5 vacant)",
        "(map 5 (list 1))",
        "(filter (lambda (x) x) (list true 1 (boom)))",
        "(filter (lambda (x) (< x 2)) (list 1 2 3 'a'))",
    ],
)
def test_filter_and_map_errors_match_reference(src):
    got = helpers.run_kisp(Interpreter(), src)
    assert got == helpers.run_kisp(helpers.ReferenceInterpreter(), src)


def test_arity_error_of_a_closure_given_to_map_is_unchanged(bare):
    with pytest.raises(KispRuntimeError) as exc:
        run(bare, "(+ 1 (count (map (lambda (x y) x) (list 1 2))))")
    assert exc.value.message == "function expects 2 argument(s), got 1"
    assert (exc.value.line, exc.value.col) == (1, 13)
    assert run(bare, "(map (lambda (x y) x) vacant)") == ()  # never applied


def test_filter_and_map_run_a_closure_that_makes_tail_calls(bare):
    bare.eval_text("(define down (lambda (n) (if (= n 0) 0 (down (- n 1)))))")
    assert run(bare, "(map (lambda (n) (down n)) (list 5 5000))") == (0, 0)
    assert run(bare, "(map down (list 3 4000))") == (0, 0)
    assert run(bare, "(filter (lambda (n) (if (< n 2) true (= (down n) 1))) (list 1 7))") == (1,)


def test_filter_and_map_apply_a_reference_closure_through_apply():
    # the reference checks and applies per item with its own apply, errors
    # too, so the differential tests compare two implementations of them
    class Counting(helpers.ReferenceInterpreter):
        applied = 0

        def apply(self, fn, args, node):
            self.applied += 1
            return super().apply(fn, args, node)

    ref = Counting()
    assert ref.eval_text("(map (lambda (x) (inc x)) (list 1 2 3))") == (2, 3, 4)
    assert ref.eval_text("(filter (lambda (x) (< x 2)) (list 1 2 3))") == (1,)
    assert ref.applied == 6
    for src in ("(map 5 (list 1))", "(filter (lambda () true) (list 1))", "(map + (list 1))"):
        with pytest.raises(KispRuntimeError):
            ref.eval_text(src)
    assert ref.applied == 9


def test_attr_errors_in_order(interp):
    bare = Interpreter()
    bare.globals.bind("ghost", PersonRef("ghost"))
    with pytest.raises(KispRuntimeError, match="no family tree loaded"):
        bare.eval_text("(attr ghost 'shoe-size')")
    interp.globals.bind("ghost", PersonRef("ghost"))
    with pytest.raises(KispRuntimeError, match="unknown person 'ghost'"):
        interp.eval_text("(attr ghost 'shoe-size')")
    with pytest.raises(KispRuntimeError, match="unknown attribute 'shoe-size'"):
        interp.eval_text("(attr ego 'shoe-size')")
    with pytest.raises(KispRuntimeError, match="'attr' expects a string, got numeral"):
        interp.eval_text("(attr ghost 1)")


# --- the nesting limit -------------------------------------------------------------


def _in_deep_stack(frames, fn):
    return fn() if frames == 0 else _in_deep_stack(frames - 1, fn)


def _parse_error(src):
    with pytest.raises(KispParseError, match="nested too deeply") as exc:
        parse_program(src)
    return exc.value.line, exc.value.col


def test_nesting_limit_is_a_property_of_the_text():
    src = "(+ 1 " * 5000 + "0" + ")" * 5000
    position = (1, 5 * MAX_NESTING + 1)  # the first '(' past the limit
    assert _parse_error(src) == position
    assert _in_deep_stack(300, lambda: _parse_error(src)) == position


@pytest.mark.parametrize("shape", ["(+ 1 {})", "(lambda (x) {})", "(if true {} 2)"])
def test_text_at_the_nesting_limit_parses_and_evaluates(shape):
    src = "0"
    for _ in range(MAX_NESTING):
        src = shape.format(src)
    bare = Interpreter()

    def evaluate():
        (node,) = parse_program(src)
        return bare.eval_top(node)

    want = MAX_NESTING if shape.startswith("(+") else None
    for result in (evaluate(), _in_deep_stack(300, evaluate)):
        assert want is None or result == want
