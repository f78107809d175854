"""Frontend errors cross process boundaries and name their file."""

import pickle

import pytest

from repro.frontend import (
    FRONTEND_ERRORS,
    ConstraintTextError,
    LexError,
    LowerError,
    ParseError,
    PreprocessorError,
    SemaError,
    Token,
    compile_c,
    describe_error,
    error_line,
    name_source,
)
from repro.pipeline import Pipeline

#: one instance per class, each pointing at line 2
ERRORS = {
    "PreprocessorError": lambda: PreprocessorError("x.c:2: unterminated #if"),
    "LexError": lambda: LexError("stray '@'", 2, 5),
    "ParseError": lambda: ParseError(
        "unexpected token ';'", Token("punct", ";", 2, 7)
    ),
    "SemaError": lambda: SemaError("undeclared name 'y'", 2),
    "LowerError": lambda: LowerError("cannot lower", 2),
    "ConstraintTextError": lambda: ConstraintTextError("bad line", 2, "x.lir"),
}


def test_every_frontend_error_class_is_covered():
    assert {type(make()) for make in ERRORS.values()} == set(FRONTEND_ERRORS)


@pytest.mark.parametrize("kind", sorted(ERRORS))
def test_pickle_round_trip(kind):
    exc = ERRORS[kind]()
    name_source(exc, "x.c")
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert str(clone) == str(exc)
    assert error_line(clone) == error_line(exc) == (
        0 if kind == "PreprocessorError" else 2
    )
    assert clone.source_name == exc.source_name
    assert describe_error(clone) == describe_error(exc)


def test_name_source_keeps_an_existing_name():
    exc = ConstraintTextError("bad line", 2, "x.lir")
    name_source(exc, "other.lir")
    assert exc.source_name == "x.lir"


BAD = "int f(void) { return 1 +; }\n"


def test_compile_c_names_its_errors():
    with pytest.raises(ParseError) as info:
        compile_c(BAD, "bad.c")
    assert describe_error(info.value) == "bad.c:1: unexpected token ';'"


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.c", BAD),
        ("sema.c", "int f(void) { return undeclared_name; }\n"),
        ("bad.lir", "this is not constraint text\n"),
    ],
)
def test_pipeline_members_name_their_errors(name, text):
    pipeline = Pipeline()
    with pytest.raises(FRONTEND_ERRORS) as info:
        pipeline.member(pipeline.source(name, text))
    assert describe_error(info.value).startswith(f"{name}:1: ")
