"""C frontend: preprocessor → lexer → parser → sema → IR lowering.

The one-call entry point::

    from repro.frontend import compile_c
    module = compile_c(source_text, name="file.c")

mirrors the paper's pipeline (clang -O0 → LLVM IR → jlm/RVSDG) with our
own substrate; `module` is a :class:`repro.ir.Module` ready for
:func:`repro.analysis.analyze_module`.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from ..ir.module import Module
from ..ir.verifier import compute_address_taken, verify_module
from . import ast_nodes
from .cparser import ParseError, Parser, parse
from .lexer import LexError, Token, tokenize
from .lower import LowerError, lower
from .preproc import Preprocessor, PreprocessorError, preprocess
from .sema import Sema, SemaError, SemaResult, analyse


def compile_c(
    source: str,
    name: str = "module",
    headers: Optional[Dict[str, str]] = None,
    predefined: Optional[Dict[str, str]] = None,
    verify: bool = True,
) -> Module:
    """Compile one C translation unit to IR.

    ``headers`` maps include names to their text (no filesystem access);
    ``predefined`` seeds object-like macros.  The produced module is
    verified and annotated with address-taken facts for BasicAA.
    Frontend errors carry ``name`` as their ``source_name``.
    """
    try:
        text = preprocess(source, headers, predefined, filename=name)
        unit = parse(text, name)
        module = lower(analyse(unit), name)
    except FRONTEND_ERRORS as exc:
        name_source(exc, name)
        raise
    if verify:
        verify_module(module)
    compute_address_taken(module)
    return module


from ..interchange.errors import ConstraintTextError

#: every exception a frontend raises on bad source text — C phases plus
#: the constraint-text interchange parser — for callers that need
#: "diagnose, don't crash" behaviour (the CLI, the analysis server);
#: they catch exactly this tuple
FRONTEND_ERRORS = (
    PreprocessorError,
    LexError,
    ParseError,
    SemaError,
    LowerError,
    ConstraintTextError,
)


def name_source(exc: BaseException, source_name: str) -> None:
    """Attach ``source_name`` to a frontend error that does not name its
    file yet.  The parser and sema know only line numbers; whoever knows
    the file name calls this, so diagnostics read ``file:line``."""
    if not getattr(exc, "source_name", None):
        exc.source_name = source_name


_LINE_PREFIX = re.compile(r"^line \d+(?::\d+)?: ")


def error_line(exc: BaseException) -> int:
    """The source line an error points at (0 when unknown)."""
    token = getattr(exc, "token", None)
    if token is not None:
        return int(token.line)
    return int(getattr(exc, "line", 0) or 0)


def describe_error(exc: BaseException, source_name: str = "") -> str:
    """One-line ``file:line: message`` diagnostic for a frontend error.

    ``source_name`` (or an attached ``exc.source_name``) names the file;
    preprocessor messages already carry ``file:line`` and pass through
    unchanged.
    """
    message = str(exc)
    if isinstance(exc, PreprocessorError):
        return message
    name = source_name or getattr(exc, "source_name", "") or "<source>"
    line = error_line(exc)
    message = _LINE_PREFIX.sub("", message)
    return f"{name}:{line}: {message}" if line else f"{name}: {message}"


__all__ = [
    "compile_c",
    "preprocess",
    "Preprocessor",
    "PreprocessorError",
    "tokenize",
    "Token",
    "LexError",
    "parse",
    "Parser",
    "ParseError",
    "analyse",
    "Sema",
    "SemaResult",
    "SemaError",
    "lower",
    "LowerError",
    "ast_nodes",
    "ConstraintTextError",
    "FRONTEND_ERRORS",
    "describe_error",
    "error_line",
    "name_source",
]
