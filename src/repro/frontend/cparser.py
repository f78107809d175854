"""Recursive-descent parser for a substantial C subset.

Accepts the C that real pointer-heavy translation units are made of:

- full declarator syntax (pointers, arrays, function pointers, nested
  parens), multi-declarator declarations, typedefs (with the classic
  lexer-hack typedef-name tracking), struct/union/enum (incl. recursive
  structs and forward tags), brace initialisers, string literals;
- all C89 statements: compound, if/else, while, do-while, for (with C99
  declarations), switch/case/default, break/continue, return, goto and
  labels;
- the full expression grammar with correct precedence, casts, sizeof,
  pointer arithmetic, compound assignment, pre/post inc/dec, the
  conditional and comma operators.

Not supported (diagnosed, not silently ignored): designated and compound
literals, K&R function definitions, bit-fields, ``_Generic``, VLAs.

Types are resolved eagerly to :mod:`repro.ir.types` objects; semantic
checks on expressions happen later in :mod:`repro.frontend.sema`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Callable

from ..ir import types as ty
from . import ast_nodes as ast
from .lexer import Token, tokenize


class ParseError(SyntaxError):
    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}:{token.col}: {message}")
        self.detail = message
        self.token = token

    def __reduce__(self):
        # Pool workers send errors back pickled: rebuild through the
        # constructor, then restore attributes such as ``source_name``.
        return (type(self), (self.detail, self.token), self.__dict__)


TYPE_SPECIFIER_KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "_Bool", "struct", "union", "enum",
}
STORAGE_KEYWORDS = {"typedef", "extern", "static", "auto", "register"}
QUALIFIER_KEYWORDS = {"const", "volatile", "restrict", "inline"}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, source: str, name: str = "<source>"):
        self.tokens = tokenize(source, name)
        self.pos = 0
        self.name = name
        # Scoped typedef names (the lexer hack) and enum constants.
        self.typedef_scopes: List[Dict[str, ty.Type]] = [{}]
        self.enum_constants: Dict[str, int] = {}
        # Tag tables (single translation-unit scope).
        self.struct_tags: Dict[Tuple[str, bool], ty.StructType] = {}
        self.enum_tags: Dict[str, ty.Type] = {}
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("punct", "keyword")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.peek().text!r}", self.peek())
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek())

    # ------------------------------------------------------------------
    # Typedef scoping
    # ------------------------------------------------------------------

    def push_scope(self) -> None:
        self.typedef_scopes.append({})

    def pop_scope(self) -> None:
        self.typedef_scopes.pop()

    def define_typedef(self, name: str, type_: ty.Type) -> None:
        self.typedef_scopes[-1][name] = type_

    def lookup_typedef(self, name: str) -> Optional[ty.Type]:
        for scope in reversed(self.typedef_scopes):
            if name in scope:
                return scope[name]
        return None

    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind == "keyword" and (
            tok.text in TYPE_SPECIFIER_KEYWORDS
            or tok.text in QUALIFIER_KEYWORDS
            or tok.text in STORAGE_KEYWORDS
        ):
            return True
        return tok.kind == "id" and self.lookup_typedef(tok.text) is not None

    # ------------------------------------------------------------------
    # Translation unit
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(name=self.name)
        while self.peek().kind != "eof":
            if self.accept(";"):
                continue  # stray semicolon
            unit.items.append(self._external_declaration())
        return unit

    def _external_declaration(self):
        line = self.peek().line
        storage, base = self._declaration_specifiers()
        if self.at(";"):
            # Bare struct/union/enum declaration.
            self.next()
            return ast.Declaration([], storage, line)
        name, dtype, params = self._declarator(base)
        if self.at("{"):
            if not isinstance(dtype, ty.FunctionType):
                raise self.error("unexpected '{' after non-function declarator")
            if storage == "typedef":
                raise self.error("typedef cannot have a function body")
            return self._function_definition(name, dtype, params or [], storage, line)
        declarators = [self._finish_declarator(name, dtype, storage, line)]
        while self.accept(","):
            name, dtype, _ = self._declarator(base)
            declarators.append(self._finish_declarator(name, dtype, storage, line))
        self.expect(";")
        return ast.Declaration(declarators, storage, line)

    def _finish_declarator(
        self, name: str, dtype: ty.Type, storage: Optional[str], line: int
    ) -> ast.Declarator:
        if not name:
            raise self.error("declarator requires a name")
        init: Optional[ast.InitItem] = None
        if self.accept("="):
            if storage == "typedef":
                raise self.error("typedef cannot be initialised")
            init = self._initializer()
        if storage == "typedef":
            self.define_typedef(name, dtype)
        return ast.Declarator(name, dtype, init, line)

    def _function_definition(
        self,
        name: str,
        ftype: ty.FunctionType,
        params: List[ast.ParamDecl],
        storage: Optional[str],
        line: int,
    ) -> ast.FunctionDef:
        self.push_scope()
        body = self._compound_statement()
        self.pop_scope()
        return ast.FunctionDef(name, ftype, params, body, storage, line)

    # ------------------------------------------------------------------
    # Declaration specifiers
    # ------------------------------------------------------------------

    def _declaration_specifiers(self) -> Tuple[Optional[str], ty.Type]:
        storage: Optional[str] = None
        specifiers: List[str] = []
        resolved: Optional[ty.Type] = None
        while True:
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in STORAGE_KEYWORDS:
                self.next()
                if tok.text in ("auto", "register"):
                    continue  # irrelevant for our IR
                if storage is not None and storage != tok.text:
                    raise self.error("conflicting storage classes")
                storage = tok.text
            elif tok.kind == "keyword" and tok.text in QUALIFIER_KEYWORDS:
                self.next()  # const/volatile/restrict/inline: dropped
            elif tok.kind == "keyword" and tok.text in ("struct", "union"):
                resolved = self._struct_or_union_specifier()
            elif tok.kind == "keyword" and tok.text == "enum":
                resolved = self._enum_specifier()
            elif tok.kind == "keyword" and tok.text in TYPE_SPECIFIER_KEYWORDS:
                self.next()
                specifiers.append(tok.text)
            elif (
                tok.kind == "id"
                and resolved is None
                and not specifiers
                and self.lookup_typedef(tok.text) is not None
            ):
                self.next()
                resolved = self.lookup_typedef(tok.text)
            else:
                break
        if resolved is not None:
            if specifiers:
                raise self.error("conflicting type specifiers")
            return storage, resolved
        if not specifiers:
            raise self.error("expected type specifier")
        return storage, _combine_specifiers(specifiers, self)

    def _struct_or_union_specifier(self) -> ty.StructType:
        kw = self.next().text  # struct | union
        is_union = kw == "union"
        tag: Optional[str] = None
        if self.peek().kind == "id":
            tag = self.next().text
        if self.at("{"):
            if tag is None:
                self._anon_counter += 1
                struct = ty.StructType(None, (), is_union, complete=False)
            else:
                struct = self.struct_tags.get((tag, is_union))
                if struct is None:
                    struct = ty.StructType(tag, (), is_union, complete=False)
                    self.struct_tags[(tag, is_union)] = struct
                elif struct.complete:
                    raise self.error(f"redefinition of {kw} {tag}")
            self.next()  # '{'
            struct.define(tuple(self._struct_fields()))
            self.expect("}")
            return struct
        if tag is None:
            raise self.error(f"expected tag or body after {kw!r}")
        struct = self.struct_tags.get((tag, is_union))
        if struct is None:
            struct = ty.StructType(tag, (), is_union, complete=False)
            self.struct_tags[(tag, is_union)] = struct
        return struct

    def _struct_fields(self) -> List[Tuple[str, ty.Type]]:
        fields: List[Tuple[str, ty.Type]] = []
        while not self.at("}"):
            _, base = self._declaration_specifiers()
            if self.at(";"):  # anonymous struct/union member
                self.next()
                if isinstance(base, ty.StructType):
                    fields.extend(base.fields)
                continue
            while True:
                name, dtype, _ = self._declarator(base)
                if self.accept(":"):
                    raise self.error("bit-fields are not supported")
                fields.append((name, dtype))
                if not self.accept(","):
                    break
            self.expect(";")
        return fields

    def _enum_specifier(self) -> ty.Type:
        self.next()  # 'enum'
        tag: Optional[str] = None
        if self.peek().kind == "id":
            tag = self.next().text
        if self.at("{"):
            self.next()
            value = 0
            while not self.at("}"):
                name_tok = self.next()
                if name_tok.kind != "id":
                    raise self.error("expected enumerator name")
                if self.accept("="):
                    value = self._constant_expression()
                self.enum_constants[name_tok.text] = value
                value += 1
                if not self.accept(","):
                    break
            self.expect("}")
            if tag is not None:
                self.enum_tags[tag] = ty.I32
            return ty.I32
        if tag is None:
            raise self.error("expected tag or body after 'enum'")
        return self.enum_tags.get(tag, ty.I32)

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def _declarator(
        self, base: ty.Type, abstract: bool = False
    ) -> Tuple[str, ty.Type, Optional[List[ast.ParamDecl]]]:
        """Parse a (possibly abstract) declarator applied to ``base``.

        Returns (name, full type, parameter list if outermost suffix is a
        function).
        """
        # Pointers bind to the base type.
        while self.accept("*"):
            while self.peek().kind == "keyword" and self.peek().text in QUALIFIER_KEYWORDS:
                self.next()
            base = ty.ptr(base)
        name = ""
        inner: Optional[Callable[[ty.Type], Tuple[str, ty.Type, Optional[List[ast.ParamDecl]]]]] = None
        params: Optional[List[ast.ParamDecl]] = None
        if self.at("(") and self._paren_is_declarator(abstract):
            self.next()
            saved = self.pos
            # Parse the inner declarator later, once suffixes are known.
            depth = 1
            while depth:
                tok = self.next()
                if tok.kind == "eof":
                    raise self.error("unterminated declarator")
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1

            def parse_inner(t: ty.Type):
                outer = self.pos
                self.pos = saved
                result = self._declarator(t, abstract)
                self.expect(")")
                self.pos = outer
                return result

            inner = parse_inner
        elif self.peek().kind == "id" and not abstract:
            name = self.next().text
        elif abstract:
            if self.peek().kind == "id" and self.lookup_typedef(self.peek().text) is None:
                name = self.next().text  # named param in prototype

        # Suffixes: arrays and parameter lists (innermost binds last).
        suffixes: List[Tuple[str, object]] = []
        while True:
            if self.at("["):
                self.next()
                if self.at("]"):
                    size = 0  # incomplete array: treated as size-0 / decays
                else:
                    size = self._constant_expression()
                self.expect("]")
                suffixes.append(("array", size))
            elif self.at("("):
                self.next()
                plist, variadic = self._parameter_list()
                suffixes.append(("func", (plist, variadic)))
            else:
                break

        # Apply suffixes right-to-left onto the base type.
        result = base
        for kind, payload in reversed(suffixes):
            if kind == "array":
                result = ty.ArrayType(result, int(payload))  # type: ignore[arg-type]
            else:
                plist, variadic = payload  # type: ignore[misc]
                result = ty.FunctionType(
                    result, tuple(p.ctype for p in plist), variadic
                )
        if suffixes and suffixes[0][0] == "func":
            params = suffixes[0][1][0]  # type: ignore[index]

        if inner is not None:
            return inner(result)
        return name, result, params

    def _paren_is_declarator(self, abstract: bool) -> bool:
        """Disambiguate ``(`` in a declarator: grouping vs parameters."""
        nxt = self.peek(1)
        if nxt.text == "*" or nxt.text == "(":
            return True
        if nxt.kind == "id" and self.lookup_typedef(nxt.text) is None:
            return not abstract or self.peek(2).text not in (",", ")")
        return False

    def _parameter_list(self) -> Tuple[List[ast.ParamDecl], bool]:
        params: List[ast.ParamDecl] = []
        variadic = False
        if self.at(")"):
            self.next()
            return params, True  # () means unspecified: treat as variadic
        if self.peek().text == "void" and self.peek(1).text == ")":
            self.next()
            self.next()
            return params, False
        while True:
            if self.at("..."):
                self.next()
                variadic = True
                break
            line = self.peek().line
            _, base = self._declaration_specifiers()
            name, dtype, _ = self._declarator(base, abstract=True)
            dtype = _decay_param_type(dtype)
            params.append(ast.ParamDecl(name or None, dtype, line))
            if not self.accept(","):
                break
        self.expect(")")
        return params, variadic

    # ------------------------------------------------------------------
    # Initialisers
    # ------------------------------------------------------------------

    def _initializer(self) -> ast.InitItem:
        line = self.peek().line
        if self.at("{"):
            self.next()
            items: List[ast.InitItem] = []
            while not self.at("}"):
                if self.at(".") or self.at("["):
                    raise self.error("designated initialisers are not supported")
                items.append(self._initializer())
                if not self.accept(","):
                    break
            self.expect("}")
            return ast.InitItem(items=items, line=line)
        return ast.InitItem(expr=self._assignment_expression(), line=line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compound_statement(self) -> ast.Compound:
        line = self.expect("{").line
        self.push_scope()
        items: List = []
        while not self.at("}"):
            items.append(self._block_item())
        self.expect("}")
        self.pop_scope()
        return ast.Compound(items, line)

    def _block_item(self):
        tok = self.peek()
        if self._is_type_start(tok) and not (
            tok.kind == "id" and self.peek(1).text == ":"
        ):
            return self._local_declaration()
        return self._statement()

    def _local_declaration(self) -> ast.Declaration:
        line = self.peek().line
        storage, base = self._declaration_specifiers()
        if self.at(";"):
            self.next()
            return ast.Declaration([], storage, line)
        declarators: List[ast.Declarator] = []
        while True:
            name, dtype, _ = self._declarator(base)
            declarators.append(self._finish_declarator(name, dtype, storage, line))
            if not self.accept(","):
                break
        self.expect(";")
        return ast.Declaration(declarators, storage, line)

    def _statement(self) -> ast.Stmt:
        tok = self.peek()
        line = tok.line
        if self.at("{"):
            return self._compound_statement()
        if self.accept(";"):
            return ast.ExprStmt(None, line)
        if tok.kind == "keyword":
            handler = {
                "if": self._if_statement,
                "while": self._while_statement,
                "do": self._do_statement,
                "for": self._for_statement,
                "return": self._return_statement,
                "switch": self._switch_statement,
                "break": self._break_statement,
                "continue": self._continue_statement,
                "goto": self._goto_statement,
            }.get(tok.text)
            if handler is not None:
                return handler()
            if tok.text == "case":
                self.next()
                value = self._constant_expression()
                self.expect(":")
                return ast.Case(ast.IntLiteral(value, line), self._statement(), line)
            if tok.text == "default":
                self.next()
                self.expect(":")
                return ast.Default(self._statement(), line)
        if tok.kind == "id" and self.peek(1).text == ":":
            self.next()
            self.next()
            return ast.Label(tok.text, self._statement(), line)
        expr = self._expression()
        self.expect(";")
        return ast.ExprStmt(expr, line)

    def _if_statement(self) -> ast.If:
        line = self.expect("if").line
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        then = self._statement()
        otherwise = self._statement() if self.accept("else") else None
        return ast.If(cond, then, otherwise, line)

    def _while_statement(self) -> ast.While:
        line = self.expect("while").line
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        return ast.While(cond, self._statement(), line)

    def _do_statement(self) -> ast.DoWhile:
        line = self.expect("do").line
        body = self._statement()
        self.expect("while")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        self.expect(";")
        return ast.DoWhile(body, cond, line)

    def _for_statement(self) -> ast.For:
        line = self.expect("for").line
        self.expect("(")
        self.push_scope()
        init = None
        if not self.at(";"):
            if self._is_type_start(self.peek()):
                init = self._local_declaration()
            else:
                init = self._expression()
                self.expect(";")
        else:
            self.next()
        cond = None if self.at(";") else self._expression()
        self.expect(";")
        step = None if self.at(")") else self._expression()
        self.expect(")")
        body = self._statement()
        self.pop_scope()
        return ast.For(init, cond, step, body, line)

    def _return_statement(self) -> ast.Return:
        line = self.expect("return").line
        value = None if self.at(";") else self._expression()
        self.expect(";")
        return ast.Return(value, line)

    def _switch_statement(self) -> ast.Switch:
        line = self.expect("switch").line
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        return ast.Switch(cond, self._statement(), line)

    def _break_statement(self) -> ast.Break:
        line = self.expect("break").line
        self.expect(";")
        return ast.Break(line)

    def _continue_statement(self) -> ast.Continue:
        line = self.expect("continue").line
        self.expect(";")
        return ast.Continue(line)

    def _goto_statement(self) -> ast.Goto:
        line = self.expect("goto").line
        label = self.next()
        if label.kind != "id":
            raise self.error("expected label after goto")
        self.expect(";")
        return ast.Goto(label.text, line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expression(self) -> ast.Expr:
        expr = self._assignment_expression()
        while self.at(","):
            line = self.next().line
            expr = ast.Comma(expr, self._assignment_expression(), line)
        return expr

    def _assignment_expression(self) -> ast.Expr:
        lhs = self._conditional_expression()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ASSIGN_OPS:
            self.next()
            rhs = self._assignment_expression()
            return ast.Assignment(tok.text, lhs, rhs, tok.line)
        return lhs

    def _conditional_expression(self) -> ast.Expr:
        cond = self._binary_expression(0)
        if self.at("?"):
            line = self.next().line
            if_true = self._expression()
            self.expect(":")
            if_false = self._conditional_expression()
            return ast.Conditional(cond, if_true, if_false, line)
        return cond

    _BINARY_LEVELS = [
        ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
        ["<", ">", "<=", ">="], ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def _binary_expression(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._cast_expression()
        lhs = self._binary_expression(level + 1)
        while True:
            tok = self.peek()
            if tok.kind != "punct" or tok.text not in self._BINARY_LEVELS[level]:
                return lhs
            self.next()
            rhs = self._binary_expression(level + 1)
            lhs = ast.Binary(tok.text, lhs, rhs, tok.line)

    def _cast_expression(self) -> ast.Expr:
        if self.at("(") and self._is_type_start(self.peek(1)):
            line = self.next().line
            tname = self._type_name()
            self.expect(")")
            # Could still be a compound literal, which we reject.
            if self.at("{"):
                raise self.error("compound literals are not supported")
            return ast.Cast(tname, self._cast_expression(), line)
        return self._unary_expression()

    def _type_name(self) -> ast.TypeName:
        line = self.peek().line
        storage, base = self._declaration_specifiers()
        if storage is not None:
            raise self.error("storage class in type name")
        _, dtype, _ = self._declarator(base, abstract=True)
        return ast.TypeName(dtype, line)

    def _unary_expression(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("&", "*", "+", "-", "~", "!"):
            self.next()
            return ast.Unary(tok.text, self._cast_expression(), tok.line)
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self.next()
            return ast.Unary(tok.text, self._unary_expression(), tok.line)
        if tok.kind == "keyword" and tok.text == "sizeof":
            self.next()
            if self.at("(") and self._is_type_start(self.peek(1)):
                self.next()
                tname = self._type_name()
                self.expect(")")
                return ast.SizeofType(tname, tok.line)
            return ast.SizeofExpr(self._unary_expression(), tok.line)
        return self._postfix_expression()

    def _postfix_expression(self) -> ast.Expr:
        expr = self._primary_expression()
        while True:
            tok = self.peek()
            if self.at("["):
                self.next()
                index = self._expression()
                self.expect("]")
                expr = ast.Index(expr, index, tok.line)
            elif self.at("("):
                self.next()
                args: List[ast.Expr] = []
                while not self.at(")"):
                    args.append(self._assignment_expression())
                    if not self.accept(","):
                        break
                self.expect(")")
                expr = ast.CallExpr(expr, args, tok.line)
            elif self.at("."):
                self.next()
                name = self.next()
                expr = ast.Member(expr, name.text, False, tok.line)
            elif self.at("->"):
                self.next()
                name = self.next()
                expr = ast.Member(expr, name.text, True, tok.line)
            elif self.at("++"):
                self.next()
                expr = ast.Unary("p++", expr, tok.line)
            elif self.at("--"):
                self.next()
                expr = ast.Unary("p--", expr, tok.line)
            else:
                return expr

    def _primary_expression(self) -> ast.Expr:
        tok = self.next()
        if tok.kind == "id":
            if tok.text in self.enum_constants:
                return ast.IntLiteral(self.enum_constants[tok.text], tok.line)
            return ast.Identifier(tok.text, tok.line)
        if tok.kind == "int":
            return ast.IntLiteral(int(tok.value), tok.line)  # type: ignore[arg-type]
        if tok.kind == "float":
            return ast.FloatLiteral(float(tok.value), tok.line)  # type: ignore[arg-type]
        if tok.kind == "char":
            return ast.CharLiteral(int(tok.value), tok.line)  # type: ignore[arg-type]
        if tok.kind == "string":
            return ast.StringLiteral(str(tok.value), tok.line)
        if tok.text == "(":
            expr = self._expression()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok)

    # ------------------------------------------------------------------
    # Constant expressions (array sizes, enum values, case labels)
    # ------------------------------------------------------------------

    def _constant_expression(self) -> int:
        expr = self._conditional_expression()
        return self._const_eval(expr)

    def _const_eval(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.CharLiteral):
            return expr.value
        if isinstance(expr, ast.SizeofType):
            return expr.target_type.ctype.sizeof()
        if isinstance(expr, ast.Unary):
            v = self._const_eval(expr.operand)
            return {
                "-": -v, "+": v, "~": ~v, "!": int(not v)
            }[expr.op]
        if isinstance(expr, ast.Binary):
            a = self._const_eval(expr.lhs)
            b = self._const_eval(expr.rhs)
            ops = {
                "+": a + b, "-": a - b, "*": a * b,
                "/": a // b if b else 0, "%": a % b if b else 0,
                "<<": a << b, ">>": a >> b, "&": a & b, "|": a | b,
                "^": a ^ b, "==": int(a == b), "!=": int(a != b),
                "<": int(a < b), ">": int(a > b), "<=": int(a <= b),
                ">=": int(a >= b), "&&": int(bool(a) and bool(b)),
                "||": int(bool(a) or bool(b)),
            }
            return ops[expr.op]
        if isinstance(expr, ast.Conditional):
            return (
                self._const_eval(expr.if_true)
                if self._const_eval(expr.cond)
                else self._const_eval(expr.if_false)
            )
        if isinstance(expr, ast.Cast):
            return self._const_eval(expr.operand)
        raise ParseError("expression is not a compile-time constant", self.peek())


def _combine_specifiers(specifiers: List[str], parser: Parser) -> ty.Type:
    """Map a multiset of type-specifier keywords to an IR type."""
    spec = sorted(specifiers)
    counts = {s: spec.count(s) for s in set(spec)}
    unsigned = counts.pop("unsigned", 0) > 0
    signed_kw = counts.pop("signed", 0) > 0
    if unsigned and signed_kw:
        raise parser.error("both signed and unsigned")
    longs = counts.pop("long", 0)
    base = [s for s in spec if s not in ("unsigned", "signed", "long")]
    key = tuple(sorted(base))
    if key == ("void",):
        return ty.VOID
    if key == ("_Bool",):
        return ty.BOOL
    if key == ("char",):
        return ty.U8 if unsigned else ty.I8
    if key in ((), ("int",)):
        if longs >= 1:
            return ty.U64 if unsigned else ty.I64  # LP64: long == 64 bit
        return ty.U32 if unsigned else ty.I32
    if key == ("int", "short") or key == ("short",):
        return ty.U16 if unsigned else ty.I16
    if key == ("float",):
        return ty.F32
    if key == ("double",):
        return ty.F64
    raise parser.error(f"unsupported type specifier combination {specifiers}")


def _decay_param_type(dtype: ty.Type) -> ty.Type:
    """Array and function parameters decay to pointers (C §6.7.6.3)."""
    if isinstance(dtype, ty.ArrayType):
        return ty.ptr(dtype.element)
    if isinstance(dtype, ty.FunctionType):
        return ty.ptr(dtype)
    return dtype


def parse(source: str, name: str = "<source>") -> ast.TranslationUnit:
    """Parse a preprocessed C translation unit."""
    return Parser(source, name).parse_translation_unit()
