"""C lexer.

Tokenises a C translation unit (after preprocessing) into a stream of
:class:`Token`.  Covers the full C89 operator/punctuation set plus the
C99/C11 keywords the parser understands.  Comments are handled here so
the preprocessor can stay line-oriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool",
}

# Longest-match-first punctuation table.
PUNCTUATION = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass
class Token:
    kind: str  # 'id', 'keyword', 'int', 'float', 'char', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int
    #: decoded value for int/float/char/string tokens
    value: object = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


class LexError(SyntaxError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}:{col}: {message}")
        self.detail = message
        self.line = line
        self.col = col

    def __reduce__(self):
        # See ParseError.__reduce__: errors cross process boundaries.
        return (type(self), (self.detail, self.line, self.col), self.__dict__)


_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def _decode_escapes(body: str, line: int, col: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(body):
            raise LexError("dangling escape", line, col)
        esc = body[i]
        if esc in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[esc])
            i += 1
        elif esc == "x":
            j = i + 1
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            if j == i + 1:
                raise LexError("bad hex escape", line, col)
            out.append(chr(int(body[i + 1 : j], 16) & 0xFF))
            i = j
        elif esc.isdigit():
            j = i
            while j < len(body) and j < i + 3 and body[j] in "01234567":
                j += 1
            out.append(chr(int(body[i:j], 8) & 0xFF))
            i = j
        else:
            raise LexError(f"unknown escape \\{esc}", line, col)
    return "".join(out)


class Lexer:
    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # ------------------------------------------------------------------

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    # ------------------------------------------------------------------

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        ch = self._peek()
        if not ch:
            return Token("eof", "", line, col)
        if ch.isalpha() or ch == "_":
            return self._identifier(line, col)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)
        if ch == "'":
            return self._char(line, col)
        for punct in PUNCTUATION:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("punct", punct, line, col)
        raise self._error(f"unexpected character {ch!r}")

    # ------------------------------------------------------------------

    def _identifier(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = "keyword" if text in KEYWORDS else "id"
        return Token(kind, text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        src = self.source
        is_float = False
        if src.startswith(("0x", "0X"), self.pos):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() and self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        body = src[start : self.pos]
        # Suffixes.
        suffix_start = self.pos
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        suffix = src[suffix_start : self.pos].lower()
        text = src[start : self.pos]
        if is_float or "f" in suffix:
            return Token("float", text, line, col, value=float(body))
        value = int(body, 0)
        return Token("int", text, line, col, value=value)

    def _string(self, line: int, col: int) -> Token:
        # Adjacent string literals concatenate.
        pieces: List[str] = []
        while self._peek() == '"':
            self._advance()
            start = self.pos
            while True:
                ch = self._peek()
                if not ch or ch == "\n":
                    raise self._error("unterminated string literal")
                if ch == "\\":
                    self._advance(2)
                    continue
                if ch == '"':
                    break
                self._advance()
            pieces.append(self.source[start : self.pos])
            self._advance()  # closing quote
            self._skip_trivia()
        body = "".join(pieces)
        return Token(
            "string", f'"{body}"', line, col, value=_decode_escapes(body, line, col)
        )

    def _char(self, line: int, col: int) -> Token:
        self._advance()
        start = self.pos
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated character constant")
            if ch == "\\":
                self._advance(2)
                continue
            if ch == "'":
                break
            self._advance()
        body = self.source[start : self.pos]
        self._advance()
        decoded = _decode_escapes(body, line, col)
        if len(decoded) != 1:
            raise LexError("character constant must be one character", line, col)
        return Token("char", f"'{body}'", line, col, value=ord(decoded))


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Convenience wrapper: lex a whole translation unit."""
    return Lexer(source, filename).tokens()
