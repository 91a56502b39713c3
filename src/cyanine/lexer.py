"""Lexer: UTF-8 Cyan source text -> token stream with positions.

Comments (nested block comments and line comments) separate tokens like a
single space.  String tokens carry their decoded value; every other lexeme is
a verbatim slice of the source.
"""

from dataclasses import dataclass
from enum import Enum

from .diagnostics import Reporter


class TokenKind(Enum):
    IDENT = "identifier"
    ID_COLON = "idColon"              # setName:
    INTER_ID_COLON = "interIdColon"   # ?at:
    INTER_ID = "interId"              # ?name
    INTER_DOT_ID_COLON = "interDotIdColon"  # ?.at:
    INTER_DOT_ID = "interDotId"       # ?.name
    KEYWORD = "keyword"
    INT = "intLiteral"
    BYTE = "byteLiteral"
    SHORT = "shortLiteral"
    LONG = "longLiteral"
    FLOAT = "floatLiteral"
    DOUBLE = "doubleLiteral"
    CHAR = "charLiteral"
    STRING = "stringLiteral"
    RAW_STRING = "rawStringLiteral"
    SYMBOL = "symbolLiteral"
    BOOLEAN = "booleanLiteral"
    OPERATOR = "operator"
    USER_OPERATOR = "userDefinedOperator"
    META_AT = "metaAt"
    META_AT_AT = "metaAtAt"
    META_TEXT = "metaText"            # delimited argument text of a metaobject call
    PUNCT = "punctuation"
    EOF = "eof"


@dataclass
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    col: int
    value: object = None      # decoded payload for literals
    end_col: int = 0          # column one past the last character (adjacency tests)

    def is_punct(self, text):
        return self.kind is TokenKind.PUNCT and self.lexeme == text

    def is_op(self, text):
        return self.kind is TokenKind.OPERATOR and self.lexeme == text

    def is_kw(self, text):
        return self.kind is TokenKind.KEYWORD and self.lexeme == text

    def __repr__(self):
        return f"{self.line}:{self.col} {self.kind.value} {self.lexeme!r}"


KEYWORDS = {
    "package", "import", "object", "interface", "end", "extends",
    "implements", "mixin", "abstract", "final", "public", "private",
    "protected", "override", "fun", "var", "const", "shared", "if", "else",
    "while", "return", "self", "super", "type", "nil", "noObject",
    # reserved but unused in the core language
    "void", "byte", "short", "int", "long", "float", "double", "char",
    "boolean", "stackalloc", "heapalloc", "match", "enum", "it", "break",
    "val", "volatile", "for", "let", "virtual", "switch", "case",
}

# binary/unary operators from the precedence figure plus assignment-level glue
FIXED_OPERATORS = {
    "||", "~||", "&&", "==", "<=", "<", ">", ">=", "!=", "..",
    "+", "-", "/", "*", "%", "|", "~|", "&", "<.<", ">.>", ">.>>",
    "++", "--", "!", "~",
}
FIXED_PUNCTS = {"=", "->", "^"}
# maximal run over these characters, then classify; angle brackets are lexed
# separately so nested generic types like Block<Int><Void> never merge
_OP_RUN_CHARS = set("+-*/%&|~=!^$\\")
_NUM_SUFFIXES = {
    "b": TokenKind.BYTE, "byte": TokenKind.BYTE,
    "s": TokenKind.SHORT, "short": TokenKind.SHORT,
    "l": TokenKind.LONG, "long": TokenKind.LONG,
    "f": TokenKind.FLOAT, "float": TokenKind.FLOAT,
    "d": TokenKind.DOUBLE, "double": TokenKind.DOUBLE,
    "i": TokenKind.INT, "int": TokenKind.INT,
}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
            "0": "\0", "\\": "\\", '"': '"', "'": "'"}

MAX_COMMENT_DEPTH = 256

# left delimiter characters of a metaobject argument; the closing run is the mirror
_META_LEFT = set("=!#$%&*+-/:<?@\\^~|([{")
_MIRROR = {"(": ")", "[": "]", "{": "}", "<": ">"}


def _mirror_of(left):
    return "".join(_MIRROR.get(ch, ch) for ch in reversed(left))


class Lexer:
    def __init__(self, source, reporter=None):
        self.src = source
        self.n = len(source)
        self.i = 0
        self.line = 1
        self.col = 1
        self.reporter = reporter if reporter is not None else Reporter()
        self.tokens = []

    # -- low-level cursor ---------------------------------------------------

    def _peek(self, k=0):
        j = self.i + k
        return self.src[j] if j < self.n else ""

    def _advance(self):
        ch = self.src[self.i]
        self.i += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _emit(self, kind, lexeme, line, col, value=None):
        self.tokens.append(Token(kind, lexeme, line, col, value, col + len(lexeme)))

    def _error(self, line, col, msg):
        self.reporter.error(line, col, msg)

    # -- whitespace and comments --------------------------------------------

    def _skip_blank(self):
        while self.i < self.n:
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.i < self.n and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self):
        line, col = self.line, self.col
        depth = 0
        while self.i < self.n:
            if self._peek() == "/" and self._peek(1) == "*":
                self._advance(); self._advance()
                depth += 1
                if depth > MAX_COMMENT_DEPTH:
                    self._error(line, col, "comment nesting exceeds %d levels" % MAX_COMMENT_DEPTH)
                    depth = MAX_COMMENT_DEPTH
            elif self._peek() == "*" and self._peek(1) == "/":
                self._advance(); self._advance()
                depth -= 1
                if depth == 0:
                    return
            elif self.i < self.n:
                self._advance()
        self._error(line, col, "unterminated comment")

    # -- token scanners -----------------------------------------------------

    def _ident_text(self):
        # '$' continues an identifier: compiler-generated names use it and
        # desugared dumps must re-lex
        start = self.i
        while self.i < self.n and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        return self.src[start:self.i]

    def _scan_word(self):
        line, col = self.line, self.col
        text = self._ident_text()
        if text == "_":
            self._error(line, col, "a single underscore is not a valid identifier")
        if self._peek() == ":" and self._peek(1) != ":":
            # selector: no space allowed before ':'
            self._advance()
            self._emit(TokenKind.ID_COLON, text + ":", line, col)
            return
        if text in ("true", "false"):
            self._emit(TokenKind.BOOLEAN, text, line, col, text == "true")
        elif text in KEYWORDS:
            self._emit(TokenKind.KEYWORD, text, line, col)
        else:
            self._emit(TokenKind.IDENT, text, line, col)

    def _scan_number(self):
        line, col = self.line, self.col
        start = self.i

        def digits_run():
            prev_us = False
            while self.i < self.n and (self._peek().isdigit() or self._peek() == "_"):
                if self._peek() == "_":
                    if prev_us:
                        self._error(self.line, self.col, "Two underscores cannot appear together in a number")
                    prev_us = True
                else:
                    prev_us = False
                self._advance()
            if prev_us:
                self._error(line, col, "a number cannot end with an underscore")

        digits_run()
        is_float = False
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            digits_run()
        suffix_start = self.i
        while self.i < self.n and (self._peek().isalpha() or self._peek() == "_" or self._peek().isdigit()):
            self._advance()
        suffix = self.src[suffix_start:self.i]
        lexeme = self.src[start:self.i]
        body = self.src[start:suffix_start].replace("_", "")
        kind = TokenKind.FLOAT if is_float else TokenKind.INT
        if suffix:
            mapped = _NUM_SUFFIXES.get(suffix.lower())
            if mapped is None:
                self._error(line, col, f"unsupported literal suffix '{suffix}'")
            else:
                kind = mapped
                if is_float and mapped not in (TokenKind.FLOAT, TokenKind.DOUBLE):
                    self._error(line, col, f"suffix '{suffix}' is not valid on a fractional number")
                    kind = TokenKind.FLOAT
        value = float(body) if kind in (TokenKind.FLOAT, TokenKind.DOUBLE) else int(body or "0")
        self._emit(kind, lexeme, line, col, value)

    def _scan_escaped(self, quote, line, col, keep_hash_escape):
        out = []
        while self.i < self.n:
            ch = self._advance()
            if ch == quote:
                return "".join(out), True
            if ch == "\n":
                break
            if ch == "\\":
                nxt = self._peek()
                if nxt == "#" and keep_hash_escape:
                    self._advance()
                    out.append("\\#")  # resolved by the interpolation rewrite
                elif nxt in _ESCAPES:
                    self._advance()
                    out.append(_ESCAPES[nxt])
                else:
                    self._error(self.line, self.col, f"invalid escape character '\\{nxt}'")
                    if self.i < self.n:
                        self._advance()
            else:
                out.append(ch)
        self._error(line, col, "unterminated string" if quote == '"' else "unterminated character literal")
        return "".join(out), False

    def _scan_string(self):
        line, col = self.line, self.col
        self._advance()  # opening quote
        text, _ = self._scan_escaped('"', line, col, keep_hash_escape=True)
        self._emit(TokenKind.STRING, text, line, col, text)

    def _scan_raw_string(self):
        line, col = self.line, self.col
        self._advance(); self._advance()  # @"
        start = self.i
        while self.i < self.n and self._peek() != '"' and self._peek() != "\n":
            self._advance()
        text = self.src[start:self.i]
        if self._peek() == '"':
            self._advance()
        else:
            self._error(line, col, "unterminated string")
        self._emit(TokenKind.RAW_STRING, text, line, col, text)

    def _scan_char(self):
        line, col = self.line, self.col
        start = self.i
        self._advance()
        text, ok = self._scan_escaped("'", line, col, keep_hash_escape=False)
        if ok and len(text) != 1:
            self._error(line, col, "character literal must contain exactly one character")
        self._emit(TokenKind.CHAR, self.src[start:self.i], line, col, text[:1] or "\0")

    def _scan_symbol(self):
        line, col = self.line, self.col
        start = self.i
        self._advance()  # '#'
        if self._peek() == '"':
            self._advance()
            text, _ = self._scan_escaped('"', line, col, keep_hash_escape=False)
            self._emit(TokenKind.SYMBOL, self.src[start:self.i], line, col, text)
            return
        parts = []
        while self.i < self.n and (self._peek().isalnum() or self._peek() == "_"):
            part = self._ident_text()
            parts.append(part)
            if self._peek() == ":":
                self._advance()
                parts.append(":")
            else:
                break
        text = "".join(parts)
        if not text:
            self._error(line, col, "invalid symbol literal")
        self._emit(TokenKind.SYMBOL, "#" + text, line, col, text)

    def _scan_meta(self):
        line, col = self.line, self.col
        self._advance()
        double = self._peek() == "@"
        if double:
            self._advance()
        self._emit(TokenKind.META_AT_AT if double else TokenKind.META_AT,
                   "@@" if double else "@", line, col)
        if not (self._peek().isalpha() or self._peek() == "_"):
            self._error(line, col, "metaobject name expected after '@'")
            return
        nline, ncol = self.line, self.col
        name = self._ident_text()
        self._emit(TokenKind.IDENT, name, nline, ncol)
        # adjacent delimiter introduces the raw argument text
        if self._peek() in _META_LEFT:
            dline, dcol = self.line, self.col
            left_start = self.i
            while self.i < self.n and self._peek() in _META_LEFT:
                self._advance()
            left = self.src[left_start:self.i]
            closing = _mirror_of(left)
            end = self.src.find(closing, self.i)
            if end < 0:
                self._error(dline, dcol, f"metaobject argument not closed by '{closing}'")
                return
            text = self.src[self.i:end]
            while self.i < end + len(closing):
                self._advance()
            self._emit(TokenKind.META_TEXT, text, dline, dcol, text)

    def _scan_inter(self):
        # '?' prefixes: ?sel: ?sel ?.sel: ?.sel ?[
        line, col = self.line, self.col
        if self._peek(1) == "[":
            self._advance(); self._advance()
            self._emit(TokenKind.PUNCT, "?[", line, col)
            return
        dotted = self._peek(1) == "."
        k = 2 if dotted else 1
        if not (self._peek(k).isalpha() or self._peek(k) == "_"):
            # lone '?': the optional quantifier of grammar-method signatures
            self._advance()
            self._emit(TokenKind.OPERATOR, "?", line, col)
            return
        self._advance()
        if dotted:
            self._advance()
        text = self._ident_text()
        if self._peek() == ":":
            self._advance()
            kind = TokenKind.INTER_DOT_ID_COLON if dotted else TokenKind.INTER_ID_COLON
            lex = ("?." if dotted else "?") + text + ":"
        else:
            kind = TokenKind.INTER_DOT_ID if dotted else TokenKind.INTER_ID
            lex = ("?." if dotted else "?") + text
        self._emit(kind, lex, line, col)

    def scan_user_operator(self):
        """Maximal munch over the operator charset: a fixed operator or
        punctuation, else a user-defined operator ('!!' ones are reserved)."""
        line, col = self.line, self.col
        start = self.i
        while self.i < self.n and self._peek() in _OP_RUN_CHARS:
            self._advance()
        run = self.src[start:self.i]
        if run in FIXED_OPERATORS:
            kind = TokenKind.OPERATOR
        elif run in FIXED_PUNCTS:
            kind = TokenKind.PUNCT
        else:
            kind = TokenKind.USER_OPERATOR
            if run.startswith("!!"):
                self._error(line, col, "operators starting with '!!' are reserved and"
                                       " cannot be user-defined")
        self._emit(kind, run, line, col)

    # -- main loop ------------------------------------------------------------

    def run(self):
        while True:
            self._skip_blank()
            if self.i >= self.n:
                self._emit(TokenKind.EOF, "", self.line, self.col)
                return self.tokens
            ch = self._peek()
            line, col = self.line, self.col
            if ch.isalpha() or ch == "_":
                self._scan_word()
            elif ch.isdigit():
                self._scan_number()
            elif ch == '"':
                self._scan_string()
            elif ch == "'":
                self._scan_char()
            elif ch == "#":
                if self._peek(1) == "}":
                    self._advance(); self._advance()
                    self._emit(TokenKind.PUNCT, "#}", line, col)
                elif self._peek(1).isalnum() or self._peek(1) in '_"':
                    self._scan_symbol()
                else:
                    self._advance()
                    self._error(line, col, "invalid character '#'")
            elif ch == "@":
                if self._peek(1) == '"':
                    self._scan_raw_string()
                else:
                    self._scan_meta()
            elif ch == "?":
                self._scan_inter()
            elif ch in ",;:()":
                self._advance()
                self._emit(TokenKind.PUNCT, ch, line, col)
            elif ch == "{":
                self._advance()
                if self._peek() == "#":
                    self._advance()
                    self._emit(TokenKind.PUNCT, "{#", line, col)
                else:
                    self._emit(TokenKind.PUNCT, "{", line, col)
            elif ch == "}":
                self._advance()
                if self._peek() == ".":
                    self._advance()
                    self._emit(TokenKind.PUNCT, "}.", line, col)
                else:
                    self._emit(TokenKind.PUNCT, "}", line, col)
            elif ch == "[":
                self._advance()
                if self._peek() == ".":
                    self._advance()
                    self._emit(TokenKind.PUNCT, "[.", line, col)
                else:
                    self._emit(TokenKind.PUNCT, "[", line, col)
            elif ch == "]":
                self._advance()
                if self._peek() == "?":
                    self._advance()
                    self._emit(TokenKind.PUNCT, "]?", line, col)
                else:
                    self._emit(TokenKind.PUNCT, "]", line, col)
            elif ch == ".":
                self._advance()
                if self._peek() == "{":
                    self._advance()
                    self._emit(TokenKind.PUNCT, ".{", line, col)
                elif self._peek() == ".":
                    self._advance()
                    self._emit(TokenKind.OPERATOR, "..", line, col)
                elif self._peek() == "]":
                    self._advance()
                    self._emit(TokenKind.PUNCT, ".]", line, col)
                else:
                    self._emit(TokenKind.PUNCT, ".", line, col)
            elif ch in "<>":
                for tok in (">.>>", ">.>", "<.<", ">=", "<=", ">", "<"):
                    if self.src.startswith(tok, self.i):
                        for _ in tok:
                            self._advance()
                        self._emit(TokenKind.OPERATOR, tok, line, col)
                        break
            elif ch == "-" and self._peek(1) == ">":
                self._advance(); self._advance()
                self._emit(TokenKind.PUNCT, "->", line, col)
            elif ch in _OP_RUN_CHARS:
                self.scan_user_operator()
            else:
                self._advance()
                self._error(line, col, f"invalid character {ch!r}")


def tokenize(source, reporter=None):
    """Tokenize Cyan source; returns (tokens, reporter)."""
    lx = Lexer(source, reporter)
    toks = lx.run()
    return toks, lx.reporter


def dump_tokens(tokens):
    lines = []
    for t in tokens:
        lines.append(f"{t.line}:{t.col} {t.kind.value} {t.lexeme}")
    return "\n".join(lines)
