"""Lexer: UTF-8 Cyan source text -> token stream with positions.

One table, `TOKENS`, gives the kind of every fixed lexeme, and one master
regular expression finds the next lexeme; `Lexer.run` dispatches on the name
of the group that matched.  Comments (nested block comments and line
comments) separate tokens like a single space.  String tokens carry their
decoded value; every other lexeme is a verbatim slice of the source.
"""

import re
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


K = TokenKind


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

# every fixed lexeme: the operators of the precedence figure, the prefix
# operators, the optional quantifier '?' of grammar methods, and punctuation
TOKENS = {
    **dict.fromkeys([
        "||", "~||", "&&", "==", "<=", "<", ">", ">=", "!=", "..",
        "+", "-", "/", "*", "%", "|", "~|", "&", "<.<", ">.>", ">.>>",
        "++", "--", "!", "~", "?",
    ], K.OPERATOR),
    **dict.fromkeys([
        ",", ";", ":", "(", ")", "{", "}", "[", "]", ".", "=", "->", "^",
        "{#", "#}", "}.", "[.", ".]", "]?", ".{", "?[",
    ], K.PUNCT),
}
# a maximal run over these characters is one lexeme: a fixed one of the
# table, else a user-defined operator.  Angle brackets are not among them,
# so nested generic types like Block<Int><Void> never merge.
_OP_RUN_CHARS = "+-*/%&|~=!^$\\"

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


# The groups are tried in order.  A fixed lexeme spelled with operator-run
# characters only is found by the run, so that `+-` stays one user-defined
# operator; the others, `->` among them, are tried before the run.  '$'
# continues an identifier: compiler-generated names use it and desugared dumps
# must re-lex.  `[^\W\d]` is a word character but no decimal digit; the lexer
# refuses those of them that are no letter either, such as '²'.
_TOKEN_RE = re.compile("|".join([
    r"(?P<blank>(?:[ \t\r\n]+|//[^\n]*)+)",
    r"(?P<comment>/\*)",
    r"(?P<word>[^\W\d][\w$]*(?::(?!:))?)",        # a name, or a selector
    r"(?P<number>(?P<digits>[0-9][0-9_]*(?:\.[0-9][0-9_]*)?)(?P<suffix>\w*))",
    r'(?P<string>")',
    r"(?P<char>')",
    r'(?P<quoted_symbol>#")',
    r"(?P<symbol>#\w[\w$]*(?::\w[\w$]*)*:?)",
    r'(?P<raw_string>@"[^"\n]*"?)',
    r"(?P<meta>@@?)",
    r"(?P<inter>\?\.?[^\W\d][\w$]*:?)",            # ?at: ?name ?.at: ?.name
    "(?P<fixed>%s)" % "|".join(re.escape(t) for t in sorted(TOKENS, key=len, reverse=True)
                               if not set(t) <= set(_OP_RUN_CHARS)),   # longest first
    "(?P<op_run>[%s]+)" % re.escape(_OP_RUN_CHARS),
    r"(?P<other>.)",
]), re.DOTALL)
_IDENT_REST = re.compile(r"[\w$]*")
_COMMENT_MARK = re.compile(r"/\*|\*/")
# left delimiter run of a metaobject argument; the closing run is its mirror
_META_LEFT = re.compile(r"[=!#$%&*+\-/:<?@\\^~|(\[{]+")
_MIRROR = {"(": ")", "[": "]", "{": "}", "<": ">"}


def _mirror_of(left):
    return "".join(_MIRROR.get(ch, ch) for ch in reversed(left))


def _is_letter(ch):
    return ch.isalpha() or ch == "_"


class Lexer:
    def __init__(self, source, reporter=None):
        self.src = source
        self.n = len(source)
        self.line = 1
        self.line_start = 0     # offset of the first character of `line`
        self.reporter = reporter if reporter is not None else Reporter()
        self.tokens = []

    def _emit(self, kind, lexeme, line, col, value=None):
        self.tokens.append(Token(kind, lexeme, line, col, value, col + len(lexeme)))

    def _error(self, line, col, msg):
        self.reporter.error(line, col, msg)

    def _pos(self, i):
        """Line and column of offset `i`, on the current line or after it."""
        nl = self.src.rfind("\n", self.line_start, i)
        if nl < 0:
            return self.line, i - self.line_start + 1
        return self.line + self.src.count("\n", self.line_start, i), i - nl

    def _consumed(self, start, end):
        """Move the line count past the newlines of src[start:end]."""
        nl = self.src.rfind("\n", start, end)
        if nl >= 0:
            self.line += self.src.count("\n", start, end)
            self.line_start = nl + 1

    # -- the main loop ------------------------------------------------------------

    def run(self):
        src, n = self.src, self.n
        match = _TOKEN_RE.match
        emit = self._emit
        i = 0
        while i < n:
            m = match(src, i)
            group, end = m.lastgroup, m.end()
            line, col = self.line, i - self.line_start + 1
            if group == "blank":
                self._consumed(i, end)
            elif group == "word":
                text = m.group()
                if text == "_" or text == "_:":
                    self._error(line, col, "a single underscore is not a valid identifier")
                if not _is_letter(text[0]):         # '²', '½': word characters, no letters
                    self._error(line, col, f"invalid character {text[0]!r}")
                    end = i + 1
                elif text[-1] == ":":
                    emit(K.ID_COLON, text, line, col)
                elif text in KEYWORDS:
                    emit(K.KEYWORD, text, line, col)
                elif text == "true" or text == "false":
                    emit(K.BOOLEAN, text, line, col, text == "true")
                else:
                    emit(K.IDENT, text, line, col)
            elif group == "fixed":
                text = m.group()
                emit(TOKENS[text], text, line, col)
            elif group == "op_run":
                text = m.group()
                kind = TOKENS.get(text, K.USER_OPERATOR)
                if kind is K.USER_OPERATOR and text.startswith("!!"):
                    self._error(line, col, "operators starting with '!!' are reserved and"
                                           " cannot be user-defined")
                emit(kind, text, line, col)
            elif group == "number":
                self._number(m, line, col)
            elif group == "comment":
                end = self._skip_comment(i, line, col)
                self._consumed(i, end)
            elif group == "inter":
                text = m.group()
                dotted = text[1] == "."
                if not _is_letter(text[2 if dotted else 1]):
                    # the optional quantifier of grammar-method signatures
                    emit(K.OPERATOR, "?", line, col)
                    end = i + 1
                elif text[-1] == ":":
                    emit(K.INTER_DOT_ID_COLON if dotted else K.INTER_ID_COLON, text, line, col)
                else:
                    emit(K.INTER_DOT_ID if dotted else K.INTER_ID, text, line, col)
            elif group == "string":
                text, _, end = self._escaped(i + 1, '"', line, col, keep_hash_escape=True)
                emit(K.STRING, text, line, col, text)
                self._consumed(i, end)
            elif group == "char":
                text, ok, end = self._escaped(i + 1, "'", line, col, keep_hash_escape=False)
                if ok and len(text) != 1:
                    self._error(line, col, "character literal must contain exactly one character")
                emit(K.CHAR, src[i:end], line, col, text[:1] or "\0")
                self._consumed(i, end)
            elif group == "symbol":
                text = m.group()
                emit(K.SYMBOL, text, line, col, text[1:])
            elif group == "quoted_symbol":
                text, _, end = self._escaped(i + 2, '"', line, col, keep_hash_escape=False)
                emit(K.SYMBOL, src[i:end], line, col, text)
                self._consumed(i, end)
            elif group == "raw_string":
                text = m.group()[2:]
                if text.endswith('"'):
                    text = text[:-1]
                else:
                    self._error(line, col, "unterminated string")
                emit(K.RAW_STRING, text, line, col, text)
            elif group == "meta":
                end = self._meta(i, end, line, col)
                self._consumed(i, end)
            else:
                self._error(line, col, f"invalid character {m.group()!r}")
            i = end
        emit(K.EOF, "", self.line, n - self.line_start + 1)
        return self.tokens

    # -- the lexemes scanned by hand --------------------------------------------------

    def _skip_comment(self, i, line, col):
        """Skip the nested block comment that opens at offset `i`; answers the
        offset past its end."""
        depth = 0
        for m in _COMMENT_MARK.finditer(self.src, i):
            if m.group() == "/*":
                depth += 1
                if depth > MAX_COMMENT_DEPTH:
                    self._error(line, col, "comment nesting exceeds %d levels" % MAX_COMMENT_DEPTH)
                    depth = MAX_COMMENT_DEPTH
            else:
                depth -= 1
                if depth == 0:
                    return m.end()
        self._error(line, col, "unterminated comment")
        return self.n

    def _number(self, m, line, col):
        digits, suffix = m.group("digits"), m.group("suffix")
        if "_" in digits:
            start = col
            for run in digits.split("."):       # the integer part, then the fraction
                for j in range(1, len(run)):
                    if run[j] == "_" == run[j - 1]:
                        self._error(line, start + j, "Two underscores cannot appear together in a number")
                if run.endswith("_"):
                    self._error(line, col, "a number cannot end with an underscore")
                start += len(run) + 1
        is_float = "." in digits
        kind = K.FLOAT if is_float else K.INT
        if suffix:
            mapped = _NUM_SUFFIXES.get(suffix.lower())
            if mapped is None:
                self._error(line, col, f"unsupported literal suffix '{suffix}'")
            else:
                kind = mapped
                if is_float and mapped not in (K.FLOAT, K.DOUBLE):
                    self._error(line, col, f"suffix '{suffix}' is not valid on a fractional number")
                    kind = K.FLOAT
        body = digits.replace("_", "")
        value = float(body) if kind in (K.FLOAT, K.DOUBLE) else int(body)
        self._emit(kind, m.group(), line, col, value)

    def _escaped(self, i, quote, line, col, keep_hash_escape):
        """Decode the text from offset `i` to the closing `quote`; answers the
        text, whether the quote closed it, and the offset past it.  An
        unescaped newline ends the text unclosed."""
        src, n, out = self.src, self.n, []
        while i < n:
            ch = src[i]
            i += 1
            if ch == quote:
                return "".join(out), True, i
            if ch == "\n":
                break
            if ch == "\\":
                nxt = src[i:i + 1]
                if nxt == "#" and keep_hash_escape:
                    out.append("\\#")  # resolved by the interpolation rewrite
                elif nxt in _ESCAPES:
                    out.append(_ESCAPES[nxt])
                else:
                    self._error(*self._pos(i), f"invalid escape character '\\{nxt}'")
                i += len(nxt)
            else:
                out.append(ch)
        self._error(line, col, "unterminated string" if quote == '"' else "unterminated character literal")
        return "".join(out), False, i

    def _meta(self, i, j, line, col):
        """`@name` or `@@name` (the '@'s end at offset `j`), then the raw text
        between an adjacent delimiter run and its mirror; answers the offset
        past them."""
        src = self.src
        self._emit(K.META_AT_AT if j - i == 2 else K.META_AT, src[i:j], line, col)
        if not _is_letter(src[j:j + 1]):
            self._error(line, col, "metaobject name expected after '@'")
            return j
        k = _IDENT_REST.match(src, j).end()
        self._emit(K.IDENT, src[j:k], line, col + j - i)
        left = _META_LEFT.match(src, k)
        if left is None:
            return k
        closing = _mirror_of(left.group())
        end = src.find(closing, left.end())
        if end < 0:
            self._error(line, col + k - i, f"metaobject argument not closed by '{closing}'")
            return left.end()
        text = src[left.end():end]
        self._emit(K.META_TEXT, text, line, col + k - i, text)
        return end + len(closing)


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
