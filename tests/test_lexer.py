import string

from hypothesis import given, settings, strategies as st

from cyanine.lexer import Token, TokenKind, tokenize

K = TokenKind


def kinds(source):
    toks, rep = tokenize(source)
    assert not rep.has_errors(), rep.format_all()
    return [t.kind for t in toks]


def lexemes(source):
    toks, _ = tokenize(source)
    return [(t.kind, t.lexeme) for t in toks if t.kind is not K.EOF]


def test_comment_acts_as_space():
    toks, rep = tokenize("1/* does value holds 10?  */0")
    assert not rep.has_errors()
    assert [(t.kind, t.value) for t in toks[:-1]] == [(K.INT, 1), (K.INT, 0)]


def test_underscore_separators():
    toks, _ = tokenize("1_000_000")
    assert toks[0].value == 1000000
    assert toks[0].lexeme == "1_000_000"


def test_doubled_underscore_rejected():
    _, rep = tokenize("1__0")
    assert rep.has_errors()
    assert "underscores" in rep.format_all().lower() or "Two underscores" in rep.format_all()


def test_number_literals_take_ascii_digits_only():
    """Other digits, such as '²', '①' and the Arabic-Indic '٣', are no
    number: alone they are invalid characters, after a number a suffix."""
    for src, col, message in [
            ("Out println: ²;", 14, "invalid character '²'"),
            ("x = 1²", 5, "unsupported literal suffix '²'"),
            ("①", 1, "invalid character '①'"),
            ("٣", 1, "invalid character '٣'")]:
        toks, rep = tokenize(src)
        assert [(d.line, d.col, d.message) for d in rep.items] == [(1, col, message)], src
    assert lexemes("٣ 3") == [(K.INT, "3")]


def test_symbol_literals():
    assert lexemes("#at:put:") == [(K.SYMBOL, "#at:put:")]
    assert lexemes("#name #age: #711 #_0") == [
        (K.SYMBOL, "#name"), (K.SYMBOL, "#age:"), (K.SYMBOL, "#711"), (K.SYMBOL, "#_0")]
    toks, _ = tokenize('#"1 + 2"')
    assert toks[0].kind is K.SYMBOL and toks[0].value == "1 + 2"


def test_raw_string_has_no_escapes():
    toks, rep = tokenize(r'@"D:\User\Carol"')
    assert not rep.has_errors()
    assert toks[0].kind is K.RAW_STRING
    assert toks[0].value == r"D:\User\Carol"


def test_empty_source_is_just_eof():
    toks, rep = tokenize("")
    assert [t.kind for t in toks] == [K.EOF]
    assert not rep.has_errors()


def test_numeric_suffixes_both_cases():
    toks, rep = tokenize("7B 35b 29Short 1234567L 37Long 223Int 10.0 1F 2.5D")
    assert not rep.has_errors()
    assert [t.kind for t in toks[:-1]] == [
        K.BYTE, K.BYTE, K.SHORT, K.LONG, K.LONG, K.INT, K.FLOAT, K.FLOAT, K.DOUBLE]


def test_hexlike_suffix_rejected():
    _, rep = tokenize("00ffffHex")
    assert "unsupported literal suffix" in rep.format_all()


def test_user_operator_longest_match():
    assert lexemes("&&&") == [(K.USER_OPERATOR, "&&&")]
    assert lexemes("a && b") == [(K.IDENT, "a"), (K.OPERATOR, "&&"), (K.IDENT, "b")]
    # a run that is no fixed token is one user operator, never split
    assert lexemes("a +- b") == [(K.IDENT, "a"), (K.USER_OPERATOR, "+-"), (K.IDENT, "b")]
    assert lexemes("= ^ =^") == [(K.PUNCT, "="), (K.PUNCT, "^"), (K.USER_OPERATOR, "=^")]


def test_forbidden_block_prefix_splits():
    assert lexemes("[|:x") == [
        (K.PUNCT, "["), (K.OPERATOR, "|"), (K.PUNCT, ":"), (K.IDENT, "x")]


def test_double_bang_reserved():
    _, rep = tokenize("!!x")
    assert "reserved" in rep.format_all()
    assert lexemes("!!x") == [(K.USER_OPERATOR, "!!"), (K.IDENT, "x")]


def test_selector_tokens():
    assert lexemes("setName: x") == [(K.ID_COLON, "setName:"), (K.IDENT, "x")]
    assert lexemes("?at: ?name ?.at: ?.name") == [
        (K.INTER_ID_COLON, "?at:"), (K.INTER_ID, "?name"),
        (K.INTER_DOT_ID_COLON, "?.at:"), (K.INTER_DOT_ID, "?.name")]


def test_reserved_word_with_colon_is_selector():
    assert lexemes("case: 1") == [(K.ID_COLON, "case:"), (K.INT, "1")] or \
        [k for k, _ in lexemes("case: 1")] == [K.ID_COLON, K.INT]


def test_nested_generics_never_merge_angles():
    ks = [k for k, _ in lexemes("Hashtable<String, UBlock<Int><Int>>")]
    assert K.USER_OPERATOR not in ks


def test_nested_comments_to_depth_16():
    for n in range(1, 17):
        src = "/*" * n + " text " + "*/" * n
        toks, rep = tokenize(src)
        assert not rep.has_errors(), f"depth {n}: {rep.format_all()}"
        assert [t.kind for t in toks] == [K.EOF], f"depth {n}"


def test_lone_hash_is_an_invalid_character_at_the_end_too():
    """A '#' followed by no symbol character gives no token, wherever it is."""
    for src, col in (("#", 1), ("a #", 3), ("a # b", 3), ("{# 1 #} #", 9)):
        toks, rep = tokenize(src)
        assert [t.lexeme for t in toks if t.lexeme == "#"] == []
        assert [(d.line, d.col, d.message) for d in rep.items] == \
            [(1, col, "invalid character '#'")], src


def test_unterminated_comment_and_string():
    _, rep = tokenize("/* open")
    assert "unterminated comment" in rep.format_all()
    _, rep = tokenize('"open')
    assert "unterminated string" in rep.format_all()


def test_positions_strictly_increase():
    src = 'object A\n  :x Int = 10;\n  fun f [ ^x ]\nend'
    toks, _ = tokenize(src)
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


# property: re-lexing the lexeme stream joined by single spaces gives the
# same token kind sequence (the comment-as-space law, from the other side)
_WORD = st.text(alphabet=string.ascii_letters, min_size=1, max_size=6)
_TOKEN = st.one_of(
    _WORD,
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.sampled_from(["+", "-", "*", "/", "==", "&&", "||", "(", ")", "[", "]",
                     ";", ",", "=", "->", "^", "#foo", '"text"', "'c'", "0..2",
                     "foo:", "?bar:", "{#", "#}", "[.", ".]", "1_000", "&&&"]),
)


@given(st.lists(_TOKEN, min_size=0, max_size=12))
@settings(max_examples=200)
def test_relex_with_space_joins_is_stable(parts):
    src = " ".join(parts)
    toks1, rep1 = tokenize(src)
    if rep1.has_errors():
        return
    joined = " ".join(t.lexeme if t.kind is not TokenKind.STRING else f'"{t.lexeme}"'
                      for t in toks1 if t.kind is not TokenKind.EOF)
    toks2, rep2 = tokenize(joined)
    assert not rep2.has_errors()
    assert [t.kind for t in toks1] == [t.kind for t in toks2]


@given(st.integers(min_value=1, max_value=16), _WORD)
@settings(max_examples=60)
def test_comment_nesting_property(depth, text):
    src = "/*" * depth + text + "*/" * depth
    toks, rep = tokenize(src)
    assert not rep.has_errors()
    assert [t.kind for t in toks] == [TokenKind.EOF]


# property: every token but a string (whose lexeme is its decoded value) is
# the source text at its position, whatever blanks and comments separate them
_STRINGS = ['"text"', r'"a\tb"', r'"x\\y"', '""']
_LEXEME = st.one_of(
    _WORD,
    _WORD.map(lambda w: w + ":"),
    _WORD.map(lambda w: "?" + w),
    _WORD.map(lambda w: "?." + w + ":"),
    _WORD.map(lambda w: "#" + w + ":x:"),
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.sampled_from(_STRINGS + [
        "1_000", "2.5", "7B", "3.0D", "12Long", "'c'", r"'\n'", '#"a b"',
        "->", "..", "<.<", ">.>>", ">=", "==", "~||", "&&", "$$", "+-", "=", "^",
        "?", "?[", "]?", "{#", "#}", ".{", "}.", "[.", ".]", ",", ";", ":",
        "(", ")", "[", "]", "{", "}", "<", ">", "|", "!", "%"]),
)
_BLANK = st.sampled_from([" ", "\t", "\n", "\r\n"])
_COMMENT = st.sampled_from(["", "// line\n", "/* a */", "/* a\n /* b\r\n */ c */", "/**/"])


@given(st.lists(st.tuples(_LEXEME, _BLANK, _COMMENT, _BLANK), min_size=1, max_size=16))
@settings(max_examples=200)
def test_positions_point_at_the_lexeme(parts):
    src = "".join(lexeme + b1 + comment + b2 for lexeme, b1, comment, b2 in parts)
    toks, rep = tokenize(src)
    assert not rep.has_errors(), rep.format_all()
    assert len(toks) == len(parts) + 1
    lines = src.split("\n")
    for t in toks:
        if t.kind is not K.STRING:
            assert lines[t.line - 1][t.col - 1:t.end_col - 1] == t.lexeme, (src, t)
