"""The master-pattern tokenizer against the character scanner it replaced.

:func:`reference_tokenize` is the tokenizer as it walked the source one
character at a time and tried every operator with ``startswith``, kept
verbatim as an independent oracle (with its own operator and punctuation
tables).  The differential tests require
:func:`repro.frontend.lexer.tokenize` to give the same ``(kind, text,
line, col)`` list, or a :class:`FrontendError` with the same message, on
the ten Table II sources, the 80 fresh ``serve_warm`` designs, every
``.v`` file under ``tests/`` and ``examples/``, and seeded random strings
over all 128 ASCII code points.

Two differences are allowed.  The EOF token after a trailing ``//``
comment: the reference never advanced its column over a line comment,
so its EOF sat where the comment starts; the master pattern puts it at
the true end of the input.  And a form feed: it is white space (IEEE
1364-2005 §3.2), which the reference rejected as an unexpected
character, so the reference reads each form feed as a space.  Outside
ASCII the two differ on purpose (simple identifiers and numbers are
ASCII only), so the random strings stay inside it.
"""

import random
from functools import lru_cache
from pathlib import Path
from typing import List

import pytest

from repro.equiv.differential import random_module
from repro.frontend import parser as parser_module
from repro.frontend.lexer import (
    KEYWORDS,
    FrontendError,
    TokKind,
    Token,
    tokenize,
)
from repro.frontend.parser import parse_source
from repro.ir.verilog_writer import verilog_str
from repro.workloads import CASE_NAMES, build_all

REPO = Path(__file__).resolve().parents[2]

# -- reference tokenizer (character scanner) -------------------------------

#: multi-character operators, longest first
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">", "=", "?",
]

_PUNCT = set("()[]{}:;,.#@")


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize a full source text; raises :class:`FrontendError` on junk."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(message: str) -> FrontendError:
        return FrontendError(f"lex error at {line}:{col}: {message}")

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            for c in source[i:end]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            col += 2
            continue
        start_line, start_col = line, col
        # based literal: [size]'[sbodh]digits
        if ch.isdigit() or ch == "'":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "_"):
                j += 1
            if j < n and source[j] == "'":
                k = j + 1
                if k < n and source[k] in "sS":
                    k += 1
                if k >= n or source[k] not in "bBoOdDhH":
                    raise error("bad based literal")
                k += 1
                body_start = k
                while k < n and (source[k].isalnum() or source[k] in "_?"):
                    k += 1
                if k == body_start:
                    raise error("empty based literal")
                text = source[i:k]
                tokens.append(Token(TokKind.BASED_NUMBER, text, start_line, start_col))
                col += k - i
                i = k
                continue
            text = source[i:j].replace("_", "")
            tokens.append(Token(TokKind.NUMBER, text, start_line, start_col))
            col += j - i
            i = j
            continue
        # identifier / keyword
        if ch.isalpha() or ch in "_$\\":
            j = i
            if ch == "\\":  # escaped identifier: up to whitespace
                j += 1
                while j < n and not source[j].isspace():
                    j += 1
                text = source[i + 1:j]
                tokens.append(Token(TokKind.IDENT, text, start_line, start_col))
            else:
                while j < n and (source[j].isalnum() or source[j] in "_$"):
                    j += 1
                text = source[i:j]
                kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
                tokens.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        # operators
        matched = False
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(TokKind.OP, op, start_line, start_col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokKind.PUNCT, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}")
    tokens.append(Token(TokKind.EOF, "", line, col))
    return tokens


# -- corpus ----------------------------------------------------------------


@lru_cache(maxsize=None)
def table2_sources():
    """Verilog text of the ten Table II cases, as the benchmark feeds them."""
    return {name: verilog_str(module) for name, module in build_all().items()}


#: the fresh ``serve_warm`` designs: ``random_module`` seeds 1-80
FRESH_SEEDS = range(1, 81)

FIXTURE_FILES = sorted(REPO.glob("tests/**/*.v")) + sorted(
    REPO.glob("examples/**/*.v"))

#: multi-character atoms the random strings favour, so comments, based
#: literals, escaped identifiers, keywords and every operator turn up often
_ATOMS = (
    ["//", "/*", "*/", "'", "\\", "\n", " ", "_", "?", "0", "1", "9"]
    + list("bBoOdDhHsSxXzZ")
    + sorted(KEYWORDS)
    + _OPERATORS
    + sorted(_PUNCT)
)
#: every ASCII code point once, then the atoms three times over
_ALPHABET = [chr(code) for code in range(128)] + _ATOMS * 3


def random_source(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 24)))


def random_batch(seed: int, count: int = 1000) -> List[str]:
    rng = random.Random(seed)
    return [random_source(rng) for _ in range(count)]


# -- comparison ------------------------------------------------------------


def lex(tokenizer, source):
    """``(kind, text, line, col)`` per token, or the error message."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(source)]
    except FrontendError as exc:
        return str(exc)


def mismatch(source: str):
    """None when both tokenizers agree on ``source``, else both outcomes."""
    # the form-feed difference: a form feed is white space, one column
    # wide like the space the reference reads in its place
    ours = lex(tokenize, source)
    theirs = lex(reference_tokenize, source.replace("\f", " "))
    if (isinstance(ours, list) and isinstance(theirs, list)
            and ours[:-1] == theirs[:-1] and ours[-1] != theirs[-1]):
        # the EOF difference: the reference EOF stays at the start
        # of a trailing // comment; the new one is at the end of the input
        kind, text, line, col = theirs[-1]
        line_start = source.rfind("\n") + 1
        if source.startswith("//", line_start + col - 1):
            theirs = theirs[:-1] + [(kind, text, line, len(source) - line_start + 1)]
    return None if ours == theirs else (source, ours, theirs)


# -- differential tests ----------------------------------------------------


@pytest.mark.parametrize("case", CASE_NAMES)
def test_table2_source_tokens_match_reference(case):
    assert mismatch(table2_sources()[case]) is None


def test_fresh_design_tokens_match_reference():
    for seed in FRESH_SEEDS:
        source = verilog_str(random_module(seed, width=8, n_units=4))
        assert mismatch(source) is None, f"random_module seed {seed}"


def test_fixture_files_exist():
    assert FIXTURE_FILES


@pytest.mark.parametrize("path", FIXTURE_FILES,
                         ids=lambda path: str(path.relative_to(REPO)))
def test_fixture_file_tokens_match_reference(path):
    assert mismatch(path.read_text()) is None


def test_random_ascii_tokens_match_reference():
    failures = [
        found for seed in range(20) for found in map(mismatch, random_batch(seed))
        if found is not None
    ]
    assert not failures, failures[:3]


def test_random_strings_cover_every_outcome():
    """The random corpus reaches every token kind and every lex error."""
    kinds, errors = set(), set()
    for source in random_batch(0):
        outcome = lex(tokenize, source)
        if isinstance(outcome, str):
            errors.add(outcome.split(": ", 1)[1].split(" '", 1)[0])
        else:
            kinds.update(kind for kind, _text, _line, _col in outcome)
    assert kinds == set(TokKind)
    assert errors == {
        "unterminated block comment", "bad based literal",
        "empty based literal", "unexpected character",
    }


def test_trailing_line_comment_eof_position():
    """The EOF token sits at the end of the input, not where a trailing
    ``//`` comment starts (the reference's 1:44)."""
    source = "module m(input a, output y); assign y = a; // trailing"
    assert tokenize(source)[-1] == Token(TokKind.EOF, "", 1, 55)
    assert reference_tokenize(source)[-1] == Token(TokKind.EOF, "", 1, 44)
    assert mismatch(source) is None
    with pytest.raises(FrontendError, match=r"^parse error at 1:55 "):
        parse_source(source)


def test_form_feed_is_white_space():
    """A form feed separates tokens like a space (the reference rejected
    it); a vertical tab stays an unexpected character in both."""
    source = "module m(output [3:0] y);\fassign y = 1; endmodule"
    assert [t.text for t in tokenize(source)][11:13] == [";", "assign"]
    with pytest.raises(FrontendError, match=r"^lex error at 1:26: "):
        reference_tokenize(source)
    assert mismatch(source) is None
    parse_source(source)
    vertical_tab = source.replace("\f", "\v")
    for tokenizer in (tokenize, reference_tokenize):
        with pytest.raises(FrontendError, match=r"at 1:26: unexpected"):
            tokenizer(vertical_tab)


@pytest.mark.parametrize("case", CASE_NAMES)
def test_parser_ast_matches_on_reference_tokens(case, monkeypatch):
    source = table2_sources()[case]
    ours = parse_source(source)
    monkeypatch.setattr(parser_module, "tokenize", reference_tokenize)
    assert parse_source(source) == ours


def test_extended_tokenizer_fuzz(request):
    """Opt-in exploration beyond the fixed seeds (--fuzz-iterations=N):
    each iteration is one fresh seeded batch of 1,000 random strings."""
    iterations = request.config.getoption("--fuzz-iterations")
    if not iterations:
        pytest.skip("pass --fuzz-iterations=N to fuzz beyond the fixed seeds")
    for seed in [random.randrange(1 << 30) for _ in range(iterations)]:
        failures = [found for found in map(mismatch, random_batch(seed))
                    if found is not None]
        assert not failures, (f"random_batch({seed})", failures[:3])
