"""Tokenizer and parser unit tests: structure, positions, and recovery.

The front-end contract under test: parsing is *total* — malformed input
becomes LS401 (lexical) / LS402 (syntax) diagnostics anchored at
``file:line:col``, never an exception — and a failed statement never hides
the statements after it.
"""

from repro.lang import tokens as T
from repro.lang.ast import (
    Arg,
    Call,
    Chain,
    LetDecl,
    NumberLit,
    Program,
    Ref,
    SinkDecl,
    SourceDecl,
)
from repro.lang.parser import parse


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestTokenizer:
    def test_number_units(self):
        stream = T.tokenize("500hz 1s 20ms 2min 0.08 3e2")
        kinds = [t.kind for t in stream.tokens]
        assert kinds == [T.NUMBER] * 6 + [T.EOF]
        assert [(t.value, t.unit) for t in stream.tokens[:-1]] == [
            (500, "hz"),
            (1, "s"),
            (20, "ms"),
            (2, "min"),
            (0.08, None),
            (300.0, None),
        ]
        assert stream.diagnostics == []

    def test_int_stays_int_float_stays_float(self):
        stream = T.tokenize("5 5.0")
        five, five_oh = stream.tokens[0].value, stream.tokens[1].value
        assert isinstance(five, int) and isinstance(five_oh, float)

    def test_unknown_unit_is_ls401(self):
        stream = T.tokenize("source x rate 5khz;")
        assert codes(stream.diagnostics) == ["LS401"]
        assert "khz" in stream.diagnostics[0].message
        assert stream.diagnostics[0].anchor == "<query>:1:15"

    def test_byte_soup_reported_once_per_run(self):
        stream = T.tokenize("@@@@ $$$$")
        assert codes(stream.diagnostics) == ["LS401", "LS401"]

    def test_unterminated_string(self):
        stream = T.tokenize('sink s = f("abc\n')
        assert "LS401" in codes(stream.diagnostics)
        assert "unterminated" in stream.diagnostics[0].message

    def test_unknown_escape(self):
        stream = T.tokenize('"a\\qb"')
        assert codes(stream.diagnostics) == ["LS401"]
        assert stream.tokens[0].kind == T.STRING
        assert stream.tokens[0].value == "aqb"  # bad escape dropped, scan continues

    def test_stray_pipe(self):
        stream = T.tokenize("a | b")
        assert codes(stream.diagnostics) == ["LS401"]
        assert "|>" in stream.diagnostics[0].message

    def test_comments_and_positions(self):
        stream = T.tokenize("# header\nsource ecg rate 500hz;\n")
        first = stream.tokens[0]
        assert (first.kind, first.value, first.line, first.col) == (T.IDENT, "source", 2, 1)

    def test_string_escapes_decode(self):
        stream = T.tokenize('"a\\"b\\\\c\\nd\\te"')
        assert stream.tokens[0].value == 'a"b\\c\nd\te'


class TestParser:
    def test_full_program_structure(self):
        result = parse(
            "source ecg rate 500hz;\n"
            "let clean = ecg |> transform(window=1s, kernel=fill_mean(32));\n"
            "sink out = join(clean, ecg, combine=sub);\n"
        )
        assert result.ok and result.diagnostics == []
        assert result.program == Program(
            statements=(
                SourceDecl(name="ecg", rate=NumberLit(500, "hz")),
                LetDecl(
                    name="clean",
                    chain=Chain(
                        head=Ref("ecg"),
                        ops=(
                            Call(
                                "transform",
                                (
                                    Arg(NumberLit(1, "s"), name="window"),
                                    Arg(
                                        Chain(head=Call("fill_mean", (Arg(NumberLit(32)),))),
                                        name="kernel",
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
                SinkDecl(
                    name="out",
                    chain=Chain(
                        head=Call(
                            "join",
                            (
                                Arg(Chain(head=Ref("clean"))),
                                Arg(Chain(head=Ref("ecg"))),
                                Arg(Chain(head=Ref("sub")), name="combine"),
                            ),
                        )
                    ),
                ),
            )
        )

    def test_negative_numbers(self):
        result = parse("sink s = x |> shift(offset=-20ms);")
        assert result.ok
        (sink,) = result.program.statements
        assert sink.chain.ops[0].args[0].value == NumberLit(-20, "ms")

    def test_parenthesised_chain_flattens(self):
        plain = parse("sink s = x |> f() |> g();").program
        parens = parse("sink s = (x |> f()) |> g();").program
        assert plain == parens

    def test_syntax_error_is_ls402_with_anchor(self):
        result = parse("sink s = |> f();", filename="q.lsq")
        assert not result.ok
        assert codes(result.diagnostics) == ["LS402"]
        file, line, col = result.diagnostics[0].anchor.rsplit(":", 2)
        assert file == "q.lsq" and line == "1" and int(col) >= 1

    def test_recovery_keeps_later_statements(self):
        result = parse(
            "source ecg rate;\n"  # bad: clause without a number
            "source abp rate 125hz;\n"
            "sink s = abp;\n"
        )
        assert codes(result.diagnostics) == ["LS402"]
        kept = [type(s).__name__ for s in result.program.statements]
        assert kept == ["SourceDecl", "SinkDecl"]
        assert result.program.statements[0].name == "abp"

    def test_two_errors_both_reported(self):
        result = parse("sink a = ;\nsink b = |> f();\n")
        assert codes(result.diagnostics) == ["LS402", "LS402"]

    def test_duplicate_source_clause(self):
        result = parse("source x rate 5hz rate 6hz;")
        assert codes(result.diagnostics) == ["LS402"]
        assert "duplicate" in result.diagnostics[0].message

    def test_missing_semicolon(self):
        result = parse("sink s = x |> f()")
        assert codes(result.diagnostics) == ["LS402"]

    def test_empty_program(self):
        result = parse("")
        assert result.ok and result.program == Program()

    def test_never_raises_on_truncation(self):
        full = "sink s = join(a, b |> f(window=1s), combine=sub);"
        for cut in range(len(full)):
            parse(full[:cut])  # totality: no exception at any truncation
