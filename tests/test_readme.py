"""The README's library tour runs, and gives what its comments say.

Each line of the tour whose trailing comment is a Python literal is checked
against that value; every other line is run as it stands.
"""

import ast
import io
import pathlib
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The source of the ```python block under the "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("```", start)]


def _literal_comments(source: str) -> dict:
    """{line number: value} of each comment that follows code on its line
    and reads as a Python literal."""
    out = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and token.line[:token.start[1]].strip():
            try:
                out[token.start[0]] = ast.literal_eval(token.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return out


def test_library_tour_gives_what_its_comments_say():
    source = _tour()
    expected = _literal_comments(source)
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        text = ast.get_source_segment(source, statement)
        if isinstance(statement, ast.Expr) and statement.end_lineno in expected:
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert value == expected[statement.end_lineno], text
            checked.append(text)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert len(checked) == len(expected)
    assert {"defect_formula(orbit, signs)", "eliminate((2, 4), signs)",
            "is_cuspidal(param, eta)",
            "count_identity(GroupKind(Family.SO_EVEN, 8))"} <= set(checked)
