"""The README's library quick start runs, and each value that its comments
state is the value the line computes."""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    section = README.read_text(encoding="utf-8").split(
        "## Quick start (library)\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _comments(source):
    """line number -> the text of the comment on that line, without `#`."""
    return {tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def test_readme_quick_start_states_what_it_computes():
    source = _quick_start()
    lines, comments = source.splitlines(), _comments(source)
    namespace, stated, described = {}, [], []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md",
                             "eval"), namespace)
        # the comment on the expression's last line, or on the comment-only
        # line after it
        end = stmt.end_lineno
        comment = comments.get(end)
        if comment is None and lines[end].lstrip().startswith("#"):
            comment = comments[end + 1]
        text = ast.get_source_segment(source, stmt)
        # the comment opens with the value's repr, then ends or goes on
        # with a space, a colon or a comma ("19" does not state 1)
        if re.match(re.escape(repr(value)) + r"($|[ :,])", comment):
            stated.append(text)
        else:
            described.append((text, comment))
    assert described == [("sigma({1, 2, 3, 6}).equations",
                          "threshold + non-divisor equations")]
    assert len(stated) == 13
    assert 'classify_variety([ln_plus(6)])' in stated
    assert 'len(enumerate_chain(4, "si"))' in stated
