"""README.md's Python examples run, in order, and say what they return;
every command-line flag it names exists.

The ```python blocks share one namespace, as a reader who pastes them into
one session would.  A line that is a bare expression and whose trailing
comment starts with a Python literal (``# True``, ``# (1024, 1031): ...``)
must evaluate to that literal.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from storen.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_OTHER_PROGRAMS_FLAGS = {"--no-build-isolation"}  # pip's, in the install lines


def _blocks():
    return _BLOCK.findall(README.read_text(encoding="utf-8"))


def _comments(source):
    """Line number -> the text of that line's comment, after the ``#``."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def _literal_prefix(comment):
    """The value of the longest prefix of ``comment`` that is a Python
    literal, as a one-element tuple; () when no prefix is one."""
    for end in range(len(comment), 0, -1):
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, SyntaxError, TypeError):
            continue
    return ()


def _run(blocks):
    """Run ``blocks`` in one namespace; return the (line, stated, got)
    of every checked expression."""
    namespace, checked = {}, []
    for source in blocks:
        comments = _comments(source)
        for stmt in ast.parse(source).body:
            module = ast.Module([stmt], type_ignores=[])
            stated = ()
            if isinstance(stmt, ast.Expr) and stmt.lineno == stmt.end_lineno:
                stated = _literal_prefix(comments.get(stmt.lineno, ""))
            if not stated:
                exec(compile(module, "README.md", "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            checked.append((ast.get_source_segment(source, stmt), stated[0], got))
    return checked


def test_readme_python_examples_run_in_order_and_match_their_comments():
    blocks = _blocks()
    assert len(blocks) >= 3
    checked = _run(blocks)
    assert len(checked) >= 4  # the comments this module reads are still there
    for line, stated, got in checked:
        assert got == stated, f"{line} is {got!r}, the README says {stated!r}"


def test_only_a_bare_expression_with_a_literal_comment_is_checked():
    assert _run(["1 + 1  # 2: two\n"]) == [("1 + 1", 2, 2)]
    assert _run(["x = 3\nx  # 4\n"]) == [("x", 4, 3)]
    assert _run(["x = 3  # 4\n(x)  # the value\n"]) == []


def test_every_flag_the_readme_names_is_an_option_of_a_subcommand():
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {flag for command in commands.values()
               for action in command._actions for flag in action.option_strings}
    named = set(_FLAG.findall(README.read_text(encoding="utf-8"))) - _OTHER_PROGRAMS_FLAGS
    assert len(named) >= 15  # the README's CLI section is still there
    assert named <= options, f"the README names {sorted(named - options)}, which no subcommand has"
