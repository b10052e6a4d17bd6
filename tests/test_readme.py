"""The README's examples stay true: its library block prints what the
comments on its print lines say, and so do the command-line examples
whose comments quote their output."""

import re
import shlex
from pathlib import Path

from qschub.cli import parse_and_dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first fenced block, opened as ```fence, under a ## heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_library_block_prints_what_its_comments_say(capsys):
    code = _block("Library", "python")
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected


def test_command_line_examples_print_the_output_their_comments_quote(capsys):
    lines = _block("Command line", "").splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("qschub "):
            continue
        command, _, comment = line.partition("#")
        if not comment and after.lstrip().startswith("#"):
            comment = after  # a long command carries its comment on the next line
        quoted = re.search(r'"(.*)"', comment)
        if quoted:
            examples.append((shlex.split(command)[1:], quoted.group(1)))
    assert [argv[0] for argv, _ in examples] == ["qmul", "count"]
    for argv, output in examples:
        assert parse_and_dispatch(argv) == 0, argv
        assert capsys.readouterr() == (output + "\n", ""), argv
