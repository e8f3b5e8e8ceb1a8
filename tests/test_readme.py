"""README's "Library use" block runs as written, and every command in its
"Command line" block parses."""

import re
import shlex
from pathlib import Path

from margmcmc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading, lang):
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(code_block("Library use", "python"), str(README), "exec"),
         {})
    assert float(capsys.readouterr().out) > 0


def test_command_line_block_parses():
    lines = code_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)
                for line in lines.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["margmcmc"]]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
