import re
import shlex
from pathlib import Path

from slitgrid import cli
from slitgrid.cli import EXIT_OK, EXIT_VERIFY, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    # a README that names a deleted or renamed function fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_lines_run(tmp_path, capsys):
    # a README command line that drifts from the CLI's flags or exit codes fails here
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert all(words[0] == "slitgrid" for words in lines)
    commands = [words[1:] for words in lines]
    assert ["verify"] in commands and ["verify", "--perturb", "r0"] in commands
    for argv in commands:
        outputs = []
        for i in range(1, len(argv)):
            if argv[i - 1] == "--out":
                argv[i] = str(tmp_path / argv[i])
                outputs.append(Path(argv[i]))
        expected = EXIT_VERIFY if "--perturb" in argv else EXIT_OK
        assert main(argv) == expected, argv
        assert all(path.stat().st_size for path in outputs), argv
    capsys.readouterr()


def test_readme_settings_table_matches_the_command_table():
    # a command added, removed or given other settings fails here until the README's table follows
    lines = README.read_text(encoding="utf-8").splitlines()
    (start,) = [i for i, line in enumerate(lines) if re.fullmatch(r"\| command +\| reads +\|", line)]
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, reads = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append((command, reads.split()))
    assert rows == [(name, [f"--{key}" for key in command.settings]) for name, command in cli._COMMANDS.items()]
