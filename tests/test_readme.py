"""The README's examples must run as printed.

The Python API block is executed, and the console blocks of six CLI
examples are compared line for line with what cli.main prints.
"""

import re
from pathlib import Path

import pytest

from stabcert.cli import EXIT_NEGATIVE, EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _console_output(command):
    # The lines printed under "$ <command>" in a console block, up to the
    # next prompt or the end of the block.
    for block in _fenced("console"):
        lines = block.splitlines()
        if f"$ {command}" in lines:
            start = lines.index(f"$ {command}") + 1
            out = []
            for line in lines[start:]:
                if line.startswith("$ "):
                    break
                out.append(line)
            while out and out[-1] == "":
                out.pop()
            return out
    raise AssertionError(f"README has no console example for {command!r}")


def test_python_api_block_runs(capsys):
    section = README.split("## Python API", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "stabcert certify --optimizer sgd --gamma 0.1 --beta 1 --out cert.json",
    "stabcert certify --optimizer sgd --gamma 0.1 --beta 1 --eta 3",
    "stabcert lyapunov --kappa 2",
    "stabcert lyapunov --kappa 2 --eps 1.0 --rho 0.05",
    "stabcert bound -G 1 --gamma 0.1 --beta 1 -n 1000 -T 2000",
    "stabcert certify --optimizer sgd --gamma 0.1 --beta 1 --rate",
])
def test_console_example_matches_cli(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # for the files the examples write
    want = _console_output(command)
    assert main(command.split()[1:]) == (EXIT_NEGATIVE if "--eta 3" in command else EXIT_OK)
    assert capsys.readouterr().out.splitlines() == want
