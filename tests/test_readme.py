"""The README's command-line examples run as written and write the files
its "Outputs" list names, its library example runs as written, and the
constants it quotes have the values it gives."""
import importlib
import re
import shlex
from pathlib import Path

from repca.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _example_commands():
    """The ``sh`` block under "Command line", continuations joined, comments skipped."""
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def _listed_outputs():
    """Command name -> the file names its bullet under "Outputs:" names."""
    text = _section("Command line")
    bullets = text[text.index("Outputs:\n"):].split("\n\n")[1]
    listed = {}
    for bullet in bullets.split("\n- "):
        command, body = re.match(r"-? ?`(\w+)`:(.*)", bullet, re.S).groups()
        listed[command] = set(re.findall(r"`([\w.]+\.(?:csv|json))`", body))
    return listed


COMMANDS = _example_commands()


def test_readme_lists_an_example_and_outputs_for_every_command():
    assert [argv[:2] for argv in COMMANDS] == [["repca", "synth"], ["repca", "fit"],
                                              ["repca", "bench"], ["repca", "rerun"]]
    listed = _listed_outputs()
    assert sorted(listed) == ["bench", "fit", "synth"]
    assert all("manifest.json" in names for names in listed.values())


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    listed = _listed_outputs()
    commands = {}
    for argv in COMMANDS:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        out = Path(argv[argv.index("--out") + 1])
        command = argv[1]
        if command == "rerun":  # it writes what the replayed command writes
            command = commands[Path(argv[argv.index("--manifest") + 1]).parent]
        commands[out] = command
        for name in sorted(listed[command]):
            assert (out / name).is_file(), (argv, name)
    assert capsys.readouterr().err == ""


def test_readme_library_example_runs(capsys):
    """The ``python`` block under "Library use", under the suite's warning filters."""
    block = re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    converged, iterations, angle = capsys.readouterr().out.split()
    assert converged == "True" and int(iterations) >= 1
    assert 0.0 <= float(angle) < 0.01


def test_readme_constants_match_the_code():
    """Each constant the README quotes with a value, written
    `repca.<module>.<NAME>` (<value>), has that value in the code."""
    quoted = re.findall(r"`repca\.(\w+)\.(\w+)`\s+\(([^)\s]+)\)", README)
    names = {name for _, name, _ in quoted}
    assert names >= {"DOWNDATE_RTOL", "DROP_RTOL", "POWER_SHIFT_RTOL", "CLAMP_RTOL", "_SIGN_TOL"}
    wrong = [(module, name, value) for module, name, value in quoted
             if getattr(importlib.import_module(f"repca.{module}"), name) != float(value)]
    assert wrong == []
