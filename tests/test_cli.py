"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def test_cli_imports_without_scipy():
    """NumPy is the only runtime dependency: scipy serves ``proxy`` only."""
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import repro.cli\n"
              "loaded = [name for name, module in sys.modules.items()\n"
              "          if name.startswith('scipy') and module is not None]\n"
              "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": SRC})


class TestCli:
    def test_requires_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "FIG. 1" in out

    def test_proxy_quick(self, capsys):
        assert main(["proxy", "--quick"]) == 0
        assert "Pearson" in capsys.readouterr().out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        assert "FIG. 2" in capsys.readouterr().out

    def test_table1_single_dataset(self, capsys):
        assert main(["table1", "--datasets", "redwine"]) == 0
        out = capsys.readouterr().out
        assert "RW MLP-C" in out
        assert "Card MLP-C" not in out
