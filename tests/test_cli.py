"""Tests for ``python -m repro``: the command table and its commands."""

import argparse
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import repro
from repro.__main__ import COMMANDS, main


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_info(self):
        r = self.run_cli("info")
        assert r.returncode == 0
        assert "arXiv:2109.14704" in r.stdout
        docs = next(l for l in r.stdout.splitlines() if l.startswith("docs:"))
        root = pathlib.Path(__file__).resolve().parents[1]
        for name in docs.split()[1:]:
            assert (root / name).is_file(), name

    def test_devices(self):
        r = self.run_cli("devices")
        assert r.returncode == 0
        assert "Device1" in r.stdout and "Device2" in r.stdout

    def test_calibration_all_in_band(self):
        r = self.run_cli("calibration")
        assert r.returncode == 0
        assert "18/18 calibration targets in band" in r.stdout

    def test_figures_single(self):
        r = self.run_cli("figures", "table1")
        assert r.returncode == 0
        assert "456" in r.stdout

    def test_figures_unknown(self):
        r = self.run_cli("figures", "fig99")
        assert r.returncode == 2

    def test_no_command_shows_help(self):
        r = self.run_cli()
        assert r.returncode == 2
        assert "figures" in r.stdout


def test_info_lists_every_subpackage(capsys):
    root = pathlib.Path(repro.__file__).parent
    subpackages = {p.parent.name for p in root.glob("*/__init__.py")}
    assert {"faults", "fusion", "server"} <= subpackages
    assert main(["info"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("packages:"))
    assert set(line.split()[1:]) == subpackages


def test_help_lists_exactly_the_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert listed.split(",") == list(COMMANDS)


# Each child imports only the command table and the named command's module.
_HELP_PROBE = """
import sys
from repro.__main__ import COMMANDS, main
try:
    main([sys.argv[1], "--help"])
except SystemExit as exc:
    print(exc.code)
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_help_imports_only_its_module(name):
    r = subprocess.run([sys.executable, "-c", _HELP_PROBE, name],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    *_, code, modules = r.stdout.splitlines()
    assert code == "0"
    cli_modules = {target.split(":")[0] for _, target in COMMANDS.values()}
    own = COMMANDS[name][1].split(":")[0]
    loaded = set(modules.split()) & cli_modules
    assert loaded <= {own, "repro.__main__"}
    assert own in loaded


@pytest.mark.parametrize("argv", [
    ["serve", "--requests", "0"],
    ["serve", "--max-batch", "0"],
    ["serve", "--window-us", "-1"],
    ["serve", "--workers", "-1"],
    ["serve", "--pump-ms", "0"],
    ["serve", "--tenant-rate", "-0.5"],
    ["fuse", "--requests", "1"],
    ["native", "--threads", "0"],
    ["metrics", "--requests", "0"],
])
def test_out_of_range_values_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be" in capsys.readouterr().err


def test_serve_defaults_match_the_benchmark():
    """The defaults ``e2ebench/spec.py`` ``SERVE_DEFAULTS`` mirrors."""
    from repro.server.cli import add_serve
    from repro.server.traffic import demo_params

    parser = argparse.ArgumentParser()
    add_serve(parser)
    args = parser.parse_args([])
    assert (args.max_batch, args.window_us, args.pump_ms) == (8, 200.0, 5.0)
    assert (args.workers, args.fusion) == (0, False)
    params = demo_params(args.degree)
    # first prime, 3 levels of scale primes, then the special prime
    assert list(params.coeff_modulus_bits) == [50, 30, 30, 30, 50]
    assert params.scale == 2.0 ** 30


def test_serve_listen_announces_its_port():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        assert re.search(r"127\.0\.0\.1:(\d+)", first), first
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "serve: closed" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
