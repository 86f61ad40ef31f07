"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``<command> --help``
their options.  Each command's code lives beside its subsystem, named in
:data:`COMMANDS`.
"""

from __future__ import annotations

import argparse
import importlib
import sys

#: name -> (help, "module:add_fn").  ``add_fn(parser)`` adds the command's
#: arguments and sets ``fn``; only the named command's module is imported.
COMMANDS = {
    "figures": ("regenerate paper figures", "repro.analysis.cli:add_figures"),
    "calibration": ("check model calibration bands",
                    "repro.xesim.cli:add_calibration"),
    "devices": ("print modelled device specs", "repro.xesim.cli:add_devices"),
    "serve": ("run the batched HE serving subsystem",
              "repro.server.cli:add_serve"),
    "fuse": ("exercise the kernel-fusion compiler", "repro.fusion.cli:add_fuse"),
    "native": ("build/inspect the compiled kernel backend",
               "repro.native.cli:add_native"),
    "metrics": ("serve a demo workload and print the metrics snapshot",
                "repro.server.cli:add_metrics"),
    "chaos": ("fault-injection soak: serve mixed traffic under a seeded "
              "fault plan and assert resilience invariants",
              "repro.faults.cli:add_chaos"),
    "info": ("version and inventory", f"{__name__}:add_info"),
}


def cmd_info(_args: argparse.Namespace) -> int:
    import pkgutil

    import repro

    packages = [m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]
    print(f"repro {repro.__version__} — reproduction of 'Accelerating Encrypted "
          f"Computing on Intel GPUs' (IPDPS 2022, arXiv:2109.14704)")
    print(f"packages: {' '.join(packages)}")
    print("docs: README.md ROADMAP.md CHANGES.md")
    return 0


def add_info(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(fn=cmd_info)


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="XeHE reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, target) in COMMANDS.items():
        cmd_parser = sub.add_parser(name, help=help_text)
        if argv[:1] == [name]:
            module, add_fn = target.split(":")
            getattr(importlib.import_module(module), add_fn)(cmd_parser)
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
