"""``python -m repro figures``: regenerate the paper's figures and tables."""

from __future__ import annotations

import argparse


def cmd_figures(args: argparse.Namespace) -> int:
    from . import ALL_FIGURES, render_figure

    names = args.ids or sorted(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure ids: {unknown}; known: {sorted(ALL_FIGURES)}")
        return 2
    for name in names:
        fig = ALL_FIGURES[name]()
        print(render_figure(fig))
        print()
    return 0


def add_figures(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ids", nargs="*", help="figure ids (default: all)")
    parser.set_defaults(fn=cmd_figures)
