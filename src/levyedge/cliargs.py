"""The command line's grammar, read by hand:

    levyedge EXPERIMENT [--config PATH] [--seed INT] [--out PATH]
             [--threads INT] [--no-timestamp] [--force]

``parse_args`` accepts and rejects what an argparse parser of this grammar
(Python 3.11's argparse) does, and gives the same values, without building
a parser on every call.  It lives apart from ``cli`` to keep that module's
source small: imported from source with no bytecode cache, a larger
``cli`` took more memory to compile, and the process kept it resident.
"""

from __future__ import annotations

import sys
from typing import Collection, Dict, NoReturn, Optional, Sequence

_USAGE = ("usage: levyedge [-h] [--config PATH] [--seed INT] [--out PATH] [--threads INT]\n"
          "                [--no-timestamp] [--force] EXPERIMENT\n")

#: each option's long name: its metavar (None for a flag) and its help
_OPTIONS = {
    "--help": (None, "show this help and exit"),
    "--config": ("PATH", "flat key = value config file"),
    "--seed": ("INT", "master seed (u64), default 0"),
    "--out": ("PATH", "output path (default stdout)"),
    "--threads": ("INT", "replicate worker threads, default 1"),
    "--no-timestamp": (None, "suppress the timestamp line for byte-identical re-runs"),
    "--force": (None, "overwrite outputs whose config hash differs"),
}


def _usage_error(msg: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}levyedge: error: {msg}\n")
    raise SystemExit(2)


def _help(experiments: Collection[str], description: str) -> str:
    rows = [("EXPERIMENT", " | ".join(experiments))] + [
        (("-h, " if name == "--help" else "") + name + (f" {meta}" if meta else ""), text)
        for name, (meta, text) in _OPTIONS.items()]
    return _USAGE + "\n" + description + "\n" + "".join(f"  {a:<22}{b}\n" for a, b in rows)


def _negative_number(tok: str) -> bool:
    """tok matches '-' then digits, or '-' then [digits] '.' digits (one
    trailing newline allowed): a value, not an option."""
    body = tok[1:-1] if tok.endswith("\n") else tok[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (whole == "" or whole.isdecimal()) and frac.isdecimal()


def _read_option(tok: str):
    """None when tok is a value; else (the long option it names, or None
    for an unknown one, and the text after '=' or None).

    A long option may be any unique prefix of its name.  '-', a negative
    number and a word with a space are values.  '-h' may repeat its 'h'
    ('-hh', '-h=h'); any other text after it is an ignored argument.
    """
    if tok[:1] != "-" or tok == "-":
        return None
    if tok[:2] == "--":
        name, eq, value = tok.partition("=")
        found = [o for o in _OPTIONS if o.startswith(name)]
        if len(found) > 1:
            _usage_error(f"ambiguous option: {tok} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif tok[:2] == "-h":
        rest = tok[3:] if tok[2:3] == "=" else tok[2:]
        return "--help", None if tok == "-h" or (rest and not rest.strip("h")) else rest
    if _negative_number(tok) or " " in tok:
        return None
    return None, None


def parse_args(argv: Optional[Sequence[str]], experiments: Collection[str],
               description: str = "") -> Dict[str, object]:
    """The values of argv, by their argparse names: experiment (one of
    experiments), config, seed, out, threads, no_timestamp and force.

    Options come in any order, as '--opt value' or '--opt=value'; every
    token after '--' is a value.  A bad argument prints the usage to
    stderr and exits 2; -h or --help prints the usage, description and
    option help to stdout and exits 0.  argv None reads sys.argv[1:].
    """
    toks = sys.argv[1:] if argv is None else list(argv)
    end = toks.index("--") if "--" in toks else len(toks)
    # every token is read before any is acted on, as argparse reads them:
    # an ambiguous option fails even after -h
    kinds = [_read_option(t) if i < end else None for i, t in enumerate(toks)]
    args: Dict[str, object] = {"experiment": None, "config": None, "seed": 0, "out": None,
                               "threads": 1, "no_timestamp": False, "force": False}
    extras = []
    at = None  # the experiment's index in toks
    taken = None  # the index of the token an option took as its value
    for j, (tok, kind) in enumerate(zip(toks, kinds)):
        if j == taken:
            continue
        if j == end:
            # argparse drops the '--' only when it stands next to the experiment
            if at not in (None, end - 1):
                extras.append(tok)
        elif kind is None:
            if at is not None:
                extras.append(tok)
            elif tok in experiments:
                args["experiment"], at = tok, j
            else:
                _usage_error(f"invalid experiment {tok!r} (choose from {', '.join(experiments)})")
        elif kind[0] is None:
            extras.append(tok)
        else:
            name, value = kind
            meta = _OPTIONS[name][0]
            if meta is None:
                if value is not None:
                    _usage_error(f"{name} takes no argument: {value!r}")
                if name == "--help":
                    sys.stdout.write(_help(experiments, description))
                    raise SystemExit(0)
                value = True
            elif value is None:
                if j + 1 in (len(toks), end) or kinds[j + 1] is not None:
                    _usage_error(f"{name} expects one argument")
                value, taken = toks[j + 1], j + 1
            if meta == "INT":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"{name}: invalid integer {value!r}")
            args[name[2:].replace("-", "_")] = value
    if at is None:
        _usage_error("the experiment is required")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args
