"""Command-line interface.

Commands: group | atoms | min-delta | lengths | rho | delta-star | davenport | verify.
Output formats: table (human), json, csv.  Every common flag can also be set
through an environment variable named PMZS_<FLAG> (upper case, dashes to
underscores).

The argv is read from two tables, ``_ARGUMENTS`` (each command's own
arguments) and ``_common_flags`` (the flags every command takes), which also
give ``-h/--help``, the usage lines and the error messages.  A flag takes its
value as ``--flag value`` or ``--flag=value`` (``-k3`` or ``-k 3``), flags go
before, between or after the positionals, and ``--`` ends the flags.  A flag
matches only by its full name, so a new flag never changes what an old argv
means.

Exit codes: 0 success, 1 domain or usage error, 2 resource cap exceeded,
3 verification suite failure.  ``verify`` reports a check over a cap as not
applicable, so it exits 0 or 3 (1 on bad input), never 2.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple

from .atoms import AtomCache, atom_length_profile, check_atom_caps, davenport_monoid, enumerate_atoms
from .delta_star import delta_star
from .errors import PmzsError, ResourceLimitError
from .groups import GroupElement, davenport, group_invariants
from .limits import DEFAULT_LIMITS, Limits
from .notation import (
    format_group,
    format_subset,
    parse_group,
    parse_sequence,
    parse_subset,
    subset_to_json,
)
from .relations import Factorizer, min_delta_of_atoms, rho_k
from .suite import FAIL, NOT_APPLICABLE, run_suite

# Start-up ends here; a command loads no module of its own.  gc.freeze() moves
# every object made so far, which lives as long as the process, out of the
# collector's generations, so the collections that a command triggers do not
# scan the imported modules again.
gc.freeze()

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

_FORMATS = ("table", "json", "csv")
_REQUIRED = object()  # the default of a positional that argv must give


class _Arg(NamedTuple):
    """One argument of a command: a flag when ``name`` starts with '-', else a
    positional, which is optional when it has a default."""

    name: str
    help: str = ""
    default: object = _REQUIRED
    convert: Callable[[str], object] | None = str  # None: a switch, which takes no value

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


_HELP = _Arg("-h/--help", "show this help and exit", None, None)
_HELP_FLAGS = {"-h": _HELP, "--help": _HELP}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, _FORMATS))})")
    return text


def _env_default(name: str, fallback):
    value = os.environ.get(f"PMZS_{name}")
    return value if value is not None else fallback


def _env_flag(name: str) -> bool:
    value = _env_default(name, "0")
    try:
        return bool(int(value))
    except ValueError:
        _fail(None, f"PMZS_{name}: expected an integer, got {value!r}")


def _env_choice(name: str, choices: tuple[str, ...]) -> str:
    value = _env_default(name, choices[0])
    if value not in choices:
        _fail(None, f"PMZS_{name}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _common_flags() -> tuple[_Arg, ...]:
    """The flags every command takes, with their PMZS_<FLAG> defaults.

    A bad PMZS_FORMAT or PMZS_NO_PRUNE is refused here, whatever argv says.
    Every other string default is checked like its flag, in this order, and
    only where argv omits the flag: so ``PMZS_JOBS=x pmzs group C4 --jobs 2``
    runs.
    """
    defaults = DEFAULT_LIMITS
    return (
        _Arg("--format", "table, json or csv", _env_choice("FORMAT", _FORMATS), _format),
        _Arg("--cache-dir", "directory of the persistent atom cache", _env_default("CACHE_DIR", None)),
        _Arg("--jobs", "worker processes for delta-star and verify", _env_default("JOBS", "1"), _positive_int),
        _Arg("--max-atom-len", "cap on atom length", _env_default("MAX_ATOM_LEN", str(defaults.max_atom_length)), _positive_int),
        _Arg("--max-order", "largest group order whose delta-star report lists every orbit",
             _env_default("MAX_ORDER", str(defaults.max_sweep_order)), _positive_int),
        _Arg("--no-prune", "evaluate every orbit representative of the sweep", _env_flag("NO_PRUNE"), None),
        _Arg("--rho-cap", "largest k of rho_k", _env_default("RHO_CAP", str(defaults.rho_cap)), _positive_int),
        _Arg("--max-support", "cap on the size of a folded subset", _env_default("MAX_SUPPORT", str(defaults.max_support)), _positive_int),
    )


# each command's help line and its own arguments; every command also takes
# the common flags
_ARGUMENTS = {
    "group": ("structural invariants of a group", (_Arg("group"),)),
    "atoms": ("complete atom list over a subset", (
        _Arg("group"),
        _Arg("subset", "subset literal like '[(1),(3)]', or 'all' for G minus 0"),
    )),
    "min-delta": ("exact minimal distance over a subset", (_Arg("group"), _Arg("subset"))),
    "lengths": ("set of factorization lengths of a sequence", (
        _Arg("group"),
        _Arg("sequence", "sequence literal like '[(1)^10]'"),
    )),
    "rho": ("k-th local elasticity", (
        _Arg("group"),
        _Arg("subset", default="all"),
        _Arg("-k", default=2, convert=_int),
    )),
    "delta-star": ("sweep minimal distances over subsets", (_Arg("group"),)),
    "davenport": ("Davenport constant of the group or of the monoid over a subset", (
        _Arg("group"),
        _Arg("subset", default=None),
    )),
    "verify": ("run the mechanical verification suite", (
        _Arg("target", "a group literal, or 'all-small'"),
        _Arg("--out", "also write the JSON report to this path", None),
    )),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: pmzs [-h] {" + ",".join(_ARGUMENTS) + "} ..."
    words = [f"usage: pmzs {command} [-h] [common flags]"]
    for arg in _ARGUMENTS[command][1]:
        if arg.name[0] == "-":
            words.append(f"[{arg.name} {arg.dest.upper()}]")
        else:
            words.append(arg.name if arg.default is _REQUIRED else f"[{arg.name}]")
    return " ".join(words)


def _fail(command: str | None, message: str):
    """Refuse argv: the usage line of ``command`` (of pmzs itself for None)
    and the message go to stderr, and the run exits 1."""
    print(_usage(command), file=sys.stderr)
    print(f"pmzs{'' if command is None else ' ' + command}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_DOMAIN)


def _help_line(arg: _Arg) -> str:
    name = arg.name if arg.name[0] != "-" or arg.convert is None else f"{arg.name} {arg.dest.upper()}"
    return f"  {name:<22} {arg.help}".rstrip() if len(name) <= 22 else f"  {name}\n  {'':<22} {arg.help}"


def _help(command: str | None, common: tuple[_Arg, ...] = ()):
    """Print the help of ``command`` (of pmzs itself for None) and exit 0."""
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Invariants of plus-minus weighted zero-sum sequence monoids.", "", "commands:"]
        lines += [f"  {name:<12} {text}" for name, (text, _) in _ARGUMENTS.items()]
        lines += ["", "Run 'pmzs <command> --help' for the arguments of a command."]
    else:
        text, own = _ARGUMENTS[command]
        lines += [text, "", "arguments:", *map(_help_line, (*own, _HELP)), ""]
        lines += ["common flags (each also read from PMZS_<FLAG>, e.g. PMZS_JOBS):", *map(_help_line, common)]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _is_negative_number(word: str) -> bool:
    whole, dot, fraction = word[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _flag_of(word: str, flags: dict[str, _Arg]) -> tuple[_Arg | None, str | None] | None:
    """How ``word`` reads against ``flags``: None for a positional word, else
    the flag (None for an unknown one) and the value given in the same word,
    after ``=`` or after a one-letter flag (None if there is none)."""
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return flags[word], None
    name, equals, value = word.partition("=")
    if equals and name in flags:
        return flags[name], value
    if word[1] != "-" and word[:2] in flags:
        return flags[word[:2]], word[2:]
    if _is_negative_number(word) or " " in word:
        return None
    return None, None


def _fill(run: list[str], dashes: int | None, positionals: list[_Arg], values: dict) -> list[str]:
    """Give one run of positional words to the positionals not yet filled, in
    order, and return the words left over.  A positional takes one word; an
    optional one that the run does not reach keeps its default and is done.
    The '--' at index ``dashes`` of the run goes with the positional beside
    it.  So in ``rho C4 -k 3 [(1)]`` the first run fills both positionals and
    ``[(1)]`` is left over, a usage error, as argparse read it."""
    i = 0
    while positionals:
        arg = positionals[0]
        j = i + (i == dashes)
        if j < len(run):
            values[arg.dest] = run[j]
            j += 1
        elif arg.default is _REQUIRED:
            break
        i = j + (j == dashes)
        del positionals[0]
    return run[i:]


def _parse_command(command: str, words: list[str], common: tuple[_Arg, ...]) -> tuple[dict, list[str]]:
    """The values of ``command``'s arguments in ``words``, and the words left
    over; a refused argv exits through :func:`_fail`."""
    arguments = (*common, *_ARGUMENTS[command][1])
    flags = dict(_HELP_FLAGS)
    flags.update((arg.name, arg) for arg in arguments if arg.name[0] == "-")
    positionals = [arg for arg in arguments if arg.name[0] != "-"]
    values = {"command": command}
    values.update((arg.dest, arg.default) for arg in arguments if arg.default is not _REQUIRED)
    given, left_over, run, dashes = set(), [], [], None
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if dashes is None and word == "--":  # every later word is positional
            dashes = len(run)
        found = None if dashes is not None else _flag_of(word, flags)
        if found is None:
            run.append(word)
            continue
        if run:
            left_over += _fill(run, None, positionals, values)
            run = []
        arg, value = found
        if arg is None:
            left_over.append(word)
            continue
        if arg.convert is None:
            if value is not None:
                _fail(command, f"argument {arg.name}: ignored explicit argument {value!r}")
            if arg is _HELP:
                _help(command, common)
            values[arg.dest] = True
        else:
            if value is None:
                if i == len(words) or words[i] == "--" or _flag_of(words[i], flags) is not None:
                    _fail(command, f"argument {arg.name}: expected one argument")
                value = words[i]
                i += 1
            try:
                values[arg.dest] = arg.convert(value)
            except ValueError as exc:
                _fail(command, f"argument {arg.name}: {exc}")
        given.add(arg)
    left_over += _fill(run, dashes, positionals, values)
    for arg in arguments:
        if arg.name[0] == "-" and arg not in given and isinstance(arg.default, str):
            try:
                values[arg.dest] = arg.convert(arg.default)
            except ValueError as exc:
                _fail(command, f"argument {arg.name}: {exc}")
    missing = [arg.name for arg in positionals if arg.default is _REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return values, left_over


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and every argument of ``argv``, by name.  Help exits 0 and
    a refused argv exits 1, both as SystemExit."""
    common = _common_flags()
    left_over = []
    for i, word in enumerate(argv):
        # a '--' before the command is read as the command, unless it is the last word
        found = None if word == "--" and i + 1 < len(argv) else _flag_of(word, _HELP_FLAGS)
        if found is None:
            break
        arg, value = found
        if arg is None:
            left_over.append(word)
        elif value is not None:
            _fail(None, f"argument {arg.name}: ignored explicit argument {value!r}")
        else:
            _help(None)
    else:
        _fail(None, "the following arguments are required: command")
    if word not in _ARGUMENTS:
        _fail(None, f"argument command: invalid choice: {word!r} (choose from {', '.join(map(repr, _ARGUMENTS))})")
    values, unknown = _parse_command(word, argv[i + 1:], common)
    if left_over or unknown:
        _fail(None, f"unrecognized arguments: {' '.join(left_over + unknown)}")
    return SimpleNamespace(**values)


def _limits_from(args) -> Limits:
    return Limits(
        max_support=args.max_support,
        max_atom_length=args.max_atom_len,
        max_sweep_order=args.max_order,
        rho_cap=args.rho_cap,
    )


def _pool(jobs: int):
    """The run's process pool of ``jobs`` workers, at most one per CPU (fork
    starts every worker at the first task), or a null context for one job.

    The pool's modules (``concurrent.futures.process``, ``multiprocessing``)
    are imported here, only for ``jobs > 1``: they add about 2.5 MB and 25 ms
    to the start-up of every process that imports them.
    """
    if jobs <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))


def _cache_from(args) -> AtomCache | None:
    return AtomCache(args.cache_dir) if args.cache_dir else None


def _subset_from(args, group) -> Iterable[GroupElement]:
    """The elements of the subset argument; ``all`` is G minus 0, a generator
    that lists nothing until it is read, and then only once
    :func:`check_atom_caps` admits it.  So G minus 0 is refused from its size
    alone, and ``rho`` at k = 1 or past its cap lists nothing."""
    if args.subset == "all":
        return _nonzero_elements(group, _limits_from(args))
    return parse_subset(group, args.subset)


def _nonzero_elements(group, limits: Limits) -> Iterator[GroupElement]:
    check_atom_caps(group, None, limits)
    yield from map(group.element_at, range(1, group.order))


def _json_text(payload: dict) -> str:
    """The text ``json.dumps(payload, sort_keys=True, indent=2)`` returns, for
    the values of pmzs reports: dicts with str keys, lists, tuples, str, int,
    bool and None.

    ``json`` runs its C encoder only without ``indent``, so the text is
    written here rather than by its pure-Python encoder, which makes about
    ten calls per value.  Strings go through ``encode_basestring_ascii``, as
    in ``json.dumps``.  Any other value, or a key that is not a str, is a
    TypeError.
    """
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline: str, write: Callable[[str], None]) -> None:
    """Write ``value`` as ``json.dumps`` with sorted keys and indent 2 does,
    at the depth whose line break, indent included, is ``newline``."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            write(opener)
            _write_json(item, inner, write)
            opener = "," + inner
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            # a key that is not a str is a TypeError here, or in the sort
            write(opener + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, write)
            opener = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(
    args,
    payload: dict,
    table: Callable[[], Iterable[str]],
    csv_rows: Callable[[], Iterable[list]] | None = None,
    json_text: str | None = None,
) -> None:
    """Print the report in the chosen format.

    ``table`` and ``csv_rows`` build the table lines and the CSV rows, and
    only the chosen format's builder runs.  Without ``csv_rows`` the CSV
    holds one row per payload key.  ``json_text`` is the payload already
    encoded, if it is.
    """
    if args.format == "json":
        print(json_text or _json_text(payload))
    elif args.format == "csv":
        out = io.StringIO()
        rows = csv_rows() if csv_rows is not None else ([k, payload[k]] for k in sorted(payload))
        csv.writer(out).writerows(rows)
        print(out.getvalue(), end="")
    else:
        for line in table():
            print(line)


def _cmd_group(args) -> int:
    group = parse_group(args.group)
    info = group_invariants(group)
    try:
        d_exact = davenport(group)
        d_text = str(d_exact)
    except ResourceLimitError as exc:
        d_exact = None
        d_text = f">= {exc.lower_bound} (search capped)"
    payload = {
        "group": format_group(group),
        "order": info.order,
        "exponent": info.exponent,
        "rank": info.rank,
        "d_star": info.d_star,
        "davenport": d_exact,
        "m_ranks": {str(p): r for p, r in info.m_ranks.items()},
    }

    def table():
        yield f"group      {payload['group']}"
        yield f"order      {info.order}"
        yield f"exponent   {info.exponent}"
        yield f"rank       {info.rank}"
        for p, r in info.m_ranks.items():
            yield f"r_{p}        {r}"
        yield f"D*         {info.d_star}"
        yield f"D          {d_text}"

    _emit(args, payload, table)
    return EXIT_OK


def _cmd_atoms(args) -> int:
    group = parse_group(args.group)
    subset = _subset_from(args, group)
    atoms = enumerate_atoms(group, subset, limits=_limits_from(args), cache=_cache_from(args))
    profile = atom_length_profile(atoms)
    payload = atoms.to_json_dict()
    payload.update({
        "count": len(atoms),
        "max_length": profile.max_length,
        "gcd_lengths_minus_2": profile.gcd_lengths_minus_2,
    })

    def table():
        yield (f"{len(atoms)} atoms over {format_subset(atoms.ground)} in {format_group(group)}"
               + (" (plus the prime atom (0))" if atoms.includes_zero else ""))
        for k in range(len(atoms)):
            yield f"  {atoms.sequence(k)}   length {sum(atoms.vectors[k])}"
        yield f"max length {profile.max_length}"
        yield f"gcd(length-2) {profile.gcd_lengths_minus_2}"

    def csv_rows():
        yield ["atom", "length"]
        for k in range(len(atoms)):
            yield [str(atoms.sequence(k)), sum(atoms.vectors[k])]

    _emit(args, payload, table, csv_rows)
    return EXIT_OK


def _cmd_min_delta(args) -> int:
    group = parse_group(args.group)
    subset = tuple(_subset_from(args, group))
    atoms = enumerate_atoms(group, subset, limits=_limits_from(args), cache=_cache_from(args))
    value = min_delta_of_atoms(atoms)
    payload = {
        "group": format_group(group),
        "subset": subset_to_json(subset),
        "min_delta": value,
    }
    text = "empty distance set" if value is None else str(value)
    _emit(args, payload, lambda: [f"min delta = {text}"])
    return EXIT_OK


def _cmd_lengths(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.sequence)
    atoms = enumerate_atoms(group, seq.support, limits=_limits_from(args), cache=_cache_from(args))
    result = Factorizer(atoms).factorizations(seq)
    payload = result.to_json_dict()
    _emit(args, payload, lambda: [
        f"element        {seq}",
        f"factorizations {len(result.factorizations)}",
        f"lengths        {{{', '.join(map(str, result.lengths))}}}",
        f"delta          {{{', '.join(map(str, result.delta))}}}",
    ])
    return EXIT_OK


def _cmd_rho(args) -> int:
    group = parse_group(args.group)
    subset = _subset_from(args, group)
    value = rho_k(group, subset, args.k, limits=_limits_from(args), cache=_cache_from(args))
    payload = {"group": format_group(group), "k": args.k, "rho_k": value}
    _emit(args, payload, lambda: [f"rho_{args.k} = {value}"])
    return EXIT_OK


def _cmd_delta_star(args) -> int:
    group = parse_group(args.group)
    report = delta_star(
        group,
        limits=_limits_from(args),
        map_rows=args.map_rows,
        prune=not args.no_prune,
        cache=_cache_from(args),
    )

    def table():
        values = "{" + ", ".join(map(str, report.delta_star)) + "}"
        yield (f"delta*({format_group(group)}) = {values}   max = {report.max_delta}"
               + ("" if report.complete else "   [partial sweep]")
               + ("   [evaluated rows only]" if report.evaluated_only else ""))
        for subset, value in report.table:
            yield f"  {format_subset(report.subset_elements(subset))}   min delta = {value}"
        for subset, reason in report.skipped:
            yield f"  {format_subset(report.subset_elements(subset))}   skipped: {reason}"

    def csv_rows():
        yield ["subset", "min_delta"]
        for subset, value in report.table:
            yield [format_subset(report.subset_elements(subset)), "" if value is None else value]

    _emit(args, report.to_json_dict(), table, csv_rows)
    return EXIT_OK


def _cmd_davenport(args) -> int:
    group = parse_group(args.group)
    if args.subset is None:
        value = davenport(group)
        payload = {"group": format_group(group), "davenport_group": value}
        _emit(args, payload, lambda: [f"D({format_group(group)}) = {value}"])
    else:
        subset = tuple(_subset_from(args, group))
        value = davenport_monoid(group, subset, limits=_limits_from(args), cache=_cache_from(args))
        payload = {
            "group": format_group(group),
            "subset": subset_to_json(subset),
            "davenport_monoid": value,
        }
        _emit(args, payload, lambda: [f"D(monoid) = {value}"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    # open --out first, so a bad path fails before the suite runs
    with open(args.out, "w") if args.out else nullcontext() as out_file:
        result = run_suite(
            args.target,
            limits=_limits_from(args),
            map_rows=args.map_rows,
            prune=not args.no_prune,
            cache=_cache_from(args),
        )
        payload = result.to_json_dict()
        # the file and a JSON stdout share one encoding of the report
        text = None
        if out_file is not None:
            text = _json_text(payload)
            out_file.write(text)

    def table():
        width = max(len(c.check_id) for c in result.checks) + 2
        for c in result.checks:
            marker = {NOT_APPLICABLE: "n/a ", FAIL: "FAIL"}.get(c.status, "ok  ")
            line = f"{marker}  {c.check_id:<{width}} {c.group}"
            if c.status == FAIL:
                line += f"   {c.details}"
            yield line
        counts = payload["counts"]
        yield f"{counts['pass']} passed, {counts['fail']} failed, {counts['not_applicable']} not applicable"

    def csv_rows():
        yield ["check", "group", "status"]
        for c in result.checks:
            yield [c.check_id, c.group, c.status]

    _emit(args, payload, table, csv_rows, text)
    return EXIT_OK if result.passed else EXIT_VERIFY


_COMMANDS = {
    "group": _cmd_group,
    "atoms": _cmd_atoms,
    "min-delta": _cmd_min_delta,
    "lengths": _cmd_lengths,
    "rho": _cmd_rho,
    "delta-star": _cmd_delta_star,
    "davenport": _cmd_davenport,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        # only the sweeps use a pool; the other commands pay no pool import
        with _pool(args.jobs if args.command in ("delta-star", "verify") else 1) as pool:
            args.map_rows = map if pool is None else pool.map
            return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PmzsError, OSError) as exc:  # OSError: an unwritable --out path or a --cache-dir that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
