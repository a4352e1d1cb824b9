"""Command-line interface.

Commands: group | atoms | min-delta | lengths | rho | delta-star | davenport | verify.
Output formats: table (human), json, csv.  Every flag can also be set through
an environment variable named PMZS_<FLAG> (upper case, dashes to underscores).

Exit codes: 0 success, 1 domain or usage error, 2 resource cap exceeded,
3 verification suite failure.  ``verify`` reports a check over a cap as not
applicable, so it exits 0 or 3 (1 on bad input), never 2.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import locale  # noqa: F401  (see the gc.freeze() note below)
import os
import sys
from contextlib import nullcontext
from typing import Callable, Iterable, Iterator

from .atoms import AtomCache, atom_length_profile, check_atom_caps, davenport_monoid, enumerate_atoms
from .delta_star import FAIL, NOT_APPLICABLE, delta_star
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
from .suite import run_suite

# Start-up ends here.  argparse imports locale on its first parse, through
# gettext, so it is imported above with the rest; then the command loads no
# module of its own.  gc.freeze() moves every object made so far, which lives
# as long as the process, out of the collector's generations, so the
# collections that a command triggers do not scan the imported modules again.
gc.freeze()

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN)


def _env_default(name: str, fallback):
    value = os.environ.get(f"PMZS_{name}")
    return value if value is not None else fallback


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _env_flag(parser: _Parser, name: str) -> bool:
    value = _env_default(name, "0")
    try:
        return bool(int(value))
    except ValueError:
        parser.error(f"PMZS_{name}: expected an integer, got {value!r}")


def _env_choice(parser: _Parser, name: str, choices: tuple[str, ...]) -> str:
    """The PMZS_<name> value, or the first choice; argparse checks choices only on the command line."""
    value = _env_default(name, choices[0])
    if value not in choices:
        parser.error(f"PMZS_{name}: expected one of {', '.join(choices)}, got {value!r}")
    return value


# each command's help line and its own arguments, as (name, add_argument
# keywords); every command also takes the common flags
_ARGUMENTS = {
    "group": ("structural invariants of a group", [("group", {})]),
    "atoms": ("complete atom list over a subset", [
        ("group", {}),
        ("subset", {"help": "subset literal like '[(1),(3)]', or 'all' for G minus 0"}),
    ]),
    "min-delta": ("exact minimal distance over a subset", [("group", {}), ("subset", {})]),
    "lengths": ("set of factorization lengths of a sequence", [
        ("group", {}),
        ("sequence", {"help": "sequence literal like '[(1)^10]'"}),
    ]),
    "rho": ("k-th local elasticity", [
        ("group", {}),
        ("subset", {"nargs": "?", "default": "all"}),
        ("-k", {"type": int, "default": 2}),
    ]),
    "delta-star": ("sweep minimal distances over subsets", [("group", {})]),
    "davenport": ("Davenport constant of the group or of the monoid over a subset", [
        ("group", {}),
        ("subset", {"nargs": "?", "default": None}),
    ]),
    "verify": ("run the mechanical verification suite", [
        ("target", {"help": "a group literal, or 'all-small'"}),
        ("--out", {"default": None, "help": "also write the JSON report to this path"}),
    ]),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of ``command`` alone when it names one.

    ``main`` passes the first word of argv: each subparser copies the common
    flags, so building all of them costs a run several milliseconds.  The
    metavar keeps the full parser's usage line, which an error in the top
    parser prints.
    """
    parser = _Parser(prog="pmzs", description="Invariants of plus-minus weighted zero-sum sequence monoids.")
    common = argparse.ArgumentParser(add_help=False)
    formats = ("table", "json", "csv")
    common.add_argument("--format", choices=formats, default=_env_choice(parser, "FORMAT", formats))
    common.add_argument("--cache-dir", default=_env_default("CACHE_DIR", None))
    # a string default goes through ``type`` too, so a PMZS_* value is checked like its flag
    common.add_argument("--jobs", type=_positive_int, default=_env_default("JOBS", "1"))
    common.add_argument("--max-atom-len", type=_positive_int, default=_env_default("MAX_ATOM_LEN", str(DEFAULT_LIMITS.max_atom_length)))
    common.add_argument("--max-order", type=_positive_int, default=_env_default("MAX_ORDER", str(DEFAULT_LIMITS.max_sweep_order)),
                        help="largest group order whose delta-star report lists every orbit")
    common.add_argument("--no-prune", action="store_true", default=_env_flag(parser, "NO_PRUNE"))
    common.add_argument("--rho-cap", type=_positive_int, default=_env_default("RHO_CAP", str(DEFAULT_LIMITS.rho_cap)))
    common.add_argument("--max-support", type=_positive_int, default=_env_default("MAX_SUPPORT", str(DEFAULT_LIMITS.max_support)))

    if command in _ARGUMENTS:
        names = (command,)
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_ARGUMENTS) + "}")
    else:
        names = tuple(_ARGUMENTS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, arguments = _ARGUMENTS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
    return parser


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


def _emit(
    args,
    payload: dict,
    table: Callable[[], Iterable[str]],
    csv_rows: Callable[[], Iterable[list]] | None = None,
) -> None:
    """Print the report in the chosen format.

    ``table`` and ``csv_rows`` build the table lines and the CSV rows, and
    only the chosen format's builder runs.  Without ``csv_rows`` the CSV
    holds one row per payload key.
    """
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
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
        if out_file is not None:
            json.dump(payload, out_file, sort_keys=True, indent=2)

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

    _emit(args, payload, table, csv_rows)
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
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_DOMAIN
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
