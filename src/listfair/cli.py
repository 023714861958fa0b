"""Command-line interface.

One executable with a subcommand per pipeline stage::

    listfair convert-ssa --dir D --years A:B --out F
    listfair sample --dataset F --n N [--mode proportional | --perc-fs P] --seed S --out F
    listfair sort --in F --out F
    listfair curve --in F [--out F]
    listfair rnd --in F [--step K] [--normalizer theoretical|fixed:Z] [--json] [--out F]
    listfair parity --in F --reference P [--json] [--out F]
    listfair audit --in F --page-sizes 5,9,15 [--perc-fd P] [--out F]
    listfair experiment {percf,rnd-grid,rnd-size} --config F --out DIR [--jobs N]

Exit codes: 0 success, 1 usage error, 2 data or validation error.
``curve``, ``rnd``, ``parity`` and ``audit`` print to stdout when
``--out`` is absent; the other commands require it. The
``LISTFAIR_SEED`` environment variable supplies a default for ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from listfair import __version__
from listfair.dataset import load_canonical, load_ssa_yearfiles, write_canonical
from listfair.errors import ListFairError
from listfair.experiments import (
    ExperimentConfig,
    PERCF,
    RND_GRID,
    RND_SIZE,
    run_candidate_audit,
    run_experiment,
)
from listfair.metrics import (
    FIXED,
    THEORETICAL,
    dump_audit_rows,
    dump_curve_csv,
    perc_f_curve,
    rnd,
    statistical_parity,
)
from listfair.ordering import sort_alphabetical
from listfair.sampling import (
    MAX_SAMPLE_SIZE,
    RandomSource,
    draw_sample,
    dump_sample_csv,
    read_sample_csv,
)

ENV_SEED = "LISTFAIR_SEED"

# the --mode choices of sample; the library infers the mode from perc_fs
PROPORTIONAL = "proportional"
STRATIFIED = "stratified"

# a sign and decimal digits: a numeral that int() refuses only for its length
_NUMERAL = re.compile(r"[+-]?\d+")

_EXPERIMENT_KINDS = {"percf": PERCF, "rnd-grid": RND_GRID, "rnd-size": RND_SIZE}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            yield fh


def _decimal(text: str, what: str) -> int:
    """The value of a numeral already checked to be decimal; int() refuses
    one of more than a few thousand digits."""
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} has too many digits: {len(text.strip().lstrip('+-'))}") from None


def _integer(flag: str):
    """The argparse type of an integer flag: int(), except that a numeral
    too long for int() is a usage error giving its length, not its digits."""

    def parse(text: str) -> int:
        return _decimal(text, flag) if _NUMERAL.fullmatch(text.strip()) else int(text)

    # argparse names the type when int() refuses a value: "invalid int value"
    parse.__name__ = "int"
    return parse


def _parse_years(text: str) -> tuple[int, int]:
    first, sep, last = text.partition(":")
    if not sep or not first.strip().isdecimal() or not last.strip().isdecimal():
        raise _UsageError(f"--years must look like 1990:2000, got {text!r}")
    return _decimal(first, "--years"), _decimal(last, "--years")


def _parse_page_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"--page-sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise _UsageError("--page-sizes must name at least one size")
    if min(sizes) < 1:
        raise _UsageError(f"--page-sizes entries must be >= 1, got {min(sizes)}")
    return sizes


def _parse_normalizer(text: str) -> float | None:
    """The fixed Z that ``text`` names, or None for the theoretical one."""
    if text == THEORETICAL:
        return None
    if text.startswith(f"{FIXED}:"):
        value = text[len(FIXED) + 1 :]
        try:
            z = float(value)
        except ValueError:
            raise _UsageError(f"fixed normalizer needs a number, got {value!r}") from None
        if 0.0 < z < math.inf:  # false for NaN
            return z
        raise _UsageError(f"--normalizer fixed:Z needs a finite Z > 0, got {z}")
    raise _UsageError(f"--normalizer must be 'theoretical' or 'fixed:Z', got {text!r}")


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(ENV_SEED)
        if env is None:
            raise _UsageError(f"provide --seed or set {ENV_SEED}")
        if not env.strip().lstrip("+").isdecimal():
            raise _UsageError(f"{ENV_SEED} must be an integer, got {env!r}")
        seed, source = _decimal(env, ENV_SEED), ENV_SEED
    if not 0 <= seed < 2**64:
        raise _UsageError(f"{source} must be >= 0 and < 2**64, got {seed}")
    return seed


def _write_report(report, as_json: bool, out: str | None) -> None:
    """A metric report as sorted JSON, or as one ``key value`` line per
    scalar field in field order."""
    fields = asdict(report)
    with _open_out(out) as fh:
        if as_json:
            json.dump(fields, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        for key, value in fields.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, float):
                value = format(value, ".6g")
            elif not isinstance(value, str):
                continue
            fh.write(f"{key} {value}\n")


def _cmd_convert_ssa(args) -> int:
    ds = load_ssa_yearfiles(args.dir, _parse_years(args.years))
    write_canonical(ds, args.out)
    return 0


def _cmd_sample(args) -> int:
    # --perc-fs implies stratified mode; --mode only needs to be spelled
    # out when it contradicts that inference
    if args.mode == PROPORTIONAL and args.perc_fs is not None:
        raise _UsageError("--perc-fs conflicts with --mode proportional")
    if args.mode == STRATIFIED and args.perc_fs is None:
        raise _UsageError("--mode stratified needs --perc-fs")
    seed = _resolve_seed(args)
    if args.stream < 0:
        raise _UsageError(f"--stream must be >= 0, got {args.stream}")
    if not 1 <= args.n < MAX_SAMPLE_SIZE:
        raise _UsageError(f"--n must be >= 1 and < 2**28, got {args.n}")
    if args.perc_fs is not None and not 0.0 <= args.perc_fs <= 1.0:
        raise _UsageError(f"--perc-fs must lie in [0, 1], got {args.perc_fs}")
    ds = load_canonical(args.dataset)
    rng = RandomSource(seed, args.stream)
    indices = draw_sample(ds, args.n, rng, args.perc_fs)
    with _open_out(args.out) as fh:
        dump_sample_csv([ds.names[i] for i in indices.tolist()], ds.is_female[indices], fh)
    return 0


def _cmd_sort(args) -> int:
    names, mask = read_sample_csv(args.infile)
    order = sort_alphabetical(names)
    with _open_out(args.out) as fh:
        dump_sample_csv([names[i] for i in order.tolist()], mask[order], fh)
    return 0


def _cmd_curve(args) -> int:
    _, mask = read_sample_csv(args.infile)
    curve = perc_f_curve(mask)
    with _open_out(args.out) as fh:
        dump_curve_csv(curve, fh)
    return 0


def _cmd_rnd(args) -> int:
    if args.step < 2:
        raise _UsageError(f"--step must be >= 2, got {args.step}")
    z = _parse_normalizer(args.normalizer)
    _, mask = read_sample_csv(args.infile)
    _write_report(rnd(mask, step=args.step, z=z), args.json, args.out)
    return 0


def _cmd_parity(args) -> int:
    if not 0.0 <= args.reference <= 1.0:
        raise _UsageError(f"--reference must lie in [0, 1], got {args.reference}")
    _, mask = read_sample_csv(args.infile)
    _write_report(statistical_parity(mask, args.reference), args.json, args.out)
    return 0


def _cmd_audit(args) -> int:
    page_sizes = _parse_page_sizes(args.page_sizes)
    if args.perc_fd is not None and not 0.0 <= args.perc_fd <= 1.0:
        raise _UsageError(f"--perc-fd must lie in [0, 1], got {args.perc_fd}")
    result = run_candidate_audit([args.infile], page_sizes, perc_fd=args.perc_fd)
    with _open_out(args.out) as fh:
        dump_audit_rows(result.rows, fh)
    print(f"below_cells {result.below_cells}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = ExperimentConfig.from_json_file(args.config)
    run_experiment(_EXPERIMENT_KINDS[args.kind], cfg, out_dir=args.out, jobs=args.jobs)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="listfair",
        description="Measure the gender imbalance that alphabetical ordering "
        "of first names induces on paginated screens.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("convert-ssa", help="merge yob<YEAR>.txt files into a canonical dataset CSV")
    p.add_argument("--dir", required=True, help="directory holding yob<YEAR>.txt files")
    p.add_argument("--years", required=True, help="inclusive year range, e.g. 1939:2017")
    p.add_argument("--out", required=True, help="canonical CSV to write")
    p.set_defaults(func=_cmd_convert_ssa)

    p = sub.add_parser("sample", help="draw a seeded sample from a dataset")
    p.add_argument("--dataset", required=True, help="canonical dataset CSV")
    p.add_argument("--n", required=True, type=_integer("--n"), help="sample size")
    p.add_argument(
        "--mode",
        choices=[PROPORTIONAL, STRATIFIED],
        default=None,
        help="sampling mode (default: stratified when --perc-fs is given, else proportional)",
    )
    p.add_argument("--perc-fs", type=float, default=None, help="stratified female share in [0, 1]")
    p.add_argument("--seed", type=_integer("--seed"), default=None, help=f"RNG seed (default: ${ENV_SEED})")
    p.add_argument("--stream", type=_integer("--stream"), default=0, help="substream index (default 0)")
    p.add_argument("--out", required=True, help="sample CSV to write")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sort", help="sort a sample CSV alphabetically")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV to read")
    p.add_argument("--out", required=True, help="sorted sample CSV to write")
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("curve", help="female share of the first k positions, for every k")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV to read")
    p.add_argument("--out", default=None, help="curve CSV to write (default stdout)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("rnd", help="rND report for a displayed list")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV to read")
    p.add_argument("--step", type=_integer("--step"), default=10, help="checkpoint step (default 10)")
    p.add_argument(
        "--normalizer",
        default=THEORETICAL,
        help="'theoretical' (default) or 'fixed:Z'",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_rnd)

    p = sub.add_parser("parity", help="exact binomial parity test of a sample")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV to read")
    p.add_argument("--reference", required=True, type=float, help="reference female share")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("audit", help="first-page audit of a concrete name,gender list")
    p.add_argument("--in", dest="infile", required=True, help="candidate list CSV to read")
    p.add_argument("--page-sizes", required=True, help="comma-separated page sizes, e.g. 5,9,15")
    p.add_argument(
        "--perc-fd",
        type=float,
        default=None,
        help="expected female share (default: derived from the list itself)",
    )
    p.add_argument("--out", default=None, help="audit CSV to write (default stdout)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a full experiment from a config file")
    p.add_argument("kind", choices=sorted(_EXPERIMENT_KINDS), help="experiment kind")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="result directory to write")
    p.add_argument("--jobs", type=_integer("--jobs"), default=1, help="parallel workers (default 1)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help/--version; keep 0 as 0 and
        # map anything else onto the usage-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ListFairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
