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
import math
import os
import re
import sys
from pathlib import Path

# only what argument parsing needs, none of it numpy: each command imports
# the modules it runs, so that a short call loads no experiment driver or
# process pool, and --version, --help or a usage error no numpy
from listfair import FIXED, MAX_SAMPLE_SIZE, THEORETICAL, __version__
from listfair.errors import ListFairError

_ENV_SEED = "LISTFAIR_SEED"

# the --mode choices of sample; the library infers the mode from perc_fs
_PROPORTIONAL = "proportional"
_STRATIFIED = "stratified"

# a sign and decimal digits: a numeral that int() refuses only for its length
_NUMERAL = re.compile(r"[+-]?\d+")

# the experiment kind of each command-line spelling
_EXPERIMENT_KINDS = {"percf": "percf", "rnd-grid": "rnd_grid", "rnd-size": "rnd_size"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        if sys.stdout is None:  # started with stdout closed
            raise ListFairError("stdout is closed; name a file with --out")
        yield sys.stdout
    else:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            yield fh


def _shown(text: str) -> str:
    """A value as a usage error shows it: quoted, or by its length if over 40 characters."""
    return repr(text) if len(text) <= 40 else f"a value of {len(text)} characters"


def _int(text: str, flag: str) -> int:
    """int(text), except that a numeral too long for int() is a usage error giving its length."""
    try:
        return int(text)
    except ValueError:
        if not _NUMERAL.fullmatch(text.strip()):
            raise
    raise _UsageError(f"{flag} has too many digits: {len(text.strip().lstrip('+-'))}")


def _number(flag: str, convert, within, bounds: str):
    """The argparse type of a numeric flag: ``convert`` (int or float) of the value, which
    ``within`` accepts and ``bounds`` describes. argparse lets a usage error through unchanged."""

    def parse(text: str):
        try:
            value = _int(text, flag) if convert is int else convert(text)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {convert.__name__} value: {_shown(text)}") from None
        if not within(value):
            raise _UsageError(f"{flag} {bounds}, got {value}")
        return value

    return parse


def _int_in(flag: str, low: int, high: int | None = None):
    """The type of an integer flag: at least ``low``, and below ``high`` (a power of two) if given."""
    bounds = f"must be >= {low}" + ("" if high is None else f" and < 2**{high.bit_length() - 1}")
    return _number(flag, int, lambda value: low <= value and (high is None or value < high), bounds)


def _share(flag: str):
    return _number(flag, float, lambda share: 0.0 <= share <= 1.0, "must lie in [0, 1]")


def _parse_years(text: str) -> tuple[int, int]:
    first, sep, last = text.partition(":")
    if not sep or not first.strip().isdecimal() or not last.strip().isdecimal():
        raise _UsageError(f"--years must look like 1990:2000, got {_shown(text)}")
    years = _int(first, "--years"), _int(last, "--years")
    if years[0] > years[1]:
        raise _UsageError(f"--years must not end before it starts, got {_shown(text)}")
    return years


def _parse_page_sizes(text: str) -> list[int]:
    try:
        sizes = [_int(part, "--page-sizes") for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"--page-sizes must be comma-separated integers, got {_shown(text)}") from None
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
            raise _UsageError(f"fixed normalizer needs a number, got {_shown(value)}") from None
        if 0.0 < z < math.inf:  # false for NaN
            return z
        raise _UsageError(f"--normalizer fixed:Z needs a finite Z > 0, got {z}")
    raise _UsageError(f"--normalizer must be 'theoretical' or 'fixed:Z', got {_shown(text)}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is None:
        raise _UsageError(f"provide --seed or set {_ENV_SEED}")
    if not _NUMERAL.fullmatch(env.strip()):
        raise _UsageError(f"{_ENV_SEED} must be an integer, got {_shown(env)}")
    return _int_in(_ENV_SEED, 0, 2**64)(env)


def _write_report(report: dict, as_json: bool, out: str | None) -> None:
    """A metric report as sorted JSON, or as one ``key value`` line per
    scalar entry in key order."""
    with _open_out(out) as fh:
        if as_json:
            import json

            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        for key, value in report.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, float):
                value = format(value, ".6g")
            elif not isinstance(value, str):
                continue
            fh.write(f"{key} {value}\n")


def _cmd_convert_ssa(args) -> int:
    from listfair.dataset import load_ssa_yearfiles, write_canonical

    ds = load_ssa_yearfiles(args.dir, args.years)
    write_canonical(ds, args.out)
    return 0


def _cmd_sample(args) -> int:
    from listfair.dataset import dump_sample_csv, load_canonical
    from listfair.sampling import draw_sample
    from listfair.streams import random_stream

    # --perc-fs implies stratified mode; --mode only needs to be spelled
    # out when it contradicts that inference
    if args.mode == _PROPORTIONAL and args.perc_fs is not None:
        raise _UsageError("--perc-fs conflicts with --mode proportional")
    if args.mode == _STRATIFIED and args.perc_fs is None:
        raise _UsageError("--mode stratified needs --perc-fs")
    seed = _resolve_seed(args)
    ds = load_canonical(args.dataset)
    try:
        indices = draw_sample(ds, args.n, random_stream(seed, args.stream), args.perc_fs)
        with _open_out(args.out) as fh:
            dump_sample_csv([ds.names[i] for i in indices.tolist()], ds.is_female[indices], fh)
    except MemoryError:
        raise ListFairError(f"not enough memory for a sample of --n {args.n}") from None
    return 0


def _cmd_sort(args) -> int:
    from listfair.dataset import dump_sample_csv, read_sample_csv
    from listfair.ordering import sort_alphabetical

    names, mask = read_sample_csv(args.infile)
    order = sort_alphabetical(names)
    with _open_out(args.out) as fh:
        dump_sample_csv([names[i] for i in order.tolist()], mask[order], fh)
    return 0


def _cmd_curve(args) -> int:
    from listfair.dataset import dump_curve_csv, read_sample_csv
    from listfair.metrics import perc_f_curve

    _, mask = read_sample_csv(args.infile)
    curve = perc_f_curve(mask)
    with _open_out(args.out) as fh:
        dump_curve_csv(curve, fh)
    return 0


def _cmd_rnd(args) -> int:
    from listfair.dataset import read_sample_csv
    from listfair.metrics import rnd

    _, mask = read_sample_csv(args.infile)
    _write_report(rnd(mask, step=args.step, z=args.normalizer), args.json, args.out)
    return 0


def _cmd_parity(args) -> int:
    from listfair.dataset import read_sample_csv
    from listfair.metrics import statistical_parity

    _, mask = read_sample_csv(args.infile)
    _write_report(statistical_parity(mask, args.reference), args.json, args.out)
    return 0


def _cmd_audit(args) -> int:
    from listfair.dataset import dump_audit_rows, read_candidate_list
    from listfair.metrics import page_audit

    names, mask = read_candidate_list(args.infile)
    # derived from the list itself unless given; the CSV prints its repr
    perc_fd = int(mask.sum()) / len(mask) if args.perc_fd is None else args.perc_fd
    rows = page_audit(names, mask, args.page_sizes, perc_fd)
    with _open_out(args.out) as fh:
        dump_audit_rows(Path(args.infile).stem, len(mask), perc_fd, rows, fh)
    # a note, not a failure: written as _failed writes, so that a closed stderr keeps exit 0
    return _failed(f"below_cells {sum(below for _, _, below in rows)}", 0)


def _cmd_experiment(args) -> int:
    from listfair.experiments import ExperimentConfig, run_experiment

    cfg = ExperimentConfig.from_json_file(args.config)
    try:
        run_experiment(_EXPERIMENT_KINDS[args.kind], cfg, out_dir=args.out, jobs=args.jobs)
    except MemoryError:
        raise ListFairError(f"not enough memory for experiment {args.kind} of --config {args.config}") from None
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="listfair",
        description="Measure the gender imbalance that alphabetical ordering "
        "of first names induces on paginated screens.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("convert-ssa", help="merge yob<YEAR>.txt files into a canonical dataset CSV")
    p.add_argument("--dir", required=True, help="directory holding yob<YEAR>.txt files")
    p.add_argument("--years", required=True, type=_parse_years, help="inclusive year range, e.g. 1939:2017")
    p.add_argument("--out", required=True, help="canonical CSV to write")
    p.set_defaults(func=_cmd_convert_ssa)

    p = sub.add_parser("sample", help="draw a seeded sample from a dataset")
    p.add_argument("--dataset", required=True, help="canonical dataset CSV")
    p.add_argument("--n", required=True, type=_int_in("--n", 1, MAX_SAMPLE_SIZE), help="sample size")
    p.add_argument(
        "--mode",
        choices=[_PROPORTIONAL, _STRATIFIED],
        default=None,
        help="sampling mode (default: stratified when --perc-fs is given, else proportional)",
    )
    p.add_argument(
        "--perc-fs", type=_share("--perc-fs"), default=None, help="stratified female share in [0, 1]"
    )
    p.add_argument(
        "--seed", type=_int_in("--seed", 0, 2**64), default=None, help=f"RNG seed (default: ${_ENV_SEED})"
    )
    p.add_argument("--stream", type=_int_in("--stream", 0), default=0, help="substream index (default 0)")
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
    p.add_argument("--step", type=_int_in("--step", 2), default=10, help="checkpoint step (default 10)")
    p.add_argument(
        "--normalizer", type=_parse_normalizer, default=THEORETICAL, help="'theoretical' (default) or 'fixed:Z'"
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_rnd)

    p = sub.add_parser("parity", help="exact binomial parity test of a sample")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV to read")
    p.add_argument("--reference", required=True, type=_share("--reference"), help="reference female share")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("audit", help="first-page audit of a concrete name,gender list")
    p.add_argument("--in", dest="infile", required=True, help="candidate list CSV to read")
    p.add_argument(
        "--page-sizes", required=True, type=_parse_page_sizes, help="comma-separated page sizes, e.g. 5,9,15"
    )
    p.add_argument(
        "--perc-fd",
        type=_share("--perc-fd"),
        default=None,
        help="expected female share (default: derived from the list itself)",
    )
    p.add_argument("--out", default=None, help="audit CSV to write (default stdout)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a full experiment from a config file")
    p.add_argument("kind", choices=sorted(_EXPERIMENT_KINDS), help="experiment kind")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="result directory to write")
    p.add_argument("--jobs", type=_int_in("--jobs", 1), default=1, help="parallel workers (default 1)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def _failed(message: str, code: int) -> int:
    """``code``, after writing ``message`` to stderr if stderr is open."""
    with contextlib.suppress(AttributeError, OSError):  # stderr is None, or its fd closed
        sys.stderr.write(f"{message}\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _failed(f"usage error: {exc}", 1)
    except SystemExit as exc:
        # argparse exits directly for --help/--version; keep 0 as 0 and
        # map anything else onto the usage-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        return _failed(f"usage error: {exc}", 1)
    except (ListFairError, ValueError, OSError) as exc:
        return _failed(f"error: {exc}", 2)


def run() -> None:
    raise SystemExit(main())
