"""Command-line surface: CSV in, JSON report or plot-ready CSV curves out.

Exit codes: 0 success, 2 malformed input (reported with line numbers)
or an OS error such as an unwritable output, 3 configuration error,
4 degenerate data (a single class).  Commands raise; main alone prints
the one 'error: <message>' line and exits with the error's exit_code
(errors.py).  The HMETRIC_LOG environment variable sets the log level;
nothing else is read from the environment.  Unset, nothing the package
logs (at info only) can show, so logging is not imported.

Each command imports the modules it calls where it calls them: numpy
and the numeric ones only once its config is valid; evaluate and
compare load the report code only once the input is read, so that a
missing or malformed input loads none of it, and curves never does.

``python -m hmetric.cli`` and the ``hmetric`` script run process_main:
once the command has exited and its output is flushed, the process ends
by os._exit, skipping the interpreter's teardown (clearing every module,
then a last garbage collection).  It exits normally when a flush fails,
as on a broken pipe, and under a profiler or tracer, so that they write
their output.  main(args), called from Python, ends in SystemExit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, HmetricError


def _setup_logging():
    """The level HMETRIC_LOG names (debug, info, ...); any other value,
    such as a name in logging that is not a level, means warning.  logging
    loads here and in _info only when HMETRIC_LOG is set: unset, the level
    is warning, at which the package's info records never show."""
    if "HMETRIC_LOG" not in os.environ:
        return
    import logging

    level = getattr(logging, os.environ["HMETRIC_LOG"].upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def _info(message: str, *args):
    """Log message, formatted with args, at level info."""
    if "HMETRIC_LOG" not in os.environ:
        return
    import logging

    logging.getLogger("hmetric").info(message, *args)


def _option(flag: str, dest: str | None = None, **kwargs):
    """A flag's declaration: its name and the keywords of add_argument.
    dest, the flag's name without its dashes by default, is where the
    parsed value is stored."""
    return flag, dict(kwargs, dest=dest or flag[2:].replace("-", "_"))


# The config flags every command reads, each stored under the name of the
# EvalConfig field it sets; --weight also carries a tabulated weight's path.
_SHARED_OPTIONS = (
    _option("--weight", default="default",
            help="Cost weight: 'default', 'beta', or 'tabulated:<csv path>'.  "
                 "[default: %(default)s]"),
    _option("--alpha", "weight_alpha", type=float, help="Alpha shape for --weight beta."),
    _option("--beta", "weight_beta", type=float, help="Beta shape for --weight beta."),
    _option("--prior", default="empirical",
            help="Prior handling: 'empirical', 'fixed', or 'beta' (pi0 drawn from "
                 "Beta(2,2); evaluate and compare only, with --seed).  [default: %(default)s]"),
    _option("--pi0", type=float, help="pi0 for --prior fixed."),
    _option("--mode", "threshold_mode", default="calibrated",
            help="Threshold rule: 'calibrated' or 'optimal'.  [default: %(default)s]"),
    _option("--normalize", "normalization", default="reject",
            help="Score normalization: 'reject', 'minmax' or 'logistic'.  "
                 "[default: %(default)s]"),
)
# The config flags only a report reads; --screen is a comma list.  The
# default of --mc-samples is config.BETA_PRIOR_DEFAULTS's, which the config
# fills in; it is written out here so that --help loads no config.
_REPORT_OPTIONS = (
    _option("--mc-samples", "outer_samples", type=int,
            help="Number of prior draws under --prior beta, rejected without it.  "
                 "[default: 10000]"),
    _option("--seed", type=int,
            help="Seed of the prior draws; required with --prior beta, rejected without it."),
    _option("--screen", "screen_proportions", default="",
            help="Screening proportions, e.g. '0.1,0.25'."),
    _option("--u-dist", "u_dists", action="append", default=[],
            help="Independent threshold distribution: 'pooled', "
                 "'class1-ranks' or 'point:<t>' (repeatable)."),
)
_OUT = _option("--out", default="-", help="Report path ('-' for stdout).  [default: %(default)s]")
# The bounds of curves --resolution; its default is loss.CURVE_GRID, 4096.
# The curves take the grid a slice at a time, so the ceiling, 256 times
# that, bounds the rows written (two files of 2^20 rows, about 27 MB each)
# and the time they take.
MIN_RESOLUTION = 1024
MAX_RESOLUTION = 1 << 20


def _build_config(weight, screen_proportions="", **fields):
    """The config the flags set.  Each flag is stored under its field's
    name; only --weight, which can carry a tabulated weight's path, and
    --screen, a comma list, are parsed here."""
    from .config import EvalConfig  # here, so that --help loads no config

    weight_path = None
    if weight.startswith("tabulated:"):
        weight, weight_path = "tabulated", weight.split(":", 1)[1]
    elif weight == "tabulated":
        raise ConfigError("tabulated weight needs a path: --weight tabulated:<csv path>")
    if weight == "beta" and (fields["weight_alpha"] is None or fields["weight_beta"] is None):
        raise ConfigError("--weight beta requires --alpha and --beta")
    proportions = []
    for token in screen_proportions.split(",") if screen_proportions else ():
        try:
            proportions.append(float(token))
        except ValueError:
            raise ConfigError(f"bad screening proportion {token!r}") from None
    return EvalConfig(weight=weight, weight_path=weight_path,
                      screen_proportions=proportions, **fields)


def _read_columns(input_csv: str, pick=None):
    """(The bytes of INPUT_CSV, its score columns, its labels), from one
    read; pick is read_scores_csv's.  The columns are read-only."""
    from .empirical import read_bytes, read_scores_csv

    raw = read_bytes(input_csv)
    _, columns, labels = read_scores_csv(input_csv, content=raw, pick=pick)
    for scores in columns.values():
        scores.setflags(write=False)  # fresh and ours: ingest shares it, copying nothing
    return raw, columns, labels


def _report(input_csv: str, out: str, cfg: dict, wanted=None):
    """Write the JSON report on every score column of INPUT_CSV or, with
    wanted, the comparison report on those columns."""
    config = _build_config(**cfg)
    if wanted is not None:
        repeated = [name for name in dict.fromkeys(wanted) if wanted.count(name) > 1]
        if repeated:
            raise ConfigError(f"score columns listed more than once: {', '.join(repeated)}")
        if len(wanted) < 2:
            raise ConfigError("comparison requires at least two score columns")
    raw, columns, labels = _read_columns(input_csv,
                                         None if wanted is None else lambda names: wanted)
    import hashlib  # after the read: curves and a bad input hash nothing

    fingerprint = "sha256:" + hashlib.sha256(raw).hexdigest()
    del raw  # hashed: the report needs none of the bytes
    from .report import build_report, render_report

    text = render_report(build_report(columns, labels, config, data_fingerprint=fingerprint,
                                      compare=wanted is not None))
    if out == "-":
        print(text, end="", flush=True)
    else:
        Path(out).write_text(text, encoding="utf-8")
        _info("wrote report to %s", out)


def evaluate(input_csv, out, **cfg):
    """Evaluate every score column of INPUT_CSV and write a JSON report."""
    _report(input_csv, out, cfg)


def compare(input_csv, columns, out, **cfg):
    """Compare score columns under one shared weight and prior, ranking
    them by H and by AUC and flagging rank disagreements."""
    _report(input_csv, out, cfg, [t.strip() for t in columns.split(",") if t.strip()])


# Rows per chunk of a curve CSV: only one chunk's Python floats and
# strings exist at a time, whatever the number of rows.
CSV_CHUNK = 1024


def _write_rows(path: Path, header: str, chunks):
    """Two parallel float columns, given as (xs, ys) chunks of at most
    CSV_CHUNK rows, as CSV at 10 significant digits, in the csv module's
    default dialect (CRLF line ends; no number needs quoting).  The rows
    are formatted a chunk at a time, so the memory they take stays flat in
    the number of rows, and each run of equal values in a chunk's column
    is formatted once: an ROC row moves only one of its two coordinates."""
    import numpy as np

    def texts(values):
        bits = values.view(np.int64)  # so that -0.0 after 0.0 starts a run
        new = np.concatenate(([True], bits[1:] != bits[:-1]))
        formatted = np.array(list(map("{:.10g}".format, values[new].tolist())), dtype=object)
        return formatted[np.cumsum(new) - 1].tolist()

    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for xs, ys in chunks:
            fh.write("\r\n".join(map(",".join, zip(texts(xs), texts(ys)))) + "\r\n")


def curves(input_csv, column, resolution, out_dir, **cfg):
    """Write plot-ready CSVs: the minimum-loss curve over costs, the cost
    weight density, and the ROC points over pooled thresholds."""

    def pick(names):
        if column is None and len(names) != 1:
            raise ConfigError(f"input has {len(names)} score columns; pick one with --column")
        if column is not None and column not in names:
            raise ConfigError(f"score column {column!r} not in the input")
        return [names[0] if column is None else column]

    # ahead of the config's own checks, whose messages about a beta
    # prior (such as its seed) cannot help here
    if cfg["prior"] == "beta":
        raise ConfigError("curves need a concrete prior; use empirical or fixed")
    if resolution is not None and resolution < MIN_RESOLUTION:
        raise ConfigError(f"resolution must be at least {MIN_RESOLUTION}, got {resolution}")
    if resolution is not None and resolution > MAX_RESOLUTION:
        raise ConfigError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")
    config = _build_config(**cfg)
    from .empirical import empirical_cdfs, ingest
    from .hmeasure import resolve_priors, resolve_weight
    from .loss import CURVE_GRID, _cost_grid, min_loss

    # the curves need none of the bytes, nor the columns they do not plot
    columns, labels = _read_columns(input_csv, pick)[1:]
    data = ingest(columns.popitem()[1], labels, normalization=config.normalization)
    priors = resolve_priors(config, data)
    weight = resolve_weight(config, priors)
    cdfs = empirical_cdfs(data)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    size = CURVE_GRID if resolution is None else resolution

    def on_grid(fn):
        """(c, fn(c)) on each CSV_CHUNK slice of loss_curve's cost grid:
        the curves take one slice's memory at any resolution."""
        for lo in range(0, size, CSV_CHUNK):
            c = _cost_grid(lo, min(lo + CSV_CHUNK, size), size)
            yield c, fn(c)

    _write_rows(out_path / "loss_curve.csv", "c,min_loss",
                on_grid(lambda c: min_loss(c, priors, cdfs, config.threshold_mode)))
    _write_rows(out_path / "weight.csv", "c,density", on_grid(weight.density))

    # one row per distinct score t: 1 - F0(t), 1 - F1(t)
    _write_rows(out_path / "roc.csv", "fpr,tpr",
                ((1.0 - cdfs.cum0[lo:lo + CSV_CHUNK] / cdfs.n0,
                  1.0 - cdfs.cum1[lo:lo + CSV_CHUNK] / cdfs.n1)
                 for lo in range(0, cdfs.cum0.size, CSV_CHUNK)))
    _info("wrote curves to %s", out_path)


# command name -> (the function that runs it, the flags it reads after INPUT_CSV)
_COMMANDS = {
    "evaluate": (evaluate, (*_SHARED_OPTIONS, *_REPORT_OPTIONS, _OUT)),
    "compare": (compare, (
        _option("--columns", required=True,
                help="Comma-separated score columns to compare (at least two)."),
        *_SHARED_OPTIONS, *_REPORT_OPTIONS, _OUT)),
    "curves": (curves, (
        _option("--column", help="Score column to plot (defaults to the only score column)."),
        *_SHARED_OPTIONS,
        _option("--resolution", type=int,
                help="Cost grid points of the loss and weight curves, from "
                     f"{MIN_RESOLUTION} to {MAX_RESOLUTION}.  [default: 4096]"),
        _option("--out-dir", required=True, help="Directory for the curve CSVs."))),
}


class _Formatter(argparse.HelpFormatter):
    """argparse's help with its usage line headed 'Usage:'."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def _parser() -> argparse.ArgumentParser:
    """The parser of every command.  Each parser reads --help, not -h, and
    no flag by its prefix."""
    keywords = dict(formatter_class=_Formatter, add_help=False, allow_abbrev=False)
    parser = argparse.ArgumentParser(
        prog="hmetric", **keywords,
        description="Evaluate binary classifier scores by the H-measure and related "
                    "cost-weighted losses, alongside the AUC.")
    commands = parser.add_subparsers(dest="command", required=True, title="commands")
    for name, (fn, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, **keywords)
        command.add_argument("input_csv", metavar="INPUT_CSV")
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
    for each in (parser, *commands.choices.values()):
        each.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _values_joined(args):
    """args with each declared flag joined to the token after it, as
    --flag=value: every flag takes a value, and that token is it even when
    it starts with '-', as in --pi0 -1e-3, which argparse would otherwise
    read as a flag."""
    flags = {flag for _, options in _COMMANDS.values() for flag, _ in options}
    joined, tokens = [], iter(args)
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(args=None, standalone_mode=True):
    """Run the command args names (the process's arguments by default) and
    exit with its code; with standalone_mode false, return on success.
    A command's HmetricError or OSError ends in one 'error:' line and the
    error's exit_code (2 for an OSError)."""
    options = vars(_parser().parse_args(_values_joined(sys.argv[1:] if args is None else args)))
    _setup_logging()
    try:
        _COMMANDS[options.pop("command")][0](**options)
    except (HmetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code if isinstance(exc, HmetricError) else 2)
    if standalone_mode:
        sys.exit(0)


# The name the entry point had as a click group's method;
# perfbench/traced_cli.py still calls main.main(args, standalone_mode=False).
main.main = main


def _observed() -> bool:
    """Whether a profiler or tracer watches this process (sys.setprofile,
    sys.settrace or, from Python 3.12, a sys.monitoring tool, whose ids
    run from 0 to 5; cProfile has used one since 3.12)."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def process_main():
    """The process's entry point: main(), then, for an int or None exit
    code, standard output and error flushed and os._exit, which skips the
    interpreter's teardown; every file a command writes is closed before
    it exits.  The SystemExit goes on as usual if a flush fails or the
    process is observed (_observed).  An uncaught exception is left as is:
    a traceback and exit code 1."""
    try:
        main()
    except SystemExit as exc:
        if not (exc.code is None or isinstance(exc.code, int)) or _observed():
            raise
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            raise exc from None
        os._exit(exc.code or 0)


if __name__ == "__main__":
    process_main()
