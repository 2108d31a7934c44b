"""Command-line surface: CSV in, JSON report or plot-ready CSV curves out.

Exit codes: 0 success, 2 malformed input (reported with line numbers),
3 configuration error, 4 degenerate data (a single class).  The HMETRIC_LOG
environment variable sets the log level; nothing else is read from the
environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path

from .errors import ConfigError, DegenerateDataError, HmetricError

# The numeric names the commands use, by the module that defines them.
# A command loads the modules it calls once its config is built, so --help
# and a config error start without numpy; reading a name as a module
# attribute loads them all.
_NUMERIC = {
    "read_bytes": "empirical",
    "read_scores_csv": "empirical",
    "score_names": "empirical",
    "ingest": "empirical",
    "empirical_cdfs": "empirical",
    "loss_curve": "loss",
    "CURVE_GRID": "loss",
    "build_report": "report",
    "render_report": "report",
    "resolve_priors": "hmeasure",
    "resolve_weight": "hmeasure",
}


def _load_numeric(*modules):
    """Bind the numeric names of the given modules (all by default) not yet
    bound here; a name already set, such as a wrapped or patched one, is kept."""
    names = globals()
    for name, module in _NUMERIC.items():
        if name not in names and (not modules or module in modules):
            names[name] = getattr(import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numeric()
    return globals()[name]


def _setup_logging():
    """The level HMETRIC_LOG names (debug, info, ...); any other value,
    such as a name in logging that is not a level, means warning.  logging
    loads here and in _info, once a command runs, so --help loads none."""
    import logging

    level = getattr(logging, os.environ.get("HMETRIC_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def _info(message: str, *args):
    """Log message, formatted with args, at level info."""
    import logging

    logging.getLogger("hmetric").info(message, *args)


def _exit_code(exc: HmetricError) -> int:
    if isinstance(exc, ConfigError):
        return 3
    if isinstance(exc, DegenerateDataError):
        return 4
    return 2


def _run(body, *args):
    _setup_logging()
    try:
        body(*args)
    except HmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(_exit_code(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


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
# The ceiling, 256 times that, keeps each grid-long array at 8 MB; unchecked,
# a large value asked numpy for arrays of any size.
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
    read.  pick, when given, chooses the columns to keep from the score
    column names, taken from the header before any row is parsed.  The
    columns are read-only."""
    raw = read_bytes(input_csv)
    kept = None if pick is None else pick(score_names(input_csv, raw))
    _, columns, labels = read_scores_csv(input_csv, content=raw)
    if kept is not None:
        columns = {name: columns[name] for name in kept}
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
    _load_numeric()
    import hashlib  # here, not at the top: curves hashes nothing

    def pick(names):
        missing = [name for name in wanted if name not in names]
        if missing:
            raise ConfigError(f"score columns not in the input: {', '.join(missing)}")
        return wanted

    raw, columns, labels = _read_columns(input_csv, None if wanted is None else pick)
    fingerprint = "sha256:" + hashlib.sha256(raw).hexdigest()
    del raw  # hashed: the report needs none of the bytes
    text = render_report(build_report(columns, labels, config, data_fingerprint=fingerprint,
                                      compare=wanted is not None))
    if out == "-":
        print(text, end="", flush=True)
    else:
        Path(out).write_text(text, encoding="utf-8")
        _info("wrote report to %s", out)


def evaluate(input_csv, out, **cfg):
    """Evaluate every score column of INPUT_CSV and write a JSON report."""
    _run(_report, input_csv, out, cfg)


def compare(input_csv, columns, out, **cfg):
    """Compare score columns under one shared weight and prior, ranking
    them by H and by AUC and flagging rank disagreements."""
    _run(_report, input_csv, out, cfg, [t.strip() for t in columns.split(",") if t.strip()])


# Rows per chunk of a curve CSV: only one chunk's Python floats and
# strings exist at a time, whatever the number of rows.
CSV_CHUNK = 1024


def _write_csv(path: Path, header: str, xs, ys):
    """Two parallel float arrays as CSV columns at 10 significant digits,
    in the csv module's default dialect (CRLF line ends; no number needs
    quoting).  The rows are formatted CSV_CHUNK at a time, so the memory
    they take stays flat in the number of rows, and each run of equal
    values in a chunk's column is formatted once: an ROC row moves only
    one of its two coordinates."""
    import numpy as np

    def texts(values):
        bits = values.view(np.int64)  # so that -0.0 after 0.0 starts a run
        new = np.concatenate(([True], bits[1:] != bits[:-1]))
        formatted = np.array(list(map("{:.10g}".format, values[new].tolist())), dtype=object)
        return formatted[np.cumsum(new) - 1].tolist()

    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, xs.size, CSV_CHUNK):
            rows = zip(texts(xs[lo:lo + CSV_CHUNK]), texts(ys[lo:lo + CSV_CHUNK]))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def curves(input_csv, column, resolution, out_dir, **cfg):
    """Write plot-ready CSVs: the minimum-loss curve over costs, the cost
    weight density, and the ROC points over pooled thresholds."""

    def pick(names):
        if column is None and len(names) != 1:
            raise ConfigError(f"input has {len(names)} score columns; pick one with --column")
        if column is not None and column not in names:
            raise ConfigError(f"score column {column!r} not in the input")
        return [names[0] if column is None else column]

    def body():
        # ahead of the config's own checks, whose messages about a beta
        # prior (such as its seed) cannot help here
        if cfg["prior"] == "beta":
            raise ConfigError("curves need a concrete prior; use empirical or fixed")
        if resolution is not None and resolution < MIN_RESOLUTION:
            raise ConfigError(f"resolution must be at least {MIN_RESOLUTION}, got {resolution}")
        if resolution is not None and resolution > MAX_RESOLUTION:
            raise ConfigError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")
        config = _build_config(**cfg)
        _load_numeric("empirical", "loss", "hmeasure")  # no report code
        # the curves need none of the bytes, nor the columns they do not plot
        columns, labels = _read_columns(input_csv, pick)[1:]
        data = ingest(columns.popitem()[1], labels, normalization=config.normalization)
        priors = resolve_priors(config, data)
        weight = resolve_weight(config, priors)
        cdfs = empirical_cdfs(data)

        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

        curve = loss_curve(priors, cdfs, mode=config.threshold_mode,
                           grid_size=CURVE_GRID if resolution is None else resolution)
        _write_csv(out_path / "loss_curve.csv", "c,min_loss", curve.grid, curve.loss)
        _write_csv(out_path / "weight.csv", "c,density", curve.grid, weight.density(curve.grid))

        # one row per distinct score t: 1 - F0(t), 1 - F1(t)
        _write_csv(out_path / "roc.csv", "fpr,tpr",
                   1.0 - cdfs.cum0 / cdfs.n0, 1.0 - cdfs.cum1 / cdfs.n1)
        _info("wrote curves to %s", out_path)

    _run(body)


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
    exit with its code; with standalone_mode false, return on success."""
    options = vars(_parser().parse_args(_values_joined(sys.argv[1:] if args is None else args)))
    _COMMANDS[options.pop("command")][0](**options)
    if standalone_mode:
        sys.exit(0)


# The name the entry point had as a click group's method;
# perfbench/traced_cli.py still calls main.main(args, standalone_mode=False).
main.main = main


if __name__ == "__main__":
    main()
