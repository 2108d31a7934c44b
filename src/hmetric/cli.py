"""Command-line surface: CSV in, JSON report or plot-ready CSV curves out.

Exit codes: 0 success, 2 malformed input (reported with line numbers),
3 configuration error, 4 degenerate data (a single class).  The HMETRIC_LOG
environment variable sets the log level; nothing else is read from the
environment.
"""

from __future__ import annotations

import logging
import os
import sys
from importlib import import_module
from pathlib import Path

import click

from .config import EvalConfig
from .errors import ConfigError, DegenerateDataError, HmetricError

logger = logging.getLogger("hmetric")

# The numeric names the commands call, by the module that defines them.
# They load once a config is built, so --help and a config error start
# without numpy or scipy; until then, reading one as a module attribute
# loads them too.
_NUMERIC = {
    "read_bytes": "empirical",
    "read_scores_csv": "empirical",
    "ingest": "empirical",
    "empirical_cdfs": "empirical",
    "loss_curve": "loss",
    "build_report": "report",
    "render_report": "report",
    "resolve_priors": "report",
    "resolve_weight": "report",
}


def _load_numeric():
    """Bind every numeric name not yet bound here; a name already set,
    such as a wrapped or patched one, is kept."""
    names = globals()
    for name, module in _NUMERIC.items():
        if name not in names:
            names[name] = getattr(import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numeric()
    return globals()[name]


def _setup_logging():
    """The level HMETRIC_LOG names (debug, info, ...); any other value,
    such as a name in logging that is not a level, means warning."""
    level = getattr(logging, os.environ.get("HMETRIC_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def _exit_code(exc: HmetricError) -> int:
    if isinstance(exc, ConfigError):
        return 3
    if isinstance(exc, DegenerateDataError):
        return 4
    return 2


def _run(body):
    _setup_logging()
    try:
        body()
    except HmetricError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_code(exc))
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _config_options(fn):
    options = [
        click.option("--weight", default="default", show_default=True,
                     help="Cost weight: 'default', 'beta', or 'tabulated:<csv path>'."),
        click.option("--alpha", type=float, default=None,
                     help="Alpha shape for --weight beta."),
        click.option("--beta", type=float, default=None,
                     help="Beta shape for --weight beta."),
        click.option("--prior", default="empirical", show_default=True,
                     help="Prior handling: 'empirical', 'fixed', or 'beta' "
                          "(pi0 drawn from Beta(2,2); needs --seed)."),
        click.option("--pi0", type=float, default=None, help="pi0 for --prior fixed."),
        click.option("--mode", default="calibrated", show_default=True,
                     help="Threshold rule: 'calibrated' or 'optimal'."),
        click.option("--resolution", type=int, default=4096, show_default=True,
                     help="Grid resolution for curves."),
        click.option("--mc-samples", "outer_samples", type=int, default=10000, show_default=True,
                     help="Number of prior draws under --prior beta."),
        click.option("--seed", type=int, default=None,
                     help="Seed of the prior draws; required with --prior beta."),
        click.option("--normalize", default="reject", show_default=True,
                     help="Score normalization: 'reject', 'minmax' or 'logistic'."),
        click.option("--screen", default="", help="Screening proportions, e.g. '0.1,0.25'."),
        click.option("--u-dist", multiple=True,
                     help="Independent threshold distribution: 'pooled', "
                          "'class1-ranks' or 'point:<t>' (repeatable)."),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _build_config(weight, alpha, beta, prior, pi0, mode, resolution,
                  outer_samples, seed, normalize, screen, u_dist) -> EvalConfig:
    weight_kind, weight_path = weight, None
    if weight.startswith("tabulated:"):
        weight_kind, weight_path = "tabulated", weight.split(":", 1)[1]
    elif weight == "tabulated":
        raise ConfigError("tabulated weight needs a path: --weight tabulated:<csv path>")
    if weight_kind == "beta" and (alpha is None or beta is None):
        raise ConfigError("--weight beta requires --alpha and --beta")
    proportions = []
    if screen:
        for token in screen.split(","):
            try:
                proportions.append(float(token))
            except ValueError:
                raise ConfigError(f"bad screening proportion {token!r}") from None
    config = EvalConfig(
        weight=weight_kind,
        weight_alpha=alpha,
        weight_beta=beta,
        weight_path=weight_path,
        prior=prior,
        pi0=pi0,
        threshold_mode=mode,
        resolution=resolution,
        outer_samples=outer_samples,
        seed=seed,
        normalization=normalize,
        screen_proportions=tuple(proportions),
        u_dists=tuple(u_dist),
    ).validate()
    _load_numeric()
    return config


def _write_report(report: dict, out: str):
    text = render_report(report)
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")
        logger.info("wrote report to %s", out)


def _read_fingerprinted(input_csv: str):
    """Read INPUT_CSV once; parse those bytes and fingerprint the same bytes."""
    import hashlib

    raw = read_bytes(input_csv)
    names, columns, labels = read_scores_csv(input_csv, content=raw)
    return names, columns, labels, "sha256:" + hashlib.sha256(raw).hexdigest()


@click.group()
def main():
    """Evaluate binary classifier scores by the H-measure and related
    cost-weighted losses, alongside the AUC."""


@main.command()
@click.argument("input_csv", type=str)
@_config_options
@click.option("--out", default="-", show_default=True, help="Report path ('-' for stdout).")
def evaluate(input_csv, out, **cfg):
    """Evaluate every score column of INPUT_CSV and write a JSON report."""

    def body():
        config = _build_config(**cfg)
        names, columns, labels, fingerprint = _read_fingerprinted(input_csv)
        report = build_report(columns, labels, config, data_fingerprint=fingerprint)
        _write_report(report, out)

    _run(body)


@main.command()
@click.argument("input_csv", type=str)
@click.option("--columns", required=True,
              help="Comma-separated score columns to compare (at least two).")
@_config_options
@click.option("--out", default="-", show_default=True, help="Report path ('-' for stdout).")
def compare(input_csv, columns, out, **cfg):
    """Compare score columns under one shared weight and prior, ranking
    them by H and by AUC and flagging rank disagreements."""

    def body():
        config = _build_config(**cfg)
        wanted = [token.strip() for token in columns.split(",") if token.strip()]
        repeated = [name for name in dict.fromkeys(wanted) if wanted.count(name) > 1]
        if repeated:
            raise ConfigError(f"score columns listed more than once: {', '.join(repeated)}")
        names, all_columns, labels, fingerprint = _read_fingerprinted(input_csv)
        missing = [name for name in wanted if name not in all_columns]
        if missing:
            raise ConfigError(f"score columns not in the input: {', '.join(missing)}")
        selected = {name: all_columns[name] for name in wanted}
        report = build_report(
            selected,
            labels,
            config,
            data_fingerprint=fingerprint,
            compare=True,
        )
        _write_report(report, out)

    _run(body)


def _write_csv(path: Path, header: str, xs, ys):
    """Two float columns at 10 significant digits, in the csv module's
    default dialect (CRLF line ends; no number needs quoting)."""
    row = "{:.10g},{:.10g}\r\n".format
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.writelines(map(row, xs, ys))


@main.command()
@click.argument("input_csv", type=str)
@click.option("--column", default=None,
              help="Score column to plot (defaults to the only score column).")
@_config_options
@click.option("--out-dir", required=True, help="Directory for the curve CSVs.")
def curves(input_csv, column, out_dir, **cfg):
    """Write plot-ready CSVs: the minimum-loss curve over costs, the cost
    weight density, and the ROC points over pooled thresholds."""

    def body():
        config = _build_config(**cfg)
        if config.prior == "beta":
            raise ConfigError("curves need a concrete prior; use empirical or fixed")
        names, all_columns, labels = read_scores_csv(input_csv)
        name = column
        if name is None:
            if len(names) != 1:
                raise ConfigError(
                    f"input has {len(names)} score columns; pick one with --column"
                )
            name = names[0]
        elif name not in all_columns:
            raise ConfigError(f"score column {name!r} not in the input")

        data = ingest(all_columns[name], labels, normalization=config.normalization)
        priors = resolve_priors(config, data)
        weight = resolve_weight(config, priors)
        cdfs = empirical_cdfs(data)

        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

        curve = loss_curve(priors, cdfs, mode=config.threshold_mode,
                           grid_size=config.resolution)
        grid = curve.grid.tolist()
        _write_csv(out_path / "loss_curve.csv", "c,min_loss", grid, curve.loss.tolist())
        density = weight.density(curve.grid).tolist()
        _write_csv(out_path / "weight.csv", "c,density", grid, density)

        # one row per distinct score t: 1 - F0(t), 1 - F1(t)
        fpr = (1.0 - cdfs.cum0 / cdfs.n0).tolist()
        tpr = (1.0 - cdfs.cum1 / cdfs.n1).tolist()
        _write_csv(out_path / "roc.csv", "fpr,tpr", fpr, tpr)
        logger.info("wrote curves to %s", out_path)

    _run(body)


if __name__ == "__main__":
    main()
