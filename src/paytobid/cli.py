"""Experiment runner: equilibrium, revenue, attrition and simulation tables.

SETTINGS declares each run setting once: its flag, the coercion of its
config-file value, its default and the missing-setting check; a flag
wins over the config file, which wins over the default.  TABLES holds
one TableSpec per subcommand: its trailing columns, a row function that
turns a valid grid point into blocks of rows, the settings that it reads
besides the five parameters and the format, and the settings a SKIPPED
or FAILED row still reports.  A subcommand has a flag and accepts a
config-file key for the settings that it reads, and no others.  One
driver, build_table, walks the sweep grid and adds the status, reason
and parameter columns to every block.

A table is a list of blocks.  A block maps a column to a scalar, the
value of that column in every row of the block, or to a list with one
value per row; a block without a list column is one row, and a missing
column reads None.  A cell is never a list.  render encodes the scalars
of a block in one call and each list column in one call.  In JSON the
text between two list cells is the same in every row of a block, so it
is laid out once and one join interleaves it with the list columns.

Every subcommand is a pure function of its configuration and seed:
rerunning with the same inputs reproduces the output byte for byte.
Tables go to stdout as JSON or CSV.  JSON writes each float as its
shortest round-trip repr (0.9) and CSV with 17 significant digits
(0.90000000000000002); either text reads back to the same double.
Diagnostics go to stderr.  Exit codes: 0 success, also when the reader
of stdout closes it early (as `| head` does); 2 configuration or
invariant violation, a negative replication count among them; 3
numerical failure (a quantity left the range of a float, as an
expectation of the attrition chain or a simulated revenue or utility
can; the hazard rate is too small for the fee series to decay; or a
Monte Carlo run would be expected to play more raw rounds than its
budget); a sweep reports such a grid point, or one whose replications
all hit the round cap, as a FAILED row instead.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .equilibrium import (
    DEFAULT_ROUND_CAP,
    AuctionParams,
    EquilibriumPolicy,
    GameMode,
    ParameterError,
)
from .revenue import DEFAULT_TRUNCATION_TOL, closed_form_revenue, revenue_series


# Only a row function that needs the attrition chain or the Monte Carlo
# loads its module: the simulator imports numpy, which costs a process
# 36-38 ms, and compiling attrition.py without bytecode a few ms.
# The function is looked up when called, so a replacement set on the
# module (a test double, a tracer) is the one that runs.
def attrition_profile(*args, **kwargs):
    from . import attrition

    return attrition.attrition_profile(*args, **kwargs)


def run_replications(*args, **kwargs):
    _keep_freed_memory()
    from . import simulator

    return simulator.run_replications(*args, **kwargs)


# A Monte Carlo block frees arrays of megabytes at its end and after
# many of its steps.  glibc's malloc gives such memory back to the OS, by
# trimming the top of its heap or unmapping a large chunk, and the next
# block faults it in again: about 3 minor faults per page of the peak.
# A top pad of 32 MiB keeps it for the rest of the process, which takes
# `simulate --n 50 --value 10 --bid-fee 1 --rho=-0.1 --replications 40000`
# from about 26,000 faults to about 7,600 at the same peak memory.  Only
# the CLI asks for it, since it owns its process: importing the library
# must not retune the allocator of the program that imports it.
@functools.cache
def _keep_freed_memory() -> None:
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-2, 32 << 20)  # M_TOP_PAD, in glibc's malloc.h
    except (OSError, AttributeError, TypeError):  # no C library, or one without mallopt
        pass


class ConfigError(ValueError):
    """Command-line or config-file input cannot be turned into a run."""


class Setting(NamedTuple):
    """One run setting: a flag and a config-file key of each subcommand that reads it."""

    type: type
    default: object  # None: the run needs a value from a flag or the file
    help: str
    choices: Optional[Tuple[str, ...]] = None


# Key -> setting, in the order the flags are listed.  The flag of key
# k is --k with underscores written as dashes.  Every subcommand reads
# the five parameters and the format; each TableSpec names the others
# that it reads.
SETTINGS: Dict[str, Setting] = {
    "n": Setting(int, None, "number of players (>= 2)"),
    "value": Setting(float, None, "monetary value of the object"),
    "sale_price": Setting(float, 0.0, "price the winner pays (default 0)"),
    "bid_fee": Setting(float, None, "fee paid per bid"),
    "rho": Setting(
        float, 0.0, "risk coefficient, <= 0 (default 0); write a negative number "
        "in exponent form as --rho=-1e-5, since --rho -1e-5 reads as a flag",
    ),
    "mode": Setting(
        str, GameMode.WITH_REENTRY.value, "re-entry rule (default reentry)",
        tuple(m.value for m in GameMode),
    ),
    "replications": Setting(int, 0, "Monte Carlo replications (default 0)"),
    "seed": Setting(int, 0, "master seed for replication streams (default 0)"),
    "round_cap": Setting(int, DEFAULT_ROUND_CAP, "effective-round cap per game (default 10^7)"),
    "tol": Setting(float, DEFAULT_TRUNCATION_TOL, "series truncation tolerance (default 1e-9)"),
    "format": Setting(str, "json", "output encoding (default json)", ("json", "csv")),
    "initial_wealth": Setting(
        float, 0.0, "starting wealth used in the utility estimate (default 0)",
    ),
}

# Sweep axis name -> AuctionParams field.
SWEEP_FIELDS = {"n": "n", "v": "value", "s": "sale_price", "c": "bid_fee", "rho": "rho"}
_PARAM_COLUMNS = list(SWEEP_FIELDS.values())  # after status and reason in every table
_COMMON_KEYS = (*_PARAM_COLUMNS, "format")  # the settings every subcommand reads


# ---------------------------------------------------------------------------
# Configuration: flags, then the config file, then the defaults.
# ---------------------------------------------------------------------------

def _parse_sweep_spec(spec: str) -> Tuple[str, List[float]]:
    name, sep, tail = spec.partition("=")
    name = name.strip()
    if not sep or name not in SWEEP_FIELDS:
        raise ConfigError(
            f"sweep must look like <param>=<v1,v2,...> with param in "
            f"{sorted(SWEEP_FIELDS)}, got {spec!r}"
        )
    tokens = [t.strip() for t in tail.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"sweep {spec!r} lists no values")
    try:
        values = [SETTINGS[SWEEP_FIELDS[name]].type(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value in {spec!r}: {exc}") from None
    return SWEEP_FIELDS[name], values


def _coerce(key: str, raw) -> object:
    if key not in SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = SETTINGS[key].type
    if isinstance(raw, bool):  # a JSON true/false; bool is an int subclass
        raise ConfigError(f"config key {key!r}: {raw!r} is not a {kind.__name__}")
    try:
        if kind is int and isinstance(raw, float) and not raw.is_integer():
            raise ValueError(f"{raw!r} is not an integer")
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # a JSON integer past the float range
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _load_config_file(path: str) -> Dict[str, object]:
    """Coerced settings of a config file, plus its sweep specs under "sweep"."""
    try:
        # utf-8-sig drops the byte order mark that some Windows editors write.
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None

    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        pairs = list(doc.items())
    else:
        pairs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(
                    f"config file {path!r} line {lineno}: expected key = value"
                )
            pairs.append((key.strip(), raw.strip()))

    values: Dict[str, object] = {"sweep": []}
    for key, raw in pairs:
        key = key.replace("-", "_")
        if key == "sweep":
            specs = [raw] if isinstance(raw, str) else raw
            if not (isinstance(specs, list) and all(isinstance(spec, str) for spec in specs)):
                raise ConfigError(
                    f"config key 'sweep' must be a string or a list of strings, got {raw!r}"
                )
            values["sweep"] += specs
        else:
            values[key] = _coerce(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """One attribute per setting the subcommand reads, plus the parsed sweep axes."""
    keys = TABLES[args.command].setting_keys()
    file_values = {} if args.config is None else _load_config_file(args.config)
    for key in file_values:
        if key != "sweep" and key not in keys:
            raise ConfigError(f"{args.command} does not read config key {key!r}")
    cfg = argparse.Namespace()
    for key in keys:
        setting = SETTINGS[key]
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key, setting.default)
        if value is None:
            raise ConfigError(f"missing required setting {key!r} (flag or config file)")
        if setting.choices is not None and value not in setting.choices:
            raise ConfigError(f"{key} must be one of {list(setting.choices)}, got {value!r}")
        setattr(cfg, key, value)
    cfg.sweep = []
    for spec in file_values.get("sweep", []) + (args.sweep or []):
        axis, values = _parse_sweep_spec(spec)
        if axis in dict(cfg.sweep):  # its points would overwrite the first sweep's
            raise ConfigError(
                f"sweep {spec!r} repeats the {axis} axis; list all its values in one sweep"
            )
        cfg.sweep.append((axis, values))
    return cfg


# ---------------------------------------------------------------------------
# Subcommands: one row function per table and one driver for all four.
# A row function returns the trailing columns of a valid grid point as
# blocks (see the module docstring); a truthy scalar "reason" marks
# every row of its block FAILED.
# ---------------------------------------------------------------------------

Block = Dict[str, object]  # column -> scalar, or list of one cell per row


def _equilibrium_rows(cfg: argparse.Namespace, params: AuctionParams) -> List[Block]:
    policy = EquilibriumPolicy.from_params(params)
    return [{
        "k": list(policy.bid_prob),
        "bid_probability": list(policy.bid_prob.values()),
        "win_probability": policy.win_prob,
    }]


def _revenue_rows(cfg: argparse.Namespace, params: AuctionParams) -> List[Block]:
    breakdown = closed_form_revenue(params)
    series_fee = revenue_series(params, cfg.tol)
    row: Block = {
        **breakdown._asdict(),
        "series_fee": series_fee,
        "series_total": params.sale_price + series_fee,
        "replications": cfg.replications,
    }
    problems = []
    if abs(row["series_total"] - breakdown.total) > cfg.tol + 1e-9:
        problems.append("series disagrees with closed form")
    if cfg.replications > 0:
        # By Wald's identity the closed form is the expected revenue
        # with and without re-entry, so the configured mode is checked.
        result = run_replications(
            params, GameMode(cfg.mode), cfg.replications, cfg.seed, cfg.round_cap
        )
        row["mc_mean_revenue"], row["mc_se_revenue"] = result.mean_revenue, result.se_revenue
        if abs(result.mean_revenue - breakdown.total) > 3.0 * result.se_revenue:
            problems.append("Monte Carlo mean outside 3 standard errors")
    row["reason"] = "; ".join(problems) or None
    return [row]


# Monte Carlo column of `paytobid attrition` -> SimulationResult field.
_ATTRITION_MC = {
    "mc_mean_rounds_to_one": "mean_effective_length",
    "mc_se_rounds_to_one": "se_effective_length",
    "mc_mean_rounds_to_two": "mean_rounds_to_two",
    "mc_se_rounds_to_two": "se_rounds_to_two",
    "mc_two_player_fraction": "two_player_passage_fraction",
    "mc_se_two_player_fraction": "se_two_player_passage_fraction",
}


def _attrition_rows(cfg: argparse.Namespace, params: AuctionParams) -> List[Block]:
    profile = attrition_profile(params)
    row: Block = {
        "expected_rounds_to_one": profile.rounds_to_one,
        "expected_rounds_to_two": profile.rounds_to_two,
        "endgame_time_fraction": profile.endgame_time_fraction,
        "two_player_endgame_prob": profile.two_player_endgame_prob,
        "replications": cfg.replications,
    }
    if cfg.replications > 0:
        # Attrition is a no-re-entry phenomenon, so the table has no mode.
        result = run_replications(
            params, GameMode.NO_REENTRY, cfg.replications, cfg.seed, cfg.round_cap
        )
        row.update({column: getattr(result, name) for column, name in _ATTRITION_MC.items()})
    return [row]


def _simulate_rows(cfg: argparse.Namespace, params: AuctionParams) -> List[Block]:
    result = run_replications(
        params, GameMode(cfg.mode), cfg.replications, cfg.seed, cfg.round_cap,
        initial_wealth=cfg.initial_wealth,
    )
    return [{"mode": cfg.mode, "seed": cfg.seed, "round_cap": cfg.round_cap, **result._asdict()}]


class TableSpec(NamedTuple):
    """What one subcommand adds to the shared status/reason/parameter columns."""

    help: str
    columns: Tuple[str, ...]
    rows: Callable[[argparse.Namespace, AuctionParams], List[Block]]  # blocks of a valid point
    settings: Tuple[str, ...] = ()  # read by rows and build_table besides parameters and format
    skipped: Tuple[str, ...] = ()  # settings a SKIPPED or FAILED row still reports
    needs_replications: bool = False  # at least one replication, not just a count >= 0

    def setting_keys(self) -> List[str]:
        """The SETTINGS keys the subcommand reads, in SETTINGS order."""
        return [key for key in SETTINGS if key in _COMMON_KEYS or key in self.settings]


TABLES: Dict[str, TableSpec] = {
    "equilibrium": TableSpec(
        "bid probabilities p(k) and the per-round win probability",
        ("k", "bid_probability", "win_probability"),
        _equilibrium_rows,
    ),
    "revenue": TableSpec(
        "closed-form and series revenue, optional Monte Carlo column",
        ("total", "sale_price_component", "fee_component", "hazard", "expected_entrants",
         "expected_length", "series_fee", "series_total", "mc_mean_revenue", "mc_se_revenue",
         "replications"),
        _revenue_rows,
        settings=("replications", "mode", "seed", "round_cap", "tol"),
    ),
    "attrition": TableSpec(
        "no-re-entry passage times and two-player endgame probability",
        ("expected_rounds_to_one", "expected_rounds_to_two", "endgame_time_fraction",
         "two_player_endgame_prob", *_ATTRITION_MC, "replications"),
        _attrition_rows,
        settings=("replications", "seed", "round_cap"),
    ),
    "simulate": TableSpec(
        "Monte Carlo replications of the full game",
        ("mode", "replications", "seed", "round_cap", "initial_wealth", "truncated_replications",
         "mean_revenue", "se_revenue", "mean_effective_length", "se_effective_length",
         "mean_raw_length", "se_raw_length", "mean_player_utility", "se_player_utility",
         "two_player_passage_fraction", "se_two_player_passage_fraction",
         "mean_rounds_to_two", "se_rounds_to_two"),
        _simulate_rows,
        settings=("mode", "replications", "seed", "round_cap", "initial_wealth"),
        skipped=("mode", "replications"),
        needs_replications=True,
    ),
}


def build_table(name: str, spec: TableSpec, cfg: argparse.Namespace):
    """(column names, blocks) of one subcommand over the sweep grid.

    Swept parameters are crossed in order; an invalid grid point gets a
    SKIPPED block of one row, and a valid one whose row function raises
    an ArithmeticError a FAILED block of one row, each with the error as
    its reason.  Status, reason and the parameters are scalars of every
    block.  Without a sweep the error is raised instead, so a single run
    fails loudly with exit code 2 or 3.  A replication count below 0, or
    below 1 where the table needs_replications, refuses the whole run,
    even a fully skipped one.
    """
    if "replications" in spec.settings:
        least = 1 if spec.needs_replications else 0
        if cfg.replications < least:
            raise ConfigError(f"{name} needs --replications >= {least}")
    base = {key: getattr(cfg, key) for key in _PARAM_COLUMNS}
    skipped = {key: getattr(cfg, key) for key in spec.skipped}
    names = [axis for axis, _ in cfg.sweep]
    blocks = []
    for combo in itertools.product(*(points for _, points in cfg.sweep)):
        fields = {**base, **dict(zip(names, combo))}
        try:
            params = AuctionParams(**fields)
        except ParameterError as exc:
            if not cfg.sweep:
                raise
            blocks.append({"status": "SKIPPED", "reason": str(exc), **fields, **skipped})
            continue
        try:
            rows = spec.rows(cfg, params)
        except ArithmeticError as exc:
            if not cfg.sweep:
                raise
            blocks.append({"status": "FAILED", "reason": str(exc), **fields, **skipped})
            continue
        for values in rows:
            block = {"status": "OK", "reason": None, **fields, **values}
            if block["reason"]:
                block["status"] = "FAILED"
            blocks.append(block)
    return ["status", "reason", *_PARAM_COLUMNS, *spec.columns], blocks


# Subcommand -> callable(cfg) -> (columns, blocks).
COMMANDS = {name: functools.partial(build_table, name, spec) for name, spec in TABLES.items()}


# ---------------------------------------------------------------------------
# Output encoding and entry point.
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_column(values: list) -> List[str]:
    # An encoded cell holds no raw newline, so "\n" splits the items.
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n") if values else []


def _encoded_rows(columns, blocks):
    """The CSV-encoded cells of each row, block by block."""
    for block in blocks:
        cells = [block.get(c) for c in columns]
        size = next((len(v) for v in cells if isinstance(v, list)), 1)
        texts = [[_csv_cell(x) for x in v] if isinstance(v, list) else [_csv_cell(v)] * size
                 for v in cells]
        yield from zip(*texts, strict=True)


def _json_block(columns: List[str], heads: List[str], block: Block) -> str:
    """The rows of one block as json.dumps(..., indent=2) lays them out,
    joined by ",\n"; the empty string for a block of no rows.

    The text from one list cell to the next (column heads and scalar
    cells) is the same in every row, so it is built once, and a single
    join interleaves it with the encoded list columns.
    """
    cells = [block.get(c) for c in columns]
    scalars = iter(_json_column([v for v in cells if not isinstance(v, list)]))
    texts, lists, text = [], [], ""  # texts[j] is the text before list column j
    for head, value in zip(heads, cells):
        text += head
        if isinstance(value, list):
            texts.append(text)
            lists.append(_json_column(value))
            text = ""
        else:
            text += next(scalars)
    text += "\n    }"
    if not lists:
        return text
    size = len(lists[0])
    if any(len(column) != size for column in lists):
        raise ValueError("the list columns of a block differ in length")
    if not size:
        return ""
    # Row r reads texts[0], lists[0][r], texts[1], ..., lists[-1][r], text,
    # and ",\n" separates two rows.
    texts.append(text + ",\n" + texts[0])
    stride = 2 * len(lists)
    pieces = [texts[0]] * (stride * size + 1)
    for j, column in enumerate(lists):
        pieces[2 * j + 1::stride] = column
        pieces[2 * j + 2::stride] = [texts[j + 1]] * size
    pieces[-1] = text
    return "".join(pieces)


def render(command: str, columns: List[str], blocks: List[Block], fmt: str) -> str:
    if fmt == "csv":
        import csv  # a JSON run never needs it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(_encoded_rows(columns, blocks))
        return buf.getvalue()
    # The text of json.dumps({"command": ..., "rows": ...}, indent=2) + "\n",
    # with the cells encoded by the C encoder, which json.dumps bypasses
    # once indent is set.  The head of a cell opens its row or ends the
    # cell before it.
    keys = [json.dumps(c) for c in columns]
    heads = [f"    {{\n      {keys[0]}: ", *(f",\n      {key}: " for key in keys[1:])]
    body = ",\n".join(filter(None, (_json_block(columns, heads, block) for block in blocks)))
    head = f'{{\n  "command": {json.dumps(command)},\n  "rows": '
    return f"{head}[\n{body}\n  ]\n}}\n" if body else f"{head}[]\n}}\n"


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports the arguments that it does not
    know itself, where argparse would hand them up to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    Given a command, every other subcommand is a bare stub with its name
    and help, which is all that the top-level help and errors print, so
    a run builds only the flags it can use.
    """
    parser = argparse.ArgumentParser(
        prog="paytobid",
        description="Pay-to-bid auction tables: equilibrium, revenue, attrition, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, spec in TABLES.items():
        if command not in (None, name):
            sub.add_parser(name, help=spec.help, add_help=False)
            continue
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--config", help="config file (key = value lines or a JSON object)")
        for key in spec.setting_keys():
            setting = SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=setting.type,
                           choices=setting.choices, help=setting.help)
        p.add_argument("--sweep", action="append", metavar="PARAM=V1,V2,...",
                       help="sweep a parameter (n, v, s, c, rho); repeatable, combinations are crossed")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in TABLES else None).parse_args(argv)
    try:
        cfg = resolve_config(args)
        columns, blocks = COMMANDS[args.command](cfg)
        text = render(args.command, columns, blocks, cfg.format)
    except (ConfigError, ParameterError) as exc:  # also RiskCoefficientError, AllTruncatedError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # SeriesLengthError, UtilityRangeError, RawRoundBudgetError, and
        # the FloatingPointError of the closed-form revenue, the attrition
        # chain or a Monte Carlo revenue or utility estimate.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as `| head` does; that is not an
        # error.  Point stdout at devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
