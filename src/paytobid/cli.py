"""Experiment runner: equilibrium, revenue, attrition and simulation tables.

Every subcommand is a pure function of its configuration and seed:
rerunning with the same inputs reproduces the output byte for byte.
Tables go to stdout as JSON or CSV (17 significant digits either way);
diagnostics go to stderr.  Exit codes: 0 success, 2 configuration or
invariant violation, 3 numerical failure (overflow guard tripped).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .attrition import (
    endgame_time_fraction,
    expected_passage_time,
    prob_two_player_endgame,
)
from .equilibrium import AuctionParams, EquilibriumPolicy, ParameterError
from .revenue import DEFAULT_TRUNCATION_TOL, closed_form_revenue, revenue_series
from .simulator import DEFAULT_ROUND_CAP, GameMode, run_replications
from .utility import RiskCoefficientError, UtilityRangeError


class ConfigError(ValueError):
    """Command-line or config-file input cannot be turned into a run."""


# Sweep axis name -> AuctionParams field.
SWEEP_FIELDS = {
    "n": "n",
    "v": "value",
    "s": "sale_price",
    "c": "bid_fee",
    "rho": "rho",
}

_INT_KEYS = {"n", "replications", "seed", "round_cap"}
_FLOAT_KEYS = {"value", "sale_price", "bid_fee", "rho", "tol", "initial_wealth"}
_STR_KEYS = {"mode", "format"}

_DEFAULTS = {
    "sale_price": 0.0,
    "rho": 0.0,
    "mode": "reentry",
    "replications": 0,
    "seed": 0,
    "round_cap": DEFAULT_ROUND_CAP,
    "tol": DEFAULT_TRUNCATION_TOL,
    "format": "json",
    "initial_wealth": 0.0,
}


@dataclass
class ExperimentConfig:
    n: int
    value: float
    sale_price: float
    bid_fee: float
    rho: float
    mode: GameMode
    replications: int
    master_seed: int
    round_cap: int
    truncation_tol: float
    output_format: str
    initial_wealth: float
    sweep: List[Tuple[str, List[float]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Configuration resolution: flags win over config file, which wins over
# defaults.
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
        values = [int(t) if name == "n" else float(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value in {spec!r}: {exc}") from None
    return SWEEP_FIELDS[name], values


def _coerce(key: str, raw) -> object:
    try:
        if key in _INT_KEYS:
            if isinstance(raw, str):
                return int(raw, 10)
            if isinstance(raw, float) and not raw.is_integer():
                raise ValueError(f"{raw!r} is not an integer")
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _STR_KEYS:
            return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    raise ConfigError(f"unknown config key {key!r}")


def _load_config_file(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None

    values: Dict[str, object] = {}
    sweeps: List[str] = []
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        for key, raw in doc.items():
            key = key.replace("-", "_")
            if key == "sweep":
                sweeps.extend([raw] if isinstance(raw, str) else list(raw))
            else:
                values[key] = _coerce(key, raw)
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ConfigError(
                    f"config file {path!r} line {lineno}: expected key = value"
                )
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key == "sweep":
                sweeps.append(raw)
            else:
                values[key] = _coerce(key, raw)
    if sweeps:
        values["sweep"] = sweeps
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values: Dict[str, object] = {}
    if args.config is not None:
        file_values = _load_config_file(args.config)

    def pick(key: str, flag_value):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        raise ConfigError(f"missing required setting {key!r} (flag or config file)")

    sweep_specs: List[str] = []
    if isinstance(file_values.get("sweep"), list):
        sweep_specs.extend(file_values["sweep"])
    if args.sweep:
        sweep_specs.extend(args.sweep)

    mode_name = pick("mode", args.mode)
    try:
        mode = GameMode(mode_name)
    except ValueError:
        raise ConfigError(
            f"mode must be one of {[m.value for m in GameMode]}, got {mode_name!r}"
        ) from None
    output_format = pick("format", args.format)
    if output_format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {output_format!r}")

    return ExperimentConfig(
        n=pick("n", args.n),
        value=pick("value", args.value),
        sale_price=pick("sale_price", args.sale_price),
        bid_fee=pick("bid_fee", args.bid_fee),
        rho=pick("rho", args.rho),
        mode=mode,
        replications=pick("replications", args.replications),
        master_seed=pick("seed", args.seed),
        round_cap=pick("round_cap", args.round_cap),
        truncation_tol=pick("tol", args.tol),
        output_format=output_format,
        initial_wealth=pick("initial_wealth", args.initial_wealth),
        sweep=[_parse_sweep_spec(s) for s in sweep_specs],
    )


def iter_param_sets(
    cfg: ExperimentConfig,
) -> Iterator[Tuple[Dict[str, object], Optional[AuctionParams], Optional[str]]]:
    """Yield (field values, params or None, skip reason) per grid point.

    Without a sweep an invalid base configuration raises instead of
    yielding, so single runs fail loudly with exit code 2.
    """
    base = {
        "n": cfg.n,
        "value": cfg.value,
        "sale_price": cfg.sale_price,
        "bid_fee": cfg.bid_fee,
        "rho": cfg.rho,
    }
    axes = cfg.sweep
    if not axes:
        yield base, AuctionParams(**base), None
        return
    names = [name for name, _ in axes]
    for combo in itertools.product(*[vals for _, vals in axes]):
        fields = dict(base)
        fields.update(zip(names, combo))
        try:
            yield fields, AuctionParams(**fields), None
        except (ParameterError, RiskCoefficientError) as exc:
            yield fields, None, str(exc)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (column names, row dicts).
# ---------------------------------------------------------------------------

_PARAM_COLUMNS = ["n", "value", "sale_price", "bid_fee", "rho"]


def _base_row(fields: Dict[str, object], status: str, reason: Optional[str]) -> Dict[str, object]:
    row: Dict[str, object] = {"status": status, "reason": reason}
    row.update({k: fields[k] for k in _PARAM_COLUMNS})
    return row


def cmd_equilibrium(cfg: ExperimentConfig):
    columns = ["status", "reason", *_PARAM_COLUMNS, "k", "bid_probability", "win_probability"]
    rows = []
    for fields, params, reason in iter_param_sets(cfg):
        if params is None:
            row = _base_row(fields, "SKIPPED", reason)
            row.update({"k": None, "bid_probability": None, "win_probability": None})
            rows.append(row)
            continue
        policy = EquilibriumPolicy.from_params(params)
        for k, p in policy.bid_prob.items():
            row = _base_row(fields, "OK", None)
            row.update({"k": k, "bid_probability": p, "win_probability": policy.win_prob})
            rows.append(row)
    return columns, rows


def cmd_revenue(cfg: ExperimentConfig):
    columns = [
        "status", "reason", *_PARAM_COLUMNS,
        "total", "sale_price_component", "fee_component",
        "hazard", "expected_entrants", "expected_length",
        "series_fee", "series_total",
        "mc_mean_revenue", "mc_se_revenue", "replications",
    ]
    rows = []
    for fields, params, reason in iter_param_sets(cfg):
        if params is None:
            row = _base_row(fields, "SKIPPED", reason)
            row.update({c: None for c in columns[7:]})
            rows.append(row)
            continue
        breakdown = closed_form_revenue(params)
        series_fee = revenue_series(params, cfg.truncation_tol)
        series_total = params.sale_price + series_fee
        problems = []
        if abs(series_total - breakdown.total) > cfg.truncation_tol + 1e-9:
            problems.append("series disagrees with closed form")
        mc_mean = mc_se = None
        if cfg.replications > 0:
            # The closed form covers the stationary (re-entry) game, so
            # the cross-check always simulates that mode.
            result = run_replications(
                params,
                GameMode.WITH_REENTRY,
                cfg.replications,
                cfg.master_seed,
                cfg.round_cap,
            )
            mc_mean, mc_se = result.mean_revenue, result.se_revenue
            if abs(mc_mean - breakdown.total) > 3.0 * mc_se:
                problems.append("Monte Carlo mean outside 3 standard errors")
        row = _base_row(fields, "FAILED" if problems else "OK", "; ".join(problems) or None)
        row.update(
            {
                "total": breakdown.total,
                "sale_price_component": breakdown.sale_price_component,
                "fee_component": breakdown.fee_component,
                "hazard": breakdown.hazard,
                "expected_entrants": breakdown.expected_entrants,
                "expected_length": breakdown.expected_length,
                "series_fee": series_fee,
                "series_total": series_total,
                "mc_mean_revenue": mc_mean,
                "mc_se_revenue": mc_se,
                "replications": cfg.replications,
            }
        )
        rows.append(row)
    return columns, rows


def cmd_attrition(cfg: ExperimentConfig):
    columns = [
        "status", "reason", *_PARAM_COLUMNS,
        "expected_rounds_to_one", "expected_rounds_to_two",
        "endgame_time_fraction", "two_player_endgame_prob",
        "mc_mean_rounds_to_one", "mc_se_rounds_to_one",
        "mc_mean_rounds_to_two", "mc_se_rounds_to_two",
        "mc_two_player_fraction", "mc_se_two_player_fraction",
        "replications",
    ]
    rows = []
    for fields, params, reason in iter_param_sets(cfg):
        if params is None:
            row = _base_row(fields, "SKIPPED", reason)
            row.update({c: None for c in columns[7:]})
            rows.append(row)
            continue
        n = params.n
        row = _base_row(fields, "OK", None)
        row.update(
            {
                "expected_rounds_to_one": expected_passage_time(params, n, 1),
                "expected_rounds_to_two": expected_passage_time(params, n, 2),
                "endgame_time_fraction": endgame_time_fraction(params, n) if n >= 3 else None,
                "two_player_endgame_prob": prob_two_player_endgame(params, n) if n >= 3 else None,
                "mc_mean_rounds_to_one": None,
                "mc_se_rounds_to_one": None,
                "mc_mean_rounds_to_two": None,
                "mc_se_rounds_to_two": None,
                "mc_two_player_fraction": None,
                "mc_se_two_player_fraction": None,
                "replications": cfg.replications,
            }
        )
        if cfg.replications > 0:
            # Attrition is a no-re-entry phenomenon; the mode flag does
            # not apply here.
            result = run_replications(
                params,
                GameMode.NO_REENTRY,
                cfg.replications,
                cfg.master_seed,
                cfg.round_cap,
            )
            row.update(
                {
                    "mc_mean_rounds_to_one": result.mean_effective_length,
                    "mc_se_rounds_to_one": result.se_effective_length,
                    "mc_mean_rounds_to_two": result.mean_rounds_to_two,
                    "mc_se_rounds_to_two": result.se_rounds_to_two,
                    "mc_two_player_fraction": result.two_player_passage_fraction,
                    "mc_se_two_player_fraction": result.se_two_player_passage_fraction,
                }
            )
        rows.append(row)
    return columns, rows


def cmd_simulate(cfg: ExperimentConfig):
    if cfg.replications < 1:
        raise ConfigError("simulate needs --replications >= 1")
    columns = [
        "status", "reason", *_PARAM_COLUMNS,
        "mode", "replications", "seed", "round_cap", "initial_wealth",
        "truncated_replications",
        "mean_revenue", "se_revenue",
        "mean_effective_length", "se_effective_length",
        "mean_raw_length", "se_raw_length",
        "mean_player_utility", "se_player_utility",
        "two_player_passage_fraction", "se_two_player_passage_fraction",
        "mean_rounds_to_two", "se_rounds_to_two",
    ]
    rows = []
    for fields, params, reason in iter_param_sets(cfg):
        if params is None:
            row = _base_row(fields, "SKIPPED", reason)
            row.update({c: None for c in columns[7:]})
            row["mode"] = cfg.mode.value
            row["replications"] = cfg.replications
            rows.append(row)
            continue
        result = run_replications(
            params,
            cfg.mode,
            cfg.replications,
            cfg.master_seed,
            cfg.round_cap,
            initial_wealth=cfg.initial_wealth,
        )
        row = _base_row(fields, "OK", None)
        row.update(
            {
                "mode": cfg.mode.value,
                "replications": result.replications,
                "seed": cfg.master_seed,
                "round_cap": cfg.round_cap,
                "initial_wealth": result.initial_wealth,
                "truncated_replications": result.truncated_replications,
                "mean_revenue": result.mean_revenue,
                "se_revenue": result.se_revenue,
                "mean_effective_length": result.mean_effective_length,
                "se_effective_length": result.se_effective_length,
                "mean_raw_length": result.mean_raw_length,
                "se_raw_length": result.se_raw_length,
                "mean_player_utility": result.mean_player_utility,
                "se_player_utility": result.se_player_utility,
                "two_player_passage_fraction": result.two_player_passage_fraction,
                "se_two_player_passage_fraction": result.se_two_player_passage_fraction,
                "mean_rounds_to_two": result.mean_rounds_to_two,
                "se_rounds_to_two": result.se_rounds_to_two,
            }
        )
        rows.append(row)
    return columns, rows


COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "revenue": cmd_revenue,
    "attrition": cmd_attrition,
    "simulate": cmd_simulate,
}


# ---------------------------------------------------------------------------
# Output encoding.
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render(command: str, columns: List[str], rows: List[Dict[str, object]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return buf.getvalue()
    payload = {
        "command": command,
        "rows": [{c: row.get(c) for c in columns} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paytobid",
        description="Pay-to-bid auction tables: equilibrium, revenue, attrition, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("equilibrium", "bid probabilities p(k) and the per-round win probability"),
        ("revenue", "closed-form and series revenue, optional Monte Carlo column"),
        ("attrition", "no-re-entry passage times and two-player endgame probability"),
        ("simulate", "Monte Carlo replications of the full game"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="config file (key = value lines or a JSON object)")
        p.add_argument("--n", type=int, help="number of players (>= 2)")
        p.add_argument("--value", type=float, help="monetary value of the object")
        p.add_argument("--sale-price", type=float, dest="sale_price", help="price the winner pays (default 0)")
        p.add_argument("--bid-fee", type=float, dest="bid_fee", help="fee paid per bid")
        p.add_argument("--rho", type=float, help="risk coefficient, <= 0 (default 0)")
        p.add_argument("--mode", choices=[m.value for m in GameMode], help="re-entry rule (default reentry)")
        p.add_argument("--replications", type=int, help="Monte Carlo replications (default 0)")
        p.add_argument("--seed", type=int, help="master seed for replication streams (default 0)")
        p.add_argument("--round-cap", type=int, dest="round_cap", help="effective-round cap per game (default 10^7)")
        p.add_argument("--tol", type=float, help="series truncation tolerance (default 1e-9)")
        p.add_argument("--format", choices=["json", "csv"], help="output encoding (default json)")
        p.add_argument("--initial-wealth", type=float, dest="initial_wealth",
                       help="starting wealth used in the utility estimate (default 0)")
        p.add_argument("--sweep", action="append", metavar="PARAM=V1,V2,...",
                       help="sweep a parameter (n, v, s, c, rho); repeatable, combinations are crossed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        columns, rows = COMMANDS[args.command](cfg)
        text = render(args.command, columns, rows, cfg.output_format)
    except (ConfigError, ParameterError, RiskCoefficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UtilityRangeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
