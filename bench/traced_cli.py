"""Run one paytobid command in process with a span around each layer call.

Usage: python3 bench/traced_cli.py SPANS_JSON <paytobid arguments...>

Each public function below is wrapped wherever a caller looks it up:
the module that defines it and every paytobid module that imported its
name.  A span records [name, start, end, parent index, attributes];
spans stay in memory and are written to SPANS_JSON once the command
has returned.  stdout, stderr and the exit code are the command's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paytobid import attrition, cli, equilibrium, revenue, simulator, utility  # noqa: E402

MODULES = (attrition, cli, equilibrium, revenue, simulator, utility)

# Span name -> (owner, attribute) of the function it times.
LAYERS = {
    "utility.evaluate": (utility.CarlUtility, "evaluate"),
    "equilibrium.bid_probability": (equilibrium, "bid_probability"),
    "revenue.revenue_series": (revenue, "revenue_series"),
    "revenue.closed_form_revenue": (revenue, "closed_form_revenue"),
    "attrition.bid_count_distribution": (attrition, "bid_count_distribution"),
    "attrition.expected_passage_time": (attrition, "expected_passage_time"),
    "attrition.prob_two_player_endgame": (attrition, "prob_two_player_endgame"),
    "attrition.endgame_time_fraction": (attrition, "endgame_time_fraction"),
    "simulator.run_replications": (simulator, "run_replications"),
    "cli.render": (cli, "render"),
}


def _replication_attrs(args, kwargs, result) -> dict:
    """Grid point and work done of one run_replications call."""
    params, mode = args[0], args[1]
    completed = result.replications - result.truncated_replications
    return {
        "mode": mode.value,
        "n": params.n,
        "value": params.value,
        "sale_price": params.sale_price,
        "bid_fee": params.bid_fee,
        "rho": params.rho,
        "completed": completed,
        "raw_rounds": result.mean_raw_length * completed,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # indices of the spans now running, innermost last

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, (owner, attribute) in LAYERS.items():
            original = getattr(owner, attribute)
            traced = self.wrap(
                name, original, _replication_attrs if name == "simulator.run_replications" else None
            )
            setattr(owner, attribute, traced)
            for module in MODULES:
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, global_name, traced)
        for command, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[command] = self.wrap(f"cli.{command}", fn)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
