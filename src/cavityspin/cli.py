"""Command-line front end for the scenario harness.

    cavityspin <scenario> CONFIG.json [KEY=VALUE ...]
    cavityspin validate

Scenario subcommands load the JSON config, apply dotted-path overrides,
run the scenario, and write <output>.csv plus <output>.manifest.json.
Exit codes: 0 success, 1 configuration problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import harness


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1 for
    # anything configuration-shaped, reserving 2 for numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cavityspin",
        description="Run driven cavity/spin-ensemble scenarios to CSV tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in harness.SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="KEY=VALUE",
            help="dotted-path config overrides, values parsed as JSON "
                 "(e.g. grid.dt_ns=0.1 output=out/run)",
        )
    sub.add_parser("validate", help="run the fast invariant self-test")
    return parser


def _set_path(mapping: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = mapping
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = {}
            node[key] = nxt
        if not isinstance(nxt, dict):
            raise harness.ConfigError(
                f"override path {dotted!r} descends into non-object {key!r}"
            )
        node = nxt
    node[keys[-1]] = value


def _apply_overrides(mapping: dict, overrides) -> None:
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise harness.ConfigError(
                f"override {item!r} is not KEY=VALUE"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient for paths
        _set_path(mapping, key, value)


def _load_config(path: str, scenario: str, overrides) -> harness.ScenarioConfig:
    try:
        with open(path) as fh:
            mapping = json.load(fh)
    except OSError as exc:
        raise harness.ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise harness.ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise harness.ConfigError("config document must be a JSON object")
    mapping["scenario"] = scenario
    _apply_overrides(mapping, overrides)
    return harness.ScenarioConfig.from_mapping(mapping)


def _run_validate() -> int:
    t0 = time.perf_counter()
    checks = harness.run_validation()
    failed = 0
    for name, ok, detail, seconds in checks:
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {name}: {detail} ({seconds:.2f} s)")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return _run_validate()
    try:
        config = _load_config(args.config, args.command, args.overrides)
        if config.output is None:
            raise harness.ConfigError(
                "no output path: set \"output\" in the config or pass output=PATH"
            )
        t0 = time.perf_counter()
        table = harness.run_scenario(config)
        elapsed = time.perf_counter() - t0
        try:
            csv_path, manifest_path = harness.write_outputs(
                table, config, config.output, timings={"run_s": elapsed}
            )
        except OSError as exc:
            raise harness.ConfigError(
                f"cannot write output {config.output!r}: {exc}") from exc
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} ({table.n_rows} rows) and {manifest_path} "
          f"in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
