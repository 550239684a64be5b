"""Command-line interface.

Subcommands: ``simulate`` (one scenario to CSV), ``compare`` (cross-check two
or more methods on the same scenario), ``features`` (sudden-death / revival
report), and ``preset`` (named scenario bundles).  Exit codes: 0 success,
1 usage error, 2 tolerance failure in ``compare``, 3 numerical failure.

Every run that writes a CSV also writes the fully resolved configuration to
``<csv>.config`` so results stay reproducible.

In-process calls to :func:`main` share one parser per process, built on the
first call: argparse keeps no state between parses, so each call behaves as
if its parser were new.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace
from itertools import zip_longest
from pathlib import Path

from .errors import InvalidStateError, NumericalError
from .evolve import TOPOLOGIES
from .scenarios import (
    METHODS,
    NOISE_KINDS,
    PRESETS,
    QUANTITIES,
    ScenarioConfig,
    compare_methods,
    emit_csv,
    extract_features,
    parse_config_file,
    resolved_config_text,
    run_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_NUMERICAL = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse takes "-1e-3" or "-inf" for a flag; any float is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_scenario_flags(parser, include_method=True):
    # each flag's dest is the ScenarioConfig field it sets
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--noise", dest="noise_kind", choices=NOISE_KINDS)
    parser.add_argument("--topology", choices=TOPOLOGIES)
    if include_method:
        parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--c0", type=float)
    parser.add_argument("--delta-c", type=float)
    parser.add_argument("--t-max", type=float)
    parser.add_argument("--points", dest="n_points", type=int)
    parser.add_argument("--samples", dest="n_samples", type=int)
    parser.add_argument("--nodes", dest="quad_nodes", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--out", dest="output_path", help="output path")


def build_parser():
    parser = _Parser(prog="bellnoise", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one scenario and emit CSV")
    _add_scenario_flags(simulate)

    compare = commands.add_parser("compare", help="cross-check methods on one scenario")
    _add_scenario_flags(compare, include_method=False)
    compare.add_argument(
        "--method", help="comma-separated list of methods to compare (at least two)"
    )
    compare.add_argument("--tolerance", type=float, help="override the pass/fail tolerance")

    features = commands.add_parser("features", help="sudden-death / revival report")
    _add_scenario_flags(features)
    features.add_argument("--quantity", choices=QUANTITIES, default="negativity")

    preset = commands.add_parser("preset", help="run a named preset (both topologies)")
    preset.add_argument("name", choices=sorted(PRESETS))
    _add_scenario_flags(preset)

    return parser


# Built on the first main() call, not at import: a parser costs ~70
# add_argument calls and leaves hundreds of objects in reference cycles.
_parser = functools.cache(build_parser)


def _resolve_config(args, base=None):
    values = dict(base or {})
    if getattr(args, "config", None):
        values.update(parse_config_file(Path(args.config).read_text()))
    for f in fields(ScenarioConfig):
        provided = getattr(args, f.name, None)
        if provided is not None:
            values[f.name] = provided
    return ScenarioConfig(**values)


def _write(text, path, cfg=None):
    """Write ``text`` to ``path`` (and ``cfg`` to its ``.config`` sidecar), or to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    path = Path(path)
    path.write_text(text)
    if cfg is not None:
        Path(f"{path}.config").write_text(resolved_config_text(cfg))
    print(f"wrote {path}")


def _cmd_simulate(args):
    cfg = _resolve_config(args)
    _write(emit_csv(run_scenario(cfg)), cfg.output_path, cfg)
    return EXIT_OK


def _cmd_compare(args):
    if not args.method:
        raise _UsageError("compare needs --method with a comma-separated list")
    methods = [name.strip() for name in args.method.split(",") if name.strip()]
    args.method = methods[0] if methods else None
    cfg = _resolve_config(args)
    report = compare_methods(cfg, methods, tolerance=args.tolerance)
    _write(report.render(), cfg.output_path)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _cmd_features(args):
    cfg = _resolve_config(args)
    curve = run_scenario(cfg)
    found = extract_features(curve, threshold=cfg.threshold, quantity=args.quantity)
    lines = [f"features of {args.quantity} at threshold {cfg.threshold:g}"]
    if not found.death_times:
        lines.append("no deaths detected")
    # a death may have no revival after it, never the reverse
    for k, (death, peak) in enumerate(zip_longest(found.death_times, found.revival_peaks), 1):
        lines.append(f"death {k}: nt={death!r}")
        if peak is not None:
            lines.append(f"revival {k}: nt={peak[0]!r} value={peak[1]!r}")
    _write("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def _cmd_preset(args):
    # precedence as in simulate: preset < config file < flags; the topology
    # loop and the output directory decide the rest
    out_dir = Path(args.output_path) if args.output_path else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    topologies = (args.topology,) if args.topology else TOPOLOGIES
    base = dict(PRESETS[args.name], preset=args.name)
    for topology in topologies:
        cfg = replace(
            _resolve_config(args, base),
            topology=topology,
            output_path=str(out_dir / f"{args.name}-{topology}.csv"),
        )
        _write(emit_csv(run_scenario(cfg)), cfg.output_path, cfg)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "features": _cmd_features,
    "preset": _cmd_preset,
}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InvalidStateError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError has no message
        print(f"usage error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
