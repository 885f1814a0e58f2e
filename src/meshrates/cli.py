"""Command-line front end.

Subcommands: ``point`` (single evaluation), ``sweep`` (CSV parameter sweeps,
e.g. the bundled figure-reproduction configs), ``region`` (halfspace/vertex
dumps), ``threshold`` / ``optsplit`` (very-strong-interference thresholds and
optimal power fractions), and ``verify`` (oracle suite).

The network parameters and the sweep, region and scheme options can also
come from a ``key=value`` config file (``--config``); explicit flags win, and
a key no subcommand reads from a file, or one given twice (``link`` may
repeat), is a usage error. Powers accept linear values or a trailing ``dB``.

Exit codes: 0 success, 1 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import Callable, NamedTuple

from . import schemes
from .model import HopSplit, NetworkParams, db_to_linear
from .polytope import vertices
from .regions import hop1_region, hop2_coop_region, hop2_mcp_region, hop2_rs_region

_PARAM_NAMES = ("alpha2", "beta2", "gamma2", "eta2", "p1", "p2")
_POWER_NAMES = ("p1", "p2")


class UsageError(ValueError):
    """A command line, config file or input the CLI refuses (exit 1)."""


class VerificationFailure(Exception):
    """At least one verification check failed."""


def parse_power(text: str) -> float:
    """Parse a power value: bare numbers are linear, a trailing dB converts."""
    token = str(text).strip()
    if not token.lower().endswith("db"):
        return float(token)
    try:
        return db_to_linear(float(token[:-2].strip()))
    except OverflowError:
        raise ValueError(f"{token} is past the float range") from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# Config file and network resolution
# ---------------------------------------------------------------------------

# Keys some subcommand reads from a config file, so one file can be shared
# between subcommands. Each is the parameter name of the options that read it;
# options read only from the command line (config, json, method, seed, filter,
# threshold's alpha2) are not among them.
_CONFIG_KEYS = frozenset(_PARAM_NAMES) | {
    "duplex", "power_boost", "schemes", "param", "range", "link", "output", "hop", "f",
}


def _load_config(path: str) -> dict:
    """The ``key=value`` pairs of a config file, each value as text. ``link``
    may repeat and collects a list; any other key may not."""
    config: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                if key == "link":
                    config.setdefault(key, []).append(value.strip())
                elif key in config:
                    raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
                else:
                    config[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return config


def _refuse_missing(missing: list[str]) -> None:
    if missing:
        raise UsageError(f"missing parameter(s): {', '.join(missing)}")


def _network(values: dict, duplex: str, power_boost: bool) -> NetworkParams:
    """The network of the six parameter values; names every one missing."""
    _refuse_missing([name for name in _PARAM_NAMES if values.get(name) is None])
    return NetworkParams(duplex=duplex, power_boost=power_boost,
                         **{name: values[name] for name in _PARAM_NAMES})


# Every scheme by its full name, in output order. The values are the scheme
# functions themselves: perfbench/tracing.py wraps the values of module-level
# dicts, not tuples nested in them.
_SCHEMES = {
    schemes.SCHEME_SINGLE: schemes.single_rate,
    schemes.SCHEME_RS: schemes.rate_splitting,
    schemes.SCHEME_COOP: schemes.coop,
    schemes.SCHEME_MCP: schemes.mcp,
    schemes.SCHEME_BOUND: schemes.first_hop_upper_bound,
}
_SHORT_NAMES = {"single": schemes.SCHEME_SINGLE, "rs": schemes.SCHEME_RS,
                "bound": schemes.SCHEME_BOUND}


def _scheme_names(text: str) -> list[str]:
    """The schemes a comma list names (full or short names, or ``all``), in
    output order."""
    requested: set[str] = set()
    for token in (t.strip() for t in text.split(",")):
        name = _SHORT_NAMES.get(token, token)
        if token == "all":
            requested.update(_SCHEMES)
        elif name in _SCHEMES:
            requested.add(name)
        elif token:
            raise UsageError(f"unknown scheme {token!r}")
    if not requested:
        raise UsageError("no schemes requested")
    return [name for name in _SCHEMES if name in requested]


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

class _Option(NamedTuple):
    """One option of a subcommand. Its text, from the command line or a
    config file, goes through ``convert`` (after the ``choices`` check);
    ``dest`` is the command's parameter and the config key that sets it.
    ``action`` is argparse's: a ``store_true`` flag takes no value on the
    command line, and an ``append`` option collects a list of texts."""

    flag: str
    dest: str
    convert: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    action: str = "store"
    help: str | None = None


_BOOLEANS = {"1": True, "true": True, "t": True, "yes": True, "y": True, "on": True,
             "0": False, "false": False, "f": False, "no": False, "n": False, "off": False,
             "": False}


def _boolean(text: str) -> bool:
    """A flag's value in a config file, in any case."""
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a valid boolean") from None


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"{seed} is not a non-negative integer")
    return seed


def _flag(flag: str, dest: str, help: str) -> _Option:
    return _Option(flag, dest, _boolean, False, action="store_true", help=help)


_NETWORK = (
    *(_Option(f"--{name}", name, parse_power, help=f"{name} (linear, or e.g. '3dB')")
      if name in _POWER_NAMES else _Option(f"--{name}", name, float) for name in _PARAM_NAMES),
    _Option("--duplex", "duplex", default="full", choices=("full", "half")),
    _flag("--power-boost", "power_boost",
          "needs --duplex half: double powers before halving rates"),
)
_JSON = _flag("--json", "as_json", "machine-readable output")
# read before the other options and passed to no command
_CONFIG = _Option("--config", "config", help="key=value file mirroring the flags; flags override")


def _resolve(option: _Option, given, config: dict):
    """The option's value: the command line's, else the config file's, else
    its default. Text from either source goes through the option's check."""
    value = config.get(option.dest) if given is None else given
    if value is None:
        return option.default
    if not isinstance(value, str):  # a flag set on the command line, or links
        return value
    try:
        if option.choices and value not in option.choices:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, option.choices))}.")
        return option.convert(value)
    except ValueError as exc:
        raise UsageError(f"Invalid value for '{option.flag}': {exc}") from None


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def _fields(result: schemes.SchemeResult) -> dict:
    """The split fractions and bottleneck hop a result fills, by field name;
    which fields a scheme fills depends only on the scheme."""
    fields = {}
    if result.split_hop1 is not None:
        fields["f1"] = result.split_hop1.f_private
    if result.split_hop2 is not None:
        fields["f2"] = result.split_hop2.f_private
    if result.bottleneck_hop is not None:
        fields["bottleneck"] = str(result.bottleneck_hop)
    return fields


def _result_row(result: schemes.SchemeResult) -> dict:
    row = {"scheme": result.scheme, "rate": result.rate} | _fields(result)
    if result.operating_point is not None:
        row["r_private"] = result.operating_point.r_private
        row["r_common"] = result.operating_point.r_common
    if result.binding:
        row["binding"] = list(result.binding)
    return row


def cmd_point(as_json, duplex, power_boost, **values) -> None:
    """Evaluate the requested schemes for one parameter point."""
    params = _network(values, duplex, power_boost)
    results = [_SCHEMES[name](params) for name in _scheme_names(values["schemes"])]

    if as_json:
        payload = {
            "params": {name: getattr(params, name) for name in _PARAM_NAMES}
                      | {"duplex": params.duplex, "power_boost": params.power_boost},
            "results": [_result_row(r) for r in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return

    print(f"{'scheme':<18} {'rate':>12} {'f1':>8} {'f2':>8} {'bottleneck':>10}")
    for r in results:
        f1 = f"{r.split_hop1.f_private:.4f}" if r.split_hop1 else "-"
        f2 = f"{r.split_hop2.f_private:.4f}" if r.split_hop2 else "-"
        bn = str(r.bottleneck_hop) if r.bottleneck_hop is not None else "-"
        print(f"{r.scheme:<18} {r.rate:>12.6f} {f1:>8} {f2:>8} {bn:>10}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_LINK_RE = re.compile(
    r"^(?P<dst>\w+)=(?:"
    r"(?P<src>\w+)(?:\*(?P<mul>[0-9.eE+-]+)|/(?P<div>[0-9.eE+-]+))?"
    r"|(?P<mul2>[0-9.eE+-]+)\*(?P<src2>\w+))$"
)


def _ordered_links(links: list[tuple], param: str) -> list[tuple]:
    """The (dst, src, factor, text) links, each after the link that sets its
    source, so that every link holds once all are applied. A link to the
    swept parameter, a parameter linked twice, or links that read each other
    in a cycle are usage errors naming the parameter or the links."""
    targets = [dst for dst, *_ in links]
    if param in targets:
        raise UsageError(f"--link cannot set the swept parameter {param}")
    twice = sorted({dst for dst in targets if targets.count(dst) > 1})
    if twice:
        raise UsageError(f"parameter(s) linked more than once: {', '.join(twice)}")
    ordered, pending = [], list(links)
    while pending:
        unset = {dst for dst, *_ in pending}
        ordered += [link for link in pending if link[1] not in unset]
        blocked = [link for link in pending if link[1] in unset]
        if len(blocked) == len(pending):
            text = ", ".join(link[3] for link in blocked)
            raise UsageError(f"links in or behind a cycle: {text}")
        pending = blocked
    return ordered


# Most points one sweep may have; the swept list is built in memory.
MAX_SWEEP_POINTS = 10**6


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"range must be numeric, got {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"range start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise UsageError(f"range step must be positive, got {step}")
    # the loop below stops once start + k*step passes stop + step/2
    span = (stop - start) / step + 0.5
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count > MAX_SWEEP_POINTS:
        raise UsageError(f"range {text!r} has {count} points, "
                         f"more than the cap of {MAX_SWEEP_POINTS}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + step / 2.0:
            break
        values.append(min(v, stop) if v > stop else v)
        k += 1
    if not values:
        raise UsageError(f"range {text!r} is empty")
    return values


def _parse_link(text: str) -> tuple[str, str, float, str]:
    """A link as (dst, src, factor, the link's text). A power is linked by a
    positive factor, a gain by a non-negative one."""
    link = text.strip()
    m = _LINK_RE.match(link)
    if not m:
        raise UsageError(f"link must look like eta2=alpha2 or p2=p1/2, got {text!r}")
    dst = m.group("dst")
    src = m.group("src") or m.group("src2")
    if dst not in _PARAM_NAMES or src not in _PARAM_NAMES:
        raise UsageError(f"link {text!r} references unknown parameter")
    # the number pattern also admits non-numbers such as "1e" or "+-"
    number = m.group("mul") or m.group("mul2") or m.group("div") or "1"
    try:
        factor = 1.0 / float(number) if m.group("div") else float(number)
    except (ValueError, ZeroDivisionError):
        factor = math.nan
    if not math.isfinite(factor):
        raise UsageError(f"link {text!r} does not give a finite factor")
    if factor < 0.0 or (factor == 0.0 and dst in _POWER_NAMES):
        sign = "positive" if dst in _POWER_NAMES else "non-negative"
        raise UsageError(f"link {text!r} needs a {sign} factor, got {factor:g}")
    return dst, src, factor, link


def cmd_sweep(param, link, output, duplex, power_boost, **values) -> None:
    """Sweep one parameter and emit a CSV of scheme rates and splits."""
    swept = _parse_range(values["range"])
    if param in _POWER_NAMES:
        swept = [v for v in swept if v > 0.0]
        if not swept:
            raise UsageError("power sweep range must contain positive values")
    # each link's syntax is checked before the scheme names, how the links
    # fit together after them
    links = [_parse_link(text) for text in link]
    names = _scheme_names(values["schemes"])
    links = _ordered_links(links, param)
    fixed = {name: values[name] for name in _PARAM_NAMES if values[name] is not None}
    linked = {dst for dst, *_ in links}
    # a linked parameter is missing only through its source
    _refuse_missing([name for name in _PARAM_NAMES
                     if name not in fixed and name != param and name not in linked])

    rows = []
    for value in swept:
        point = fixed | {param: value}
        for dst, src, factor, _ in links:  # a link overrides a fixed value of its target
            point[dst] = point[src] * factor
        params = _network(point, duplex, power_boost)
        cells = {param: _fmt(value)}
        for name in names:
            result = _SCHEMES[name](params)
            cells[name] = _fmt(result.rate)
            for key, field in _fields(result).items():
                cells[f"{name}_{key}"] = field if key == "bottleneck" else _fmt(field)
        rows.append(cells)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])  # the header: the first row's columns, in the order filled
    writer.writerows(cells.values() for cells in rows)
    text = buffer.getvalue()
    if output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}")


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

_REGION_BUILDERS = {
    "1": hop1_region,
    "2rs": hop2_rs_region,
    "2coop": hop2_coop_region,
    "2mcp": hop2_mcp_region,
}


def cmd_region(hop, f, as_json, duplex, power_boost, **values) -> None:
    """Print the halfspaces and vertices of one hop's rate region."""
    params = _network(values, duplex, power_boost)
    region = _REGION_BUILDERS[hop](params, HopSplit(f))
    verts = vertices(region)

    if as_json:
        payload = {
            "provenance": region.provenance,
            "halfspaces": [
                {"label": h.label, "coef_private": h.coef_private,
                 "coef_common": h.coef_common, "bound": h.bound}
                for h in region.halfspaces
            ],
            "vertices": [[v.r_private, v.r_common] for v in verts],
        }
        print(json.dumps(payload, indent=2))
        return

    print(region.provenance)
    print(f"{'label':<16} {'coef_p':>6} {'coef_c':>6} {'bound':>14}")
    for h in region.halfspaces:
        print(f"{h.label:<16} {h.coef_private:>6} {h.coef_common:>6} {h.bound:>14.9f}")
    print("vertices (counterclockwise):")
    for v in verts:
        print(f"  ({v.r_private:.9f}, {v.r_common:.9f})")


# ---------------------------------------------------------------------------
# threshold / optsplit
# ---------------------------------------------------------------------------

def cmd_threshold(beta2, p1, method, check_alpha2, as_json) -> None:
    """Very-strong-interference gain thresholds for the first hop."""
    payload: dict = {"beta2": beta2, "p1": p1}
    if method in ("paper", "both"):
        payload["paper"] = schemes.vsi_threshold(beta2, p1, method="paper")
    if method in ("exact", "both"):
        payload["exact"] = schemes.vsi_threshold(beta2, p1, method="exact")
    if check_alpha2 is not None:
        params = NetworkParams(alpha2=check_alpha2, beta2=beta2, gamma2=1.0, eta2=0.0,
                               p1=p1, p2=1.0)
        ok, binding = schemes.vsi_check(params)
        payload["check"] = {"alpha2": check_alpha2, "achieves_single_user": ok, "binding": binding}

    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key in ("paper", "exact"):
        if key in payload:
            print(f"{key} threshold alpha2 >= {_fmt(payload[key])}")
    if "check" in payload:
        check = payload["check"]
        verdict = "achieves" if check["achieves_single_user"] else "does NOT achieve"
        print(f"alpha2={_fmt(check_alpha2)} {verdict} the single-user rate "
              f"(binding: {check['binding']})")


def cmd_optsplit(as_json, duplex, power_boost, **values) -> None:
    """Optimal private power fraction per hop under rate splitting."""
    params = _network(values, duplex, power_boost)
    f1, f2 = schemes.optimal_private_fraction(params)
    if as_json:
        print(json.dumps({"f1": f1, "f2": f2}, indent=2))
    else:
        print(f"hop1 f_hat = {_fmt(f1)}")
        print(f"hop2 f_hat = {_fmt(f2)}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(seed, name_filter) -> None:
    """Run the oracle verification suite; nonzero exit on any failure."""
    from . import oracle  # only verify needs it

    reports = oracle.run_suite(seed=seed, name_filter=name_filter)
    if not reports:
        raise UsageError(f"no checks match filter {name_filter!r}")
    for report in reports:
        print(report.line())
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    if failed:
        raise VerificationFailure(f"{failed} checks failed")


# ---------------------------------------------------------------------------
# the parser, and the entry point with spec'd exit codes
# ---------------------------------------------------------------------------

_COMMANDS = {
    "point": (cmd_point, (
        *_NETWORK,
        _Option("--schemes", "schemes", default="all",
                help="comma list: single,rs,coop,mcp,bound or 'all'"),
        _JSON,
    )),
    "sweep": (cmd_sweep, (
        *_NETWORK,
        _Option("--param", "param", required=True, choices=_PARAM_NAMES,
                help="swept parameter name"),
        _Option("--range", "range", required=True, help="start:stop:step (inclusive)"),
        _Option("--link", "link", default=(), action="append",
                help="linked parameter, e.g. eta2=alpha2 or p2=p1/2 (repeatable)"),
        _Option("--schemes", "schemes", default="all"),
        _Option("--output", "output", default="-", help="CSV path ('-' = stdout)"),
    )),
    "region": (cmd_region, (
        *_NETWORK,
        _Option("--hop", "hop", required=True, choices=tuple(sorted(_REGION_BUILDERS))),
        _Option("--f", "f", float, 0.5,
                help="private power fraction of the selected hop (default 0.5)"),
        _JSON,
    )),
    "threshold": (cmd_threshold, (
        _Option("--beta2", "beta2", float, required=True),
        _Option("--p1", "p1", parse_power, required=True),
        _Option("--method", "method", default="both", choices=("paper", "exact", "both")),
        # named apart from the alpha2 config key: a shared network file must
        # not turn the check on
        _Option("--alpha2", "check_alpha2", float,
                help="also test this gain against the seven MAC bounds"),
        _JSON,
    )),
    "optsplit": (cmd_optsplit, (*_NETWORK, _JSON)),
    "verify": (cmd_verify, (
        _Option("--seed", "seed", _seed, 0),
        _Option("--filter", "name_filter",
                help="only run checks whose name contains this substring"),
    )),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises its usage errors, abbreviates no
    option, and whose options take the next token as their value even when
    it begins with a dash (``--p1 -3dB``, ``--range -inf:1:0.5``)."""

    value_flags: frozenset[str] = frozenset()

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        i = 0
        while i < len(args) - 1:
            # joined as --p1=-3dB, a value is never taken for an option
            if args[i] in self.value_flags:
                args[i:i + 2] = [f"{args[i]}={args[i + 1]}"]
            i += 1
        return super().parse_known_args(args, namespace)


def _build_parser() -> _Parser:
    """One parser for every subcommand. Every option defaults to None, so
    that an unset option can be told from one given on the command line. A
    subcommand takes --config when a file can set one of its options."""
    parser = _Parser(prog="meshrates",
                     description="Achievable rates of symmetric linear two-hop relay networks.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (body, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=body.__doc__, description=body.__doc__)
        if any(option.dest in _CONFIG_KEYS for option in options):
            options = (_CONFIG, *options)
        for option in options:
            shown = {} if option.action == "store_true" else {
                "metavar": f"{{{','.join(option.choices)}}}" if option.choices
                else option.flag[2:].upper()}
            sub.add_argument(option.flag, dest=option.dest, action=option.action, default=None,
                             help=option.help, **shown)
        sub.value_flags = frozenset(option.flag for option in options
                                    if option.action != "store_true")
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        given = vars(_PARSER.parse_args(argv))
        body, options = _COMMANDS[given["command"]]
        path = given.get("config")
        config = {} if path is None else _load_config(path)
        values = {option.dest: _resolve(option, given[option.dest], config)
                  for option in options}
        for option in options:
            if option.required and values[option.dest] is None:
                choose = f" Choose from: {', '.join(option.choices)}" if option.choices else ""
                raise UsageError(f"Missing option '{option.flag}'.{choose}")
        body(**values)
    except SystemExit as exc:  # --help
        return exc.code
    except VerificationFailure:
        return 3
    except ValueError as exc:  # a UsageError, or an input the model refuses
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
