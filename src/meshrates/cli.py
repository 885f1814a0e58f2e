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

from . import schemes
from .model import DUPLEX_MODES, HopSplit, NetworkParams, db_to_linear
from .polytope import vertices
from .regions import hop1_region, hop2_coop_region, hop2_mcp_region, hop2_rs_region

_PARAM_NAMES = ("alpha2", "beta2", "gamma2", "eta2", "p1", "p2")
_POWER_NAMES = ("p1", "p2")


class UsageError(ValueError):
    """A command line, config file or input the CLI refuses (exit 1)."""


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


def _load_config(path: str) -> dict[str, list[str]]:
    """The values of each key of a ``key=value`` config file, as texts. Only
    ``link`` may repeat."""
    config: dict[str, list[str]] = {}
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
                if key in config and key != "link":
                    raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
                config.setdefault(key, []).append(value.strip())
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


_SHORT_NAMES = {"single": schemes.SCHEME_SINGLE, "rs": schemes.SCHEME_RS,
                "bound": schemes.SCHEME_BOUND}


def _scheme_names(text: str) -> list[str]:
    """The schemes a comma list names (full or short names, or ``all``), in
    output order."""
    requested: set[str] = set()
    for token in (t.strip() for t in text.split(",")):
        name = _SHORT_NAMES.get(token, token)
        if token == "all":
            requested.update(schemes.SCHEMES)
        elif name in schemes.SCHEMES:
            requested.add(name)
        elif token:
            raise UsageError(f"unknown scheme {token!r}")
    if not requested:
        raise UsageError("no schemes requested")
    return [name for name in schemes.SCHEMES if name in requested]


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
    results = schemes.evaluate(params, _scheme_names(values["schemes"]))

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
        fields = _fields(r)
        f1, f2 = (f"{fields[key]:.4f}" if key in fields else "-" for key in ("f1", "f2"))
        bn = fields.get("bottleneck", "-")
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
    # Point k is start + k*step, clipped to stop, while it is at most
    # stop + step/2 and no earlier point reached stop. Points never decrease
    # in k, so the range is over the cap exactly when point MAX_SWEEP_POINTS
    # is still kept: within the limit, with the point before it below stop.
    limit = stop + step / 2.0
    if (start + MAX_SWEEP_POINTS * step <= limit
            and start + (MAX_SWEEP_POINTS - 1) * step < stop):
        span = (stop - start) / step + 0.5
        count = max(math.floor(span) + 1, MAX_SWEEP_POINTS + 1) if math.isfinite(span) else span
        raise UsageError(f"range {text!r} has {count} points, "
                         f"more than the cap of {MAX_SWEEP_POINTS}")
    # Once stop is kept the range ends: every later point clips back onto it.
    # A point equal to the one before is a step below the float spacing.
    points = []
    while (point := start + len(points) * step) <= limit and stop not in points[-1:]:
        point = min(point, stop)
        if point in points[-1:]:
            raise UsageError(f"range {text!r} repeats the point {point!r}: "
                             "its step is below the float spacing there")
        points.append(point)
    if not points:
        raise UsageError(f"range {text!r} is empty")
    return points


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
        for name, result in zip(names, schemes.evaluate(params, names)):
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
        ok, binding = schemes.vsi_check(check_alpha2, beta2, p1)
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
    result = schemes.rate_splitting(params)
    f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
    if as_json:
        print(json.dumps({"f1": f1, "f2": f2}, indent=2))
    else:
        print(f"hop1 f_hat = {_fmt(f1)}")
        print(f"hop2 f_hat = {_fmt(f2)}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(seed, name_filter) -> int:
    """Run the oracle verification suite; nonzero exit on any failure."""
    from . import oracle  # only verify needs it

    reports = oracle.run_suite(seed=seed, name_filter=name_filter)
    if not reports:
        raise UsageError(f"no checks match filter {name_filter!r}")
    for report in reports:
        print(report.line())
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# the parser, and the entry point with spec'd exit codes
# ---------------------------------------------------------------------------

def _checked(convert):
    """``convert`` as an argparse type: argparse shows the text of an
    ArgumentTypeError only, so a ValueError's text is passed on as one."""
    def check(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return check


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"{seed} is not a non-negative integer")
    return seed


# A flag's value in a config file, in any case: a true value sets the flag.
_TRUE, _FALSE = {"1", "true", "t", "yes", "y", "on"}, {"0", "false", "f", "no", "n", "off", ""}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises its usage errors and abbreviates no
    option."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, exit_on_error=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str):
        raise UsageError(message)


class _Command(_Parser):
    """A subcommand's parser. Its options take the next token as their value
    even when it begins with a dash (``--p1 -3dB``, ``--range -inf:1:0.5``).
    ``--config`` reads each ``key=value`` line of a file as the token
    ``--key=value``, for each option the command line leaves unset. The
    ``required`` options are checked after parsing, naming their choices."""

    required: tuple[argparse.Action, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        args = list(args)
        options = self._option_string_actions
        i = 0
        while i < len(args) - 1:
            # joined as --p1=-3dB, a value is never taken for an option
            if args[i] in options and options[args[i]].nargs != 0:
                args[i:i + 2] = [f"{args[i]}={args[i + 1]}"]
            i += 1
        if "--help" in args:  # help wins over every other token
            args = ["--help"]
        paths = [arg[len("--config="):] for arg in args if arg.startswith("--config=")]
        if paths and "--config" in options:
            given = {options[name].dest for name in (arg.split("=", 1)[0] for arg in args)
                     if name in options}
            args = self._file_tokens(_load_config(paths[-1]), given) + args
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self.required:
            if getattr(namespace, action.dest) is None:
                choose = f" Choose from: {', '.join(action.choices)}" if action.choices else ""
                raise UsageError(f"Missing option '{action.option_strings[0]}'.{choose}")
        return namespace, extras

    def _file_tokens(self, config: dict[str, list[str]], given: set[str]) -> list[str]:
        tokens = []
        for action in self._actions:
            if action.dest in given:
                continue
            flag = action.option_strings[0]
            for text in config.get(action.dest, ()):
                if action.nargs != 0:
                    tokens.append(f"{flag}={text}")
                elif text.lower() in _TRUE:
                    tokens.append(flag)
                elif text.lower() not in _FALSE:
                    raise UsageError(f"Invalid value for '{flag}': {text!r} is not a valid boolean")
        return tokens


def _build_parser() -> _Parser:
    """One parser for every subcommand. A subcommand takes --config when a
    file can set one of its options; an option's dest is the config key
    that sets it."""
    parser = _Parser(prog="meshrates",
                     description="Achievable rates of symmetric linear two-hop relay networks.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True, parser_class=_Command)
    as_json = {"dest": "as_json", "action": "store_true", "help": "machine-readable output"}

    def command(name, body, network=True, config=True) -> _Command:
        sub = commands.add_parser(name, help=body.__doc__, description=body.__doc__)
        sub.set_defaults(body=body)
        if config:
            sub.add_argument("--config", help="key=value file mirroring the flags; flags override")
        for param in _PARAM_NAMES if network else ():
            power = param in _POWER_NAMES
            sub.add_argument(f"--{param}", type=_checked(parse_power if power else float),
                             help=f"{param} (linear, or e.g. '3dB')" if power else None)
        if network:
            sub.add_argument("--duplex", default="full", choices=DUPLEX_MODES)
            sub.add_argument("--power-boost", action="store_true",
                             help="needs --duplex half: double powers before halving rates")
        return sub

    point = command("point", cmd_point)
    point.add_argument("--schemes", default="all",
                       help="comma list: single,rs,coop,mcp,bound or 'all'")
    point.add_argument("--json", **as_json)

    sweep = command("sweep", cmd_sweep)
    sweep.required = (sweep.add_argument("--param", choices=_PARAM_NAMES,
                                         help="swept parameter name"),
                      sweep.add_argument("--range", help="start:stop:step (inclusive)"))
    sweep.add_argument("--link", default=[], action="append",
                       help="linked parameter, e.g. eta2=alpha2 or p2=p1/2 (repeatable)")
    sweep.add_argument("--schemes", default="all")
    sweep.add_argument("--output", default="-", help="CSV path ('-' = stdout)")

    region = command("region", cmd_region)
    region.required = (region.add_argument("--hop", choices=tuple(sorted(_REGION_BUILDERS))),)
    region.add_argument("--f", type=_checked(float), default=0.5,
                        help="private power fraction of the selected hop (default 0.5)")
    region.add_argument("--json", **as_json)

    threshold = command("threshold", cmd_threshold, network=False)
    threshold.required = (threshold.add_argument("--beta2", type=_checked(float)),
                          threshold.add_argument("--p1", type=_checked(parse_power)))
    threshold.add_argument("--method", default="both", choices=("paper", "exact", "both"))
    # named apart from the alpha2 config key: a shared network file must not
    # turn the check on
    threshold.add_argument("--alpha2", dest="check_alpha2", metavar="ALPHA2",
                           type=_checked(float),
                           help="also test this gain against the seven MAC bounds")
    threshold.add_argument("--json", **as_json)

    command("optsplit", cmd_optsplit).add_argument("--json", **as_json)

    verify = command("verify", cmd_verify, network=False, config=False)
    verify.add_argument("--seed", type=_checked(_seed), default=0)
    verify.add_argument("--filter", dest="name_filter", metavar="FILTER",
                        help="only run checks whose name contains this substring")
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        values = vars(_PARSER.parse_args(argv))
        body = values.pop("body")
        values.pop("config", None)
        return body(**values) or 0
    except SystemExit as exc:  # --help
        return exc.code
    except (argparse.ArgumentError, ValueError) as exc:
        # on Python 3.13 an unknown or missing argument names no option
        name = getattr(exc, "argument_name", None)
        text = f"Invalid value for '{name}': {exc.message}" if name else exc
        print(f"error: {text}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
