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

import csv
import io
import json
import math
import re
import sys

import click

from . import schemes
from .model import HopSplit, NetworkParams, db_to_linear
from .polytope import vertices
from .regions import hop1_region, hop2_coop_region, hop2_mcp_region, hop2_rs_region

_PARAM_NAMES = ("alpha2", "beta2", "gamma2", "eta2", "p1", "p2")
_POWER_NAMES = ("p1", "p2")


class VerificationFailure(Exception):
    """At least one verification check failed."""


def parse_power(text: str) -> float:
    """Parse a power value: bare numbers are linear, a trailing dB converts."""
    token = str(text).strip()
    if token.lower().endswith("db"):
        return db_to_linear(float(token[:-2].strip()))
    return float(token)


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


def _load_config(ctx: click.Context, _param, path: str | None) -> None:
    """Eager ``--config`` callback: the file becomes the command's default map,
    so every option takes the command line, else the file, else its default,
    through its own type. ``link`` may repeat; any other key may not."""
    if path is None:
        return
    config: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise click.UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                if key == "link":
                    config.setdefault(key, []).append(value.strip())
                elif key in config:
                    raise click.UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
                else:
                    config[key] = value.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    ctx.default_map = config


def _refuse_missing(missing: list[str]) -> None:
    if missing:
        raise click.UsageError(f"missing parameter(s): {', '.join(missing)}")


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
            raise click.UsageError(f"unknown scheme {token!r}")
    if not requested:
        raise click.UsageError("no schemes requested")
    return [name for name in _SCHEMES if name in requested]


# ---------------------------------------------------------------------------
# Shared option decorators
# ---------------------------------------------------------------------------

class _Choice(click.Choice):
    """A choice whose missing-option message lists the choices on one line,
    like every other usage error."""

    def get_missing_message(self, param, ctx) -> str:
        return f"Choose from: {', '.join(map(str, self.choices))}"


def _network_options(fn):
    for name in reversed(_PARAM_NAMES):
        if name in _POWER_NAMES:
            fn = click.option(f"--{name}", type=parse_power, default=None,
                              help=f"{name} (linear, or e.g. '3dB')")(fn)
        else:
            fn = click.option(f"--{name}", type=float, default=None)(fn)
    fn = click.option("--duplex", type=_Choice(["full", "half"]), default="full")(fn)
    fn = click.option("--power-boost", is_flag=True,
                      help="needs --duplex half: double powers before halving rates")(fn)
    return fn


def _config_option(fn):
    return click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
                        callback=_load_config,
                        help="key=value file mirroring the flags; flags override")(fn)


@click.group()
def cli() -> None:
    """Achievable rates of symmetric linear two-hop relay networks."""


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


@cli.command("point")
@_config_option
@_network_options
@click.option("--schemes", default="all",
              help="comma list: single,rs,coop,mcp,bound or 'all'")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
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
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return

    click.echo(f"{'scheme':<18} {'rate':>12} {'f1':>8} {'f2':>8} {'bottleneck':>10}")
    for r in results:
        f1 = f"{r.split_hop1.f_private:.4f}" if r.split_hop1 else "-"
        f2 = f"{r.split_hop2.f_private:.4f}" if r.split_hop2 else "-"
        bn = str(r.bottleneck_hop) if r.bottleneck_hop is not None else "-"
        click.echo(f"{r.scheme:<18} {r.rate:>12.6f} {f1:>8} {f2:>8} {bn:>10}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_LINK_RE = re.compile(
    r"^(?P<dst>\w+)=(?:"
    r"(?P<src>\w+)(?:\*(?P<mul>[0-9.eE+-]+)|/(?P<div>[0-9.eE+-]+))?"
    r"|(?P<mul2>[0-9.eE+-]+)\*(?P<src2>\w+))$"
)


def _ordered_links(links: list[tuple], param: str) -> list[tuple]:
    """The (dst, src, factor) links, each after the link that sets its
    source, so that every link holds once all are applied. A link to the
    swept parameter, a parameter linked twice, or links that read each other
    in a cycle are usage errors naming the parameter or the links."""
    targets = [dst for dst, _, _ in links]
    if param in targets:
        raise click.UsageError(f"--link cannot set the swept parameter {param}")
    twice = sorted({dst for dst in targets if targets.count(dst) > 1})
    if twice:
        raise click.UsageError(f"parameter(s) linked more than once: {', '.join(twice)}")
    ordered, pending = [], list(links)
    while pending:
        unset = {dst for dst, _, _ in pending}
        ordered += [link for link in pending if link[1] not in unset]
        blocked = [link for link in pending if link[1] in unset]
        if len(blocked) == len(pending):
            text = ", ".join(f"{dst}={src}" + ("" if factor == 1.0 else f"*{factor:g}")
                             for dst, src, factor in blocked)
            raise click.UsageError(f"links in or behind a cycle: {text}")
        pending = blocked
    return ordered


# Most points one sweep may have; the swept list is built in memory.
MAX_SWEEP_POINTS = 10**6


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"range must be numeric, got {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise click.UsageError(f"range start, stop and step must be finite, got {text!r}")
    if step <= 0.0:
        raise click.UsageError(f"range step must be positive, got {step}")
    # the loop below stops once start + k*step passes stop + step/2
    span = (stop - start) / step + 0.5
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count > MAX_SWEEP_POINTS:
        raise click.UsageError(f"range {text!r} has {count} points, "
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
        raise click.UsageError(f"range {text!r} is empty")
    return values


def _parse_link(text: str) -> tuple[str, str, float]:
    m = _LINK_RE.match(text.strip())
    if not m:
        raise click.UsageError(f"link must look like eta2=alpha2 or p2=p1/2, got {text!r}")
    dst = m.group("dst")
    src = m.group("src") or m.group("src2")
    if dst not in _PARAM_NAMES or src not in _PARAM_NAMES:
        raise click.UsageError(f"link {text!r} references unknown parameter")
    # the number pattern also admits non-numbers such as "1e" or "+-"
    number = m.group("mul") or m.group("mul2") or m.group("div") or "1"
    try:
        factor = 1.0 / float(number) if m.group("div") else float(number)
    except (ValueError, ZeroDivisionError):
        factor = math.nan
    if not math.isfinite(factor):
        raise click.UsageError(f"link {text!r} does not give a finite factor")
    return dst, src, factor


@cli.command("sweep")
@_config_option
@_network_options
@click.option("--param", type=_Choice(_PARAM_NAMES), required=True,
              help="swept parameter name")
@click.option("--range", required=True, help="start:stop:step (inclusive)")
@click.option("--link", multiple=True,
              help="linked parameter, e.g. eta2=alpha2 or p2=p1/2 (repeatable)")
@click.option("--schemes", default="all")
@click.option("--output", default="-", help="CSV path ('-' = stdout)")
def cmd_sweep(param, link, output, duplex, power_boost, **values) -> None:
    """Sweep one parameter and emit a CSV of scheme rates and splits."""
    swept = _parse_range(values["range"])
    if param in _POWER_NAMES:
        swept = [v for v in swept if v > 0.0]
        if not swept:
            raise click.UsageError("power sweep range must contain positive values")
    # each link's syntax is checked before the scheme names, how the links
    # fit together after them
    links = [_parse_link(text) for text in link]
    names = _scheme_names(values["schemes"])
    links = _ordered_links(links, param)
    fixed = {name: values[name] for name in _PARAM_NAMES if values[name] is not None}
    linked = {dst for dst, _, _ in links}
    # a linked parameter is missing only through its source
    _refuse_missing([name for name in _PARAM_NAMES
                     if name not in fixed and name != param and name not in linked])

    rows = []
    for value in swept:
        point = fixed | {param: value}
        for dst, src, factor in links:  # a link overrides a fixed value of its target
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
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write {output}: {exc}")


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

_REGION_BUILDERS = {
    "1": hop1_region,
    "2rs": hop2_rs_region,
    "2coop": hop2_coop_region,
    "2mcp": hop2_mcp_region,
}


@cli.command("region")
@_config_option
@_network_options
@click.option("--hop", type=_Choice(sorted(_REGION_BUILDERS)), required=True)
@click.option("--f", type=float, default=0.5,
              help="private power fraction of the selected hop (default 0.5)")
@click.option("--json", "as_json", is_flag=True)
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
        click.echo(json.dumps(payload, indent=2))
        return

    click.echo(region.provenance)
    click.echo(f"{'label':<16} {'coef_p':>6} {'coef_c':>6} {'bound':>14}")
    for h in region.halfspaces:
        click.echo(f"{h.label:<16} {h.coef_private:>6} {h.coef_common:>6} {h.bound:>14.9f}")
    click.echo("vertices (counterclockwise):")
    for v in verts:
        click.echo(f"  ({v.r_private:.9f}, {v.r_common:.9f})")


# ---------------------------------------------------------------------------
# threshold / optsplit
# ---------------------------------------------------------------------------

@cli.command("threshold")
@_config_option
@click.option("--beta2", type=float, required=True)
@click.option("--p1", type=parse_power, required=True)
@click.option("--method", type=_Choice(["paper", "exact", "both"]), default="both")
# named apart from the alpha2 config key: a shared network file must not
# turn the check on
@click.option("--alpha2", "check_alpha2", type=float, default=None,
              help="also test this gain against the seven MAC bounds")
@click.option("--json", "as_json", is_flag=True)
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
        click.echo(json.dumps(payload, indent=2))
        return
    for key in ("paper", "exact"):
        if key in payload:
            click.echo(f"{key} threshold alpha2 >= {_fmt(payload[key])}")
    if "check" in payload:
        check = payload["check"]
        verdict = "achieves" if check["achieves_single_user"] else "does NOT achieve"
        click.echo(f"alpha2={_fmt(check_alpha2)} {verdict} the single-user rate "
                   f"(binding: {check['binding']})")


@cli.command("optsplit")
@_config_option
@_network_options
@click.option("--json", "as_json", is_flag=True)
def cmd_optsplit(as_json, duplex, power_boost, **values) -> None:
    """Optimal private power fraction per hop under rate splitting."""
    params = _network(values, duplex, power_boost)
    f1, f2 = schemes.optimal_private_fraction(params)
    if as_json:
        click.echo(json.dumps({"f1": f1, "f2": f2}, indent=2))
    else:
        click.echo(f"hop1 f_hat = {_fmt(f1)}")
        click.echo(f"hop2 f_hat = {_fmt(f2)}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@cli.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--filter", "name_filter", default=None,
              help="only run checks whose name contains this substring")
def cmd_verify(seed, name_filter) -> None:
    """Run the oracle verification suite; nonzero exit on any failure."""
    from . import oracle  # only verify needs it

    reports = oracle.run_suite(seed=seed, name_filter=name_filter)
    if not reports:
        raise click.UsageError(f"no checks match filter {name_filter!r}")
    for report in reports:
        click.echo(report.line())
    failed = sum(1 for r in reports if not r.passed)
    click.echo(f"{len(reports) - failed}/{len(reports)} checks passed")
    if failed:
        raise VerificationFailure(f"{failed} checks failed")


# ---------------------------------------------------------------------------
# entry point with spec'd exit codes
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except VerificationFailure:
        return 3
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
