"""Command-line front end.

Subcommands: ``point`` (single evaluation), ``sweep`` (CSV parameter sweeps,
e.g. the bundled figure-reproduction configs), ``region`` (halfspace/vertex
dumps), ``threshold`` / ``optsplit`` (very-strong-interference thresholds and
optimal power fractions), and ``verify`` (oracle suite).

Every flag can also come from a ``key=value`` config file (``--config``);
explicit flags win, and a key that names no subcommand's option is a usage
error. Powers accept linear values or a trailing ``dB``.

Exit codes: 0 success, 1 usage error, 3 verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field

import click

from . import oracle, schemes
from .model import HopSplit, NetworkParams, db_to_linear
from .polytope import vertices
from .regions import hop1_region, hop2_coop_region, hop2_mcp_region, hop2_rs_region

_SCHEME_ALIASES = {
    "single": schemes.SCHEME_SINGLE,
    "single_rate": schemes.SCHEME_SINGLE,
    "rs": schemes.SCHEME_RS,
    "rate_splitting": schemes.SCHEME_RS,
    "coop": schemes.SCHEME_COOP,
    "mcp": schemes.SCHEME_MCP,
    "bound": schemes.SCHEME_BOUND,
    "first_hop_bound": schemes.SCHEME_BOUND,
}

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
# Config file + flag resolution
# ---------------------------------------------------------------------------

def _config_keys() -> set[str]:
    """Keys a config file may set: every subcommand's option names, so one
    file can be shared between subcommands."""
    return {opt.lstrip("-").replace("-", "_")
            for command in cli.commands.values()
            for param in command.params
            for opt in param.opts}


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    allowed = _config_keys()
    config: dict[str, str] = {}
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
                if key not in allowed:
                    raise click.UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in config:
                    config[key] = config[key] + "," + value.strip()
                else:
                    config[key] = value.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    return config


def _resolve(flags: dict, config: dict[str, str], key: str, parser, default=None,
             required: bool = False):
    value = flags.get(key)
    if value is not None and value != ():
        return value
    if key in config:
        try:
            return parser(config[key])
        except ValueError as exc:
            raise click.UsageError(f"config value {key}={config[key]!r}: {exc}")
    if required and default is None:
        raise click.UsageError(f"missing required parameter --{key.replace('_', '-')}")
    return default


def _resolve_params(flags: dict, config: dict[str, str],
                    skip: set[str] = frozenset()) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in _PARAM_NAMES:
        if name in skip:
            continue
        parser = parse_power if name in _POWER_NAMES else float
        values[name] = _resolve(flags, config, name, parser, required=True)
    return values


def _resolve_network(flags: dict, config: dict[str, str]) -> NetworkParams:
    values = _resolve_params(flags, config)
    duplex = _resolve(flags, config, "duplex", str, default="full")
    boost = _resolve(flags, config, "power_boost",
                     lambda s: s.lower() in ("1", "true", "yes"), default=False)
    try:
        return NetworkParams(duplex=duplex, power_boost=boost, **values)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _resolve_optimizer(flags: dict, config: dict[str, str]) -> schemes.OptimizerConfig:
    try:
        return schemes.OptimizerConfig(
            coarse_points=_resolve(flags, config, "coarse_points", int,
                                   default=schemes.OptimizerConfig.coarse_points),
            refine_iters=_resolve(flags, config, "refine_iters", int,
                                  default=schemes.OptimizerConfig.refine_iters),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _resolve_schemes(flags: dict, config: dict[str, str]) -> list[str]:
    raw = _resolve(flags, config, "schemes", str, default="all")
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    requested: set[str] = set()
    for token in tokens:
        if token == "all":
            requested.update(schemes.ALL_SCHEMES)
        elif token in _SCHEME_ALIASES:
            requested.add(_SCHEME_ALIASES[token])
        else:
            raise click.UsageError(f"unknown scheme {token!r}")
    if not requested:
        raise click.UsageError("no schemes requested")
    return [s for s in schemes.ALL_SCHEMES if s in requested]


def _evaluate(name: str, params: NetworkParams,
              cfg: schemes.OptimizerConfig) -> schemes.SchemeResult:
    if name == schemes.SCHEME_SINGLE:
        return schemes.single_rate(params)
    if name == schemes.SCHEME_RS:
        return schemes.rate_splitting(params, cfg)
    if name == schemes.SCHEME_COOP:
        return schemes.coop(params, cfg)
    if name == schemes.SCHEME_MCP:
        return schemes.mcp(params, cfg)
    if name == schemes.SCHEME_BOUND:
        return schemes.first_hop_upper_bound(params, cfg)
    raise ValueError(f"unknown scheme {name!r}")


# ---------------------------------------------------------------------------
# Shared option decorators
# ---------------------------------------------------------------------------

def _network_options(fn):
    for name in reversed(_PARAM_NAMES):
        if name in _POWER_NAMES:
            fn = click.option(f"--{name}", type=parse_power, default=None,
                              help=f"{name} (linear, or e.g. '3dB')")(fn)
        else:
            fn = click.option(f"--{name}", type=float, default=None)(fn)
    fn = click.option("--duplex", type=click.Choice(["full", "half"]), default=None)(fn)
    fn = click.option("--power-boost", "power_boost", is_flag=True, default=None,
                      help="half duplex only: double powers before halving rates")(fn)
    return fn


def _optimizer_options(fn):
    fn = click.option("--coarse-points", type=int, default=None)(fn)
    fn = click.option("--refine-iters", type=int, default=None)(fn)
    return fn


def _config_option(fn):
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="key=value file mirroring the flags; flags override")(fn)


@click.group()
def cli() -> None:
    """Achievable rates of symmetric linear two-hop relay networks."""


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def _result_row(result: schemes.SchemeResult) -> dict:
    row = {"scheme": result.scheme, "rate": result.rate}
    if result.split_hop1 is not None:
        row["f1"] = result.split_hop1.f_private
    if result.split_hop2 is not None:
        row["f2"] = result.split_hop2.f_private
    if result.bottleneck_hop is not None:
        row["bottleneck"] = str(result.bottleneck_hop)
    if result.operating_point is not None:
        row["r_private"] = result.operating_point.r_private
        row["r_common"] = result.operating_point.r_common
    if result.binding:
        row["binding"] = list(result.binding)
    return row


@cli.command("point")
@_config_option
@_network_options
@_optimizer_options
@click.option("--schemes", "schemes_flag", default=None,
              help="comma list: single,rs,coop,mcp,bound or 'all'")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cmd_point(config_path, schemes_flag, as_json, **flags) -> None:
    """Evaluate the requested schemes for one parameter point."""
    config = _load_config(config_path)
    flags["schemes"] = schemes_flag
    params = _resolve_network(flags, config)
    cfg = _resolve_optimizer(flags, config)
    names = _resolve_schemes(flags, config)
    results = [_evaluate(name, params, cfg) for name in names]

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


@dataclass(frozen=True)
class LinkedParam:
    """Parameter tied to the swept (or another fixed) one: copy or scale."""

    dst: str
    src: str
    factor: float = 1.0

    def apply(self, values: dict[str, float]) -> None:
        if self.src not in values:
            raise click.UsageError(f"link source {self.src!r} has no value")
        values[self.dst] = values[self.src] * self.factor


@dataclass
class SweepSpec:
    """One CSV sweep: a swept parameter, linked parameters, fixed fields."""

    param: str
    values: list[float]
    links: list[LinkedParam]
    fixed: dict[str, float]
    scheme_names: list[str]
    duplex: str = "full"
    power_boost: bool = False
    optimizer: schemes.OptimizerConfig = field(default_factory=schemes.OptimizerConfig)

    def params_at(self, value: float) -> NetworkParams:
        values = dict(self.fixed)
        values[self.param] = value
        for link in self.links:
            link.apply(values)
        missing = [n for n in _PARAM_NAMES if n not in values]
        if missing:
            raise click.UsageError(f"missing parameter(s): {', '.join(missing)}")
        return NetworkParams(duplex=self.duplex, power_boost=self.power_boost,
                             **{n: values[n] for n in _PARAM_NAMES})


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"range must be numeric, got {text!r}")
    if step <= 0.0:
        raise click.UsageError(f"range step must be positive, got {step}")
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


def _parse_link(text: str) -> LinkedParam:
    m = _LINK_RE.match(text.strip())
    if not m:
        raise click.UsageError(f"link must look like eta2=alpha2 or p2=p1/2, got {text!r}")
    dst = m.group("dst")
    src = m.group("src") or m.group("src2")
    if dst not in _PARAM_NAMES or src not in _PARAM_NAMES:
        raise click.UsageError(f"link {text!r} references unknown parameter")
    factor = 1.0
    if m.group("mul"):
        factor = float(m.group("mul"))
    elif m.group("mul2"):
        factor = float(m.group("mul2"))
    elif m.group("div"):
        divisor = float(m.group("div"))
        if divisor == 0.0:
            raise click.UsageError("link divisor must be non-zero")
        factor = 1.0 / divisor
    return LinkedParam(dst=dst, src=src, factor=factor)


def _sweep_columns(scheme_names: list[str], swept: str) -> list[str]:
    columns = [swept]
    for name in scheme_names:
        columns.append(name)
        if name in (schemes.SCHEME_RS, schemes.SCHEME_COOP, schemes.SCHEME_MCP):
            columns += [f"{name}_f1", f"{name}_f2"]
        elif name == schemes.SCHEME_BOUND:
            columns.append(f"{name}_f1")
        if name in (schemes.SCHEME_SINGLE, schemes.SCHEME_RS):
            columns.append(f"{name}_bottleneck")
    return columns


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[str]]]:
    """Evaluate a sweep; returns (header, rows) with formatted cells."""
    header = _sweep_columns(spec.scheme_names, spec.param)
    rows = []
    for value in spec.values:
        params = spec.params_at(value)
        cells = {spec.param: _fmt(value)}
        for name in spec.scheme_names:
            result = _evaluate(name, params, spec.optimizer)
            cells[name] = _fmt(result.rate)
            if result.split_hop1 is not None:
                cells[f"{name}_f1"] = _fmt(result.split_hop1.f_private)
            if result.split_hop2 is not None:
                cells[f"{name}_f2"] = _fmt(result.split_hop2.f_private)
            if result.bottleneck_hop is not None:
                cells[f"{name}_bottleneck"] = str(result.bottleneck_hop)
        rows.append([cells.get(c, "") for c in header])
    return header, rows


@cli.command("sweep")
@_config_option
@_network_options
@_optimizer_options
@click.option("--param", "param_flag", default=None, help="swept parameter name")
@click.option("--range", "range_flag", default=None, help="start:stop:step (inclusive)")
@click.option("--link", "link_flag", multiple=True,
              help="linked parameter, e.g. eta2=alpha2 or p2=p1/2 (repeatable)")
@click.option("--schemes", "schemes_flag", default=None)
@click.option("--output", "output_flag", default=None, help="CSV path ('-' = stdout)")
def cmd_sweep(config_path, param_flag, range_flag, link_flag, schemes_flag,
              output_flag, **flags) -> None:
    """Sweep one parameter and emit a CSV of scheme rates and splits."""
    config = _load_config(config_path)
    flags["schemes"] = schemes_flag

    param = _resolve({"param": param_flag}, config, "param", str, required=True)
    if param not in _PARAM_NAMES:
        raise click.UsageError(f"cannot sweep unknown parameter {param!r}")
    range_text = _resolve({"range": range_flag}, config, "range", str, required=True)
    values = _parse_range(range_text)
    if param in _POWER_NAMES:
        values = [v for v in values if v > 0.0]
        if not values:
            raise click.UsageError("power sweep range must contain positive values")

    link_texts = list(link_flag)
    if not link_texts and "link" in config:
        link_texts = [t.strip() for t in config["link"].split(",") if t.strip()]
    links = [_parse_link(t) for t in link_texts]

    linked_names = {link.dst for link in links}
    fixed = _resolve_params(flags, config, skip=linked_names | {param})
    spec = SweepSpec(
        param=param,
        values=values,
        links=links,
        fixed=fixed,
        scheme_names=_resolve_schemes(flags, config),
        duplex=_resolve(flags, config, "duplex", str, default="full"),
        power_boost=_resolve(flags, config, "power_boost",
                             lambda s: s.lower() in ("1", "true", "yes"), default=False),
        optimizer=_resolve_optimizer(flags, config),
    )
    header, rows = run_sweep(spec)

    output = _resolve({"output": output_flag}, config, "output", str, default="-")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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
@click.option("--hop", "hop_flag", type=click.Choice(sorted(_REGION_BUILDERS)), default=None)
@click.option("--f", "f_flag", type=float, default=None,
              help="private power fraction of the selected hop (default 0.5)")
@click.option("--json", "as_json", is_flag=True)
def cmd_region(config_path, hop_flag, f_flag, as_json, **flags) -> None:
    """Print the halfspaces and vertices of one hop's rate region."""
    config = _load_config(config_path)
    params = _resolve_network(flags, config)
    hop = _resolve({"hop": hop_flag}, config, "hop", str, required=True)
    if hop not in _REGION_BUILDERS:
        raise click.UsageError(f"--hop must be one of {sorted(_REGION_BUILDERS)}")
    f_value = _resolve({"f": f_flag}, config, "f", float, default=0.5)
    try:
        split = HopSplit(f_value)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    region = _REGION_BUILDERS[hop](params, split)
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
@click.option("--beta2", type=float, default=None)
@click.option("--p1", type=parse_power, default=None)
@click.option("--method", type=click.Choice(["paper", "exact", "both"]), default="both")
@click.option("--alpha2", type=float, default=None,
              help="also test this gain against the seven MAC bounds")
@click.option("--json", "as_json", is_flag=True)
def cmd_threshold(config_path, beta2, p1, method, alpha2, as_json) -> None:
    """Very-strong-interference gain thresholds for the first hop."""
    config = _load_config(config_path)
    beta2 = _resolve({"beta2": beta2}, config, "beta2", float, required=True)
    p1 = _resolve({"p1": p1}, config, "p1", parse_power, required=True)
    if beta2 <= 0.0 or p1 <= 0.0:
        raise click.UsageError("threshold needs positive beta2 and p1")

    payload: dict = {"beta2": beta2, "p1": p1}
    if method in ("paper", "both"):
        payload["paper"] = schemes.vsi_threshold(beta2, p1, method="paper")
    if method in ("exact", "both"):
        payload["exact"] = schemes.vsi_threshold(beta2, p1, method="exact")
    if alpha2 is not None:
        params = NetworkParams(alpha2=alpha2, beta2=beta2, gamma2=1.0, eta2=0.0,
                               p1=p1, p2=1.0)
        ok, binding = schemes.vsi_check(params)
        payload["check"] = {"alpha2": alpha2, "achieves_single_user": ok, "binding": binding}

    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    for key in ("paper", "exact"):
        if key in payload:
            click.echo(f"{key} threshold alpha2 >= {_fmt(payload[key])}")
    if "check" in payload:
        check = payload["check"]
        verdict = "achieves" if check["achieves_single_user"] else "does NOT achieve"
        click.echo(f"alpha2={_fmt(alpha2)} {verdict} the single-user rate "
                   f"(binding: {check['binding']})")


@cli.command("optsplit")
@_config_option
@_network_options
@_optimizer_options
@click.option("--json", "as_json", is_flag=True)
def cmd_optsplit(config_path, as_json, **flags) -> None:
    """Optimal private power fraction per hop under rate splitting."""
    config = _load_config(config_path)
    params = _resolve_network(flags, config)
    cfg = _resolve_optimizer(flags, config)
    f1, f2 = schemes.optimal_private_fraction(params, cfg)
    if as_json:
        click.echo(json.dumps({"f1": f1, "f2": f2}, indent=2))
    else:
        click.echo(f"hop1 f_hat = {_fmt(f1)}")
        click.echo(f"hop2 f_hat = {_fmt(f2)}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@cli.command("verify")
@click.option("--seed", type=int, default=0)
@click.option("--filter", "name_filter", default=None,
              help="only run checks whose name contains this substring")
def cmd_verify(seed, name_filter) -> None:
    """Run the oracle verification suite; nonzero exit on any failure."""
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
