"""Experiment runner: presets, config-file sweeps, zone grids, validation.

Every experiment is a config file; a preset is one whose text ships in
``_PRESETS``. Results are CSVs (optionally mirrored to JSON) with a
deterministic body; the only run-dependent line is a leading
``# generated_at=`` comment that ``--no-timestamp`` removes. An experiment
with several sub-configurations (user counts or SNR settings) writes one
file per sub-configuration, suffixed with its label; all sweeps of one run
share one Monte Carlo pass, which draws each block once for every user
count. Metadata comment lines record every parameter and whether it came
from the reproduced setup (``caption``/``text``) or was a local choice
(``choice``).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import os
import sys
from dataclasses import dataclass

from .model import SystemConfig, db_to_linear
from .montecarlo import Scheme, SweepRequest, SweepRow, check_request, check_run, swept_keys, sweeps
# perfbench traces sweeps by the name ``cli.sweep``; runs go through ``sweeps``
from .montecarlo import sweep  # noqa: F401
from .zones import grid_runs
# perfbench traces zone grids by the name ``cli.classify_grid``; runs go through ``grid_runs``
from .zones import classify_grid  # noqa: F401

__all__ = ["ExperimentSpec", "PRESET_NAMES", "build_parser", "main"]

DEFAULT_TRIALS = 10**6
DEFAULT_SEED = 1234

SWEEP_COLUMNS = [
    "axis_value",
    "scheme",
    "mc_gfu_outage",
    "mc_std_err",
    "mc_gbu_outage",
    "analytic_exact",
    "analytic_highsnr",
    "analytic_asymptote",
    "trials",
    "seed",
    "case1_frac",
    "case2_frac",
    "case3_frac",
    "unresolved",
    "error",
]
ZONE_COLUMNS = ["target_gbu", "target_gfu", "zone_label"]

# Each preset is the text of a config file. It leaves out the swept key, and the
# GFU power under a locked ratio: the grid sets them at every point. The ratio is
# linear: no dB float converts to exactly 15.0, and the last bit of every
# locked GFU power reaches the output.
_PRESETS = {
    "fig3": """
[system]
target_rate_gbu = 2.5
target_rate_gfu = 1.5
[sweep]
axis = gbu_power_db
grid = 20 25 30 35 40 45 50
gbu_to_gfu_power_ratio = 15
[sweep.k1]
num_gfus = 1
[sweep.k5]
num_gfus = 5
[metadata]
preset = caption fig3
num_gfus = caption
target_rate_gbu = caption
target_rate_gfu = caption
gfu_power = caption gbu_power/15
gbu_power_db_grid = choice 20:50:5
cr-noma-sgf-pc = choice omitted: power-control allocation rule out of scope
""",
    "fig4": """
[system]
gbu_power_db = 15
target_rate_gbu = 3
target_rate_gfu = 3
[sweep]
axis = gfu_power_db
grid = 0 5 10 15 20 25 30 35 40 45
[sweep.k1]
num_gfus = 1
[sweep.k5]
num_gfus = 5
[metadata]
preset = caption fig4
num_gfus = text
target_rate_gbu = caption
target_rate_gfu = caption
gbu_power_db = text
gfu_power_db_grid = text 0:45:5
cr-noma-sgf-pc = choice omitted: power-control allocation rule out of scope
""",
    "fig5": """
[system]
target_rate_gbu = 2
target_rate_gfu = 1.5
[sweep]
axis = gbu_power_db
grid = 20 25 30 35 40 45 50
schemes = cr-rsma-sgf
gbu_to_gfu_power_ratio = 15
[sweep.k1]
num_gfus = 1
[sweep.k2]
num_gfus = 2
[sweep.k4]
num_gfus = 4
[metadata]
preset = text fig5
num_gfus = choice
target_rate_gbu = text
target_rate_gfu = text
gfu_power = text gbu_power/15
gbu_power_db_grid = choice 20:50:5
""",
    "fig6": """
[system]
num_gfus = 5
gbu_power_db = 10
gfu_power_db = 15
[sweep]
axis = target_rate
grid = 0.5 1 1.5 2 2.5 3 3.5 4 4.5 5 5.5 6
[metadata]
preset = text fig6
num_gfus = choice
gbu_power_db = text
gfu_power_db = text
target_rate = text swept jointly for both users
target_rate_grid = choice 0.5:6:0.5
cr-noma-sgf-pc = choice omitted: power-control allocation rule out of scope
""",
    "fig7": """
[system]
target_rate_gbu = 1.5
target_rate_gfu = 2
[sweep]
axis = num_gfus
grid = 1 2 3 4 5 6 7 8
[sweep.a]
gbu_power_db = 20.0
gfu_power_db = 10.0
[sweep.b]
gbu_power_db = 10.0
gfu_power_db = 20.0
[metadata]
preset = text fig7
target_rate_gbu = text
target_rate_gfu = text
gbu_power_db = text
gfu_power_db = text
num_gfus_grid = choice 1:8:1
cr-noma-sgf-pc = choice omitted: power-control allocation rule out of scope
# the source lists the first SNR pair twice; this second pair is a documented
# substitute, not a reproduced value
[metadata.b]
gbu_power_db = choice
gfu_power_db = choice
""",
    "zone": """
[zone]
p0g0_db = 8
psgk_db = 15
grid = 200
[metadata]
preset = caption zone
p0g0_db = caption
psgk_db = caption
grid = choice
""",
}
PRESET_NAMES = tuple(_PRESETS)

_SYSTEM_KEYS = {"num_gfus", "gbu_power_db", "gfu_power_db", "target_rate_gbu", "target_rate_gfu"}
_SWEEP_KEYS = {"axis", "grid", "schemes", "gbu_to_gfu_power_ratio"}
# section -> the keys it may hold; None: any key, as a metadata key names its line
_SECTION_KEYS = {
    "run": {"trials", "seed"},
    "zone": {"p0g0_db", "psgk_db", "grid"},
    "system": _SYSTEM_KEYS,
    "sweep": _SWEEP_KEYS,
    "metadata": None,
}
# where a metadata line says its value came from
_SOURCES = ("caption", "text", "choice")
# metadata keys a run may write itself, so a [metadata] line may not set them
_RUN_KEYS = ("trials", "seed", "config_file")


@dataclass(frozen=True)
class ExperimentSpec:
    """One output of a run: a sweep (``request`` set) or a zone grid (``zone`` set,
    as received GBU power in dB, received GFU power in dB, points per axis)."""

    label: str
    metadata: tuple[tuple[str, str, str], ...]
    request: SweepRequest | None = None
    zone: tuple[float, float, int] | None = None


class UsageError(Exception):
    pass


def _load_experiment(
    preset: str | None, path: str | None, overrides: dict
) -> tuple[int, int, list[ExperimentSpec]]:
    """The trials, seed and specs of a preset or of the INI file at ``path``.

    ``overrides`` maps sections to ``{key: text}`` that beat the experiment's
    own values, as ``--trials``/``--seed`` beat ``[run]``; ``[run]`` beats the
    built-in defaults. Each ``[sweep.<label>]`` section is one sweep, its keys
    over those of ``[system]`` and ``[sweep]``. A ``[metadata]`` (and
    ``[metadata.<label>]``) line ``key = source [value]`` takes, without a
    value, the sub-configuration's raw value of ``key``. The ``[system]`` keys
    the grid sets (and ``gfu_power_db`` under a locked ratio on a GBU power
    sweep) may be left out. The sweep request is checked by the engine's
    ``check_request``, so its errors are config-file errors too.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if preset:
            parser.read_string(_PRESETS[preset])
            head = ()
        elif parser.read(path):
            head = (("config_file", path, "choice"),)
        else:
            raise UsageError(f"cannot read config file {path!r}")
        if overrides.get("zone") and not parser.has_section("zone"):
            raise UsageError("--p0g0-db, --psgk-db and --grid apply to zone runs only")
        parser.read_dict({section: kv for section, kv in overrides.items() if kv})

        labels = [s[len("sweep.") :] for s in parser.sections() if s.startswith("sweep.")]
        # each label suffixes a file name, and a file system may ignore case
        if len({label.casefold() for label in labels}) < len(labels):
            raise UsageError(f"sweep labels {labels} must differ in more than case")
        allowed = dict(_SECTION_KEYS)
        for label in labels:
            allowed[f"sweep.{label}"] = _SYSTEM_KEYS | _SWEEP_KEYS
            allowed[f"metadata.{label}"] = None
        for section in parser.sections():
            if section not in allowed:
                raise UsageError(f"unknown section [{section}]")
            unknown = allowed[section] is not None and set(parser[section]) - allowed[section]
            if unknown:
                raise UsageError(f"unknown key(s) {sorted(unknown)} in [{section}]")
        zone = parser.has_section("zone")
        if zone and (labels or parser.has_section("system") or parser.has_section("sweep")):
            raise UsageError("a [zone] run cannot share its file with sweep sections")

        def merged(*sections):
            """The keys of the given sections that exist; a later section wins."""
            return {k: v for s in sections if parser.has_section(s) for k, v in parser[s].items()}

        trials = parser.getint("run", "trials", fallback=DEFAULT_TRIALS)
        seed = parser.getint("run", "seed", fallback=DEFAULT_SEED)
        specs = []
        for label in labels or [""]:
            values = merged("zone", "system", "sweep", f"sweep.{label}")
            metadata = list(head)
            for key, line in merged("metadata", f"metadata.{label}").items():
                if key in _RUN_KEYS:
                    raise UsageError(f"metadata {key!r} is recorded by the run itself")
                # an empty line has no source, which the check below names
                source, *value = line.split(None, 1) or [""]
                if source not in _SOURCES:
                    raise UsageError(f"metadata {key!r}: source must be one of {_SOURCES}")
                if not value and key not in values:
                    raise UsageError(f"metadata {key!r} has no value and names no key given")
                metadata.append((key, value[0] if value else values[key], source))
            for key, value, _ in metadata:
                # each entry is one "# key=value" comment line above the CSV header
                if len(f"{key}={value}".splitlines()) > 1:
                    raise UsageError(f"metadata {key!r} spans more than one line")
            if zone:
                zone_grid = (
                    float(values.get("p0g0_db", 8.0)),
                    float(values.get("psgk_db", 15.0)),
                    int(values.get("grid", 200)),
                )
                specs.append(ExperimentSpec(label, tuple(metadata), zone=zone_grid))
                continue
            axis, ratio = values["axis"], values.get("gbu_to_gfu_power_ratio")
            ratio = None if ratio is None else float(ratio)
            # a key the grid sets and the file leaves out gets a placeholder no output reads
            system = {**dict.fromkeys(swept_keys(axis, ratio), "1"), **values}
            base = SystemConfig.from_db(
                num_gfus=int(system["num_gfus"]),
                gbu_power_db=float(system["gbu_power_db"]),
                gfu_power_db=float(system["gfu_power_db"]),
                target_rate_gbu=float(system["target_rate_gbu"]),
                target_rate_gfu=float(system["target_rate_gfu"]),
            )
            grid = map(float, values["grid"].split())
            schemes = values.get("schemes", "cr-rsma-sgf cr-noma-sgf").split()
            request = check_request(SweepRequest(base, axis, grid, schemes, ratio))
            specs.append(ExperimentSpec(label, tuple(metadata), request=request))
        return trials, seed, specs
    except (KeyError, ValueError, configparser.Error) as err:
        raise UsageError(f"invalid config file {preset or path!r}: {err}") from err


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Scheme):
        return value.value
    return str(value)


def _sweep_row_cells(row: SweepRow, trials: int, seed: int) -> list[str]:
    est = row.estimate
    # an error row has no estimate, so its Monte Carlo and case cells are empty
    mc = (None,) * 6
    if est is not None:
        fracs = (occ / est.trials for occ in est.case_tallies.occurrences)
        mc = (est.gfu_outage_prob, est.std_err_gfu, est.gbu_outage_prob, *fracs)
    values = (
        row.axis_value, row.scheme, *mc[:3],
        row.analytic_exact, row.analytic_highsnr, row.analytic_asymptote,
        trials, seed, *mc[3:], row.unresolved, row.error,
    )
    return [_fmt(value) for value in values]


def _write_csv(path: str, metadata, header, timestamp: bool, cells_rows=(), body="") -> None:
    """Write the comment lines and header, then ``cells_rows`` through ``csv.writer``
    and ``body``, lines already formatted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if timestamp:
            now = datetime.datetime.now(datetime.timezone.utc).isoformat()
            fh.write(f"# generated_at={now}\n")
        for key, value, source in metadata:
            fh.write(f"# {key}={value} source={source}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells_rows)
        fh.write(body)


def _json_objects(keys, columns) -> str:
    """The JSON list of objects whose ``keys[i]`` values are ``columns[i]``, one
    per object, as ``json.dumps`` with ``indent=1, sort_keys=True`` writes it at
    depth one. Every value is a string; each distinct one is encoded once."""
    if not columns or not columns[0]:
        return "[]"
    order = sorted(range(len(keys)), key=keys.__getitem__)
    # a key's own "%" must not read as a placeholder
    item = ",\n".join(f"   {json.dumps(keys[i]).replace('%', '%%')}: %s" for i in order)
    encoded = {cell: json.dumps(cell) for cell in set().union(*columns)}
    values = zip(*([encoded[cell] for cell in columns[i]] for i in order))
    return "[\n" + ",\n".join(map(f"  {{\n{item}\n  }}".__mod__, values)) + "\n ]"


def _write_json_mirror(path: str, metadata, header, columns) -> None:
    """Write ``json.dumps(payload, indent=1, sort_keys=True)`` and a newline, for the
    payload of ``metadata`` objects and one object per row, whose ``header[i]``
    cell is in ``columns[i]``. The fixed layout is written directly: the
    encoder takes about a tenth of a second per 10,000 zone rows."""
    meta = _json_objects(("key", "value", "source"), list(zip(*metadata)))
    rows = _json_objects(header, columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "metadata": {meta},\n "rows": {rows}\n}}\n')


def _output_path(out: str, spec: ExperimentSpec, multi: bool) -> str:
    if not multi or not spec.label:
        return out
    stem, ext = os.path.splitext(out)
    return f"{stem}_{spec.label}{ext or '.csv'}"


def _zone_body(p0g0_db: float, psgk_db: float, grid_n: int) -> str:
    """The CSV body of a zone grid, written run by run. No cell needs quoting: each
    is a float repr or a label value."""
    points, runs = grid_runs(db_to_linear(p0g0_db), db_to_linear(psgk_db), grid_n)
    text = [_fmt(t) for t in points]
    lines = []
    for t_gbu, start, end, label in runs:
        # the run's lines are head + text[i] + tail for i in start..end-1
        head, tail = _fmt(t_gbu) + ",", "," + label.value + "\n"
        lines.append(head + (tail + head).join(text[start:end]) + tail)
    return "".join(lines)


def _execute_spec(
    spec: ExperimentSpec,
    rows: list[SweepRow] | None,
    trials: int,
    seed: int,
    out: str,
    fmt: str,
    timestamp: bool,
) -> list[str]:
    """Write one spec's file(s): a zone grid, or the sweep ``rows`` computed for it.
    Only a sweep file records trials and seed; a zone grid reads neither."""
    run_meta = spec.metadata
    if spec.zone is not None:
        header = ZONE_COLUMNS
        body = _zone_body(*spec.zone)
        _write_csv(out, run_meta, header, timestamp, body=body)
        # the body's cells row by row; every len(header)-th of them is one column
        cells = body.replace("\n", ",").split(",")[:-1] if fmt == "json" else []
        columns = [cells[i :: len(header)] for i in range(len(header))]
    else:
        run_meta += (("trials", str(trials), "choice"), ("seed", str(seed), "choice"))
        header = SWEEP_COLUMNS
        cells = [_sweep_row_cells(row, trials, seed) for row in rows]
        _write_csv(out, run_meta, header, timestamp, cells_rows=cells)
        columns = list(zip(*cells))
    written = [out]
    if fmt == "json":
        json_path = os.path.splitext(out)[0] + ".json"
        _write_json_mirror(json_path, run_meta, header, columns)
        written.append(json_path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgfsim",
        description="Semi-grant-free rate-splitting uplink: sweeps, zone grids, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a preset or config-file experiment")
    run.add_argument("preset", nargs="?", choices=PRESET_NAMES, help="built-in experiment")
    run.add_argument("--config", help="INI experiment description (alternative to a preset)")
    run.add_argument(
        "--trials", type=int, help=f"default: the config file's [run] trials, else {DEFAULT_TRIALS}"
    )
    run.add_argument(
        "--seed", type=int, help=f"default: the config file's [run] seed, else {DEFAULT_SEED}"
    )
    run.add_argument("--out", help="output CSV path (multi-part presets add suffixes)")
    run.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    run.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generated_at comment for byte-reproducible output",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "sweep worker threads (default: 1); each also uses one helper thread "
            "that draws ahead; output does not depend on it"
        ),
    )
    run.add_argument("--p0g0-db", type=float, help="zone runs: received GBU power in dB")
    run.add_argument("--psgk-db", type=float, help="zone runs: received GFU power in dB")
    run.add_argument("--grid", type=int, help="zone runs: grid points per axis")
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="run the acceptance battery")
    validate.add_argument("--seed", type=int, default=None)
    validate.set_defaults(func=_cmd_validate)
    return parser


def _cmd_run(args) -> int:
    if bool(args.preset) == bool(args.config):
        raise UsageError("exactly one of a preset name or --config is required")
    # the mirror replaces the extension with .json; a file system may ignore its case
    if args.fmt == "json" and os.path.splitext(args.out or "")[1].lower() == ".json":
        raise UsageError("with --format json, --out must not end in .json: the mirror takes it")

    def flags(*keys):
        return {key: _fmt(getattr(args, key)) for key in keys if getattr(args, key) is not None}

    # an overridden zone value is recorded as a local choice
    zone = flags("p0g0_db", "psgk_db", "grid")
    overrides = {
        "run": flags("trials", "seed"),
        "zone": zone,
        "metadata": dict.fromkeys(zone, "choice"),
    }
    trials, seed, specs = _load_experiment(args.preset, args.config, overrides)
    # a zone run uses none of these, but every run checks them before writing
    check_run(trials, seed, args.workers)
    default_out = f"{args.preset}.csv" if args.preset else "results.csv"

    # a run is one zone grid or sweeps sharing one (trials, seed); one engine call
    # draws each block once for all of its sweeps
    results = [None] * len(specs)
    if specs[0].request is not None:
        results = sweeps([s.request for s in specs], trials, seed, args.workers)

    out = args.out or default_out
    multi, timestamp = len(specs) > 1, not args.no_timestamp
    for spec, rows in zip(specs, results):
        path = _output_path(out, spec, multi)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        for written in _execute_spec(spec, rows, trials, seed, path, args.fmt, timestamp):
            print(f"wrote {written}")
    return 0


def _cmd_validate(args) -> int:
    from . import acceptance

    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    failures = 0
    for result in acceptance.run_all(seed):
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} criterion(s) failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # e.g. a huge trial count's tallies, or many workers' draw buffers, two of
        # (K + 1) * 65,536 doubles each
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
