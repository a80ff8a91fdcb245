"""Experiment runner: presets, config-file sweeps, zone grids, validation.

Results are CSVs (optionally mirrored to JSON) with a deterministic body;
the only run-dependent line is a leading ``# generated_at=`` comment that
``--no-timestamp`` removes. Sweep presets that carry several user counts or
SNR settings write one file per sub-configuration, suffixed with the
sub-configuration label; all sweeps of one run share one Monte Carlo pass,
which draws each block once for every user count. Metadata comment lines
record every parameter and whether it came from the reproduced setup
(``caption``/``text``) or was a local choice (``choice``).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

from .model import SystemConfig, db_to_linear
from .montecarlo import SWEEP_AXES, Scheme, SweepRequest, SweepRow, sweeps
# perfbench traces sweeps by the name ``cli.sweep``; runs go through ``sweeps``
from .montecarlo import sweep  # noqa: F401
from .zones import classify_grid

__all__ = ["ExperimentSpec", "PRESET_NAMES", "build_parser", "main"]

PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "zone")
DEFAULT_TRIALS = 10**6
DEFAULT_SEED = 1234
_RATIO_15_DB = 10.0 * math.log10(15.0)

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

BOTH_SCHEMES = (Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF)
# the power-controlled baseline variant is intentionally absent: its
# allocation rule is not specified by this artifact's scope
PC_BASELINE_NOTE = (
    "cr-noma-sgf-pc",
    "omitted: power-control allocation rule out of scope",
    "choice",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One executable experiment: a sweep or a zone grid."""

    label: str
    kind: str  # "sweep" | "zone"
    trials: int
    seed: int
    base_config: SystemConfig | None = None
    axis: str | None = None
    grid: tuple[float, ...] = ()
    schemes: tuple[Scheme, ...] = BOTH_SCHEMES
    gbu_to_gfu_power_ratio: float | None = None
    zone_gbu_power_db: float = 8.0
    zone_gfu_power_db: float = 15.0
    zone_grid_n: int = 200
    metadata: tuple[tuple[str, str, str], ...] = field(default_factory=tuple)


def _drange(start: float, stop: float, step: float) -> tuple[float, ...]:
    count = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(count))


def _preset_fig3(trials: int, seed: int) -> list[ExperimentSpec]:
    grid = _drange(20.0, 50.0, 5.0)
    specs = []
    for k in (1, 5):
        specs.append(
            ExperimentSpec(
                label=f"k{k}",
                kind="sweep",
                trials=trials,
                seed=seed,
                base_config=SystemConfig.from_db(k, 30.0, 30.0 - _RATIO_15_DB, 2.5, 1.5),
                axis="gbu_power_db",
                grid=grid,
                gbu_to_gfu_power_ratio=15.0,
                metadata=(
                    ("preset", "fig3", "caption"),
                    ("num_gfus", str(k), "caption"),
                    ("target_rate_gbu", "2.5", "caption"),
                    ("target_rate_gfu", "1.5", "caption"),
                    ("gfu_power", "gbu_power/15", "caption"),
                    ("gbu_power_db_grid", "20:50:5", "choice"),
                    PC_BASELINE_NOTE,
                ),
            )
        )
    return specs


def _preset_fig4(trials: int, seed: int) -> list[ExperimentSpec]:
    grid = _drange(0.0, 45.0, 5.0)
    specs = []
    for k in (1, 5):
        specs.append(
            ExperimentSpec(
                label=f"k{k}",
                kind="sweep",
                trials=trials,
                seed=seed,
                base_config=SystemConfig.from_db(k, 15.0, 0.0, 3.0, 3.0),
                axis="gfu_power_db",
                grid=grid,
                metadata=(
                    ("preset", "fig4", "caption"),
                    ("num_gfus", str(k), "text"),
                    ("target_rate_gbu", "3", "caption"),
                    ("target_rate_gfu", "3", "caption"),
                    ("gbu_power_db", "15", "text"),
                    ("gfu_power_db_grid", "0:45:5", "text"),
                    PC_BASELINE_NOTE,
                ),
            )
        )
    return specs


def _preset_fig5(trials: int, seed: int) -> list[ExperimentSpec]:
    grid = _drange(20.0, 50.0, 5.0)
    specs = []
    for k in (1, 2, 4):
        specs.append(
            ExperimentSpec(
                label=f"k{k}",
                kind="sweep",
                trials=trials,
                seed=seed,
                base_config=SystemConfig.from_db(k, 30.0, 30.0 - _RATIO_15_DB, 2.0, 1.5),
                axis="gbu_power_db",
                grid=grid,
                schemes=(Scheme.CR_RSMA_SGF,),
                gbu_to_gfu_power_ratio=15.0,
                metadata=(
                    ("preset", "fig5", "text"),
                    ("num_gfus", str(k), "choice"),
                    ("target_rate_gbu", "2", "text"),
                    ("target_rate_gfu", "1.5", "text"),
                    ("gfu_power", "gbu_power/15", "text"),
                    ("gbu_power_db_grid", "20:50:5", "choice"),
                ),
            )
        )
    return specs


def _preset_fig6(trials: int, seed: int) -> list[ExperimentSpec]:
    grid = _drange(0.5, 6.0, 0.5)
    return [
        ExperimentSpec(
            label="",
            kind="sweep",
            trials=trials,
            seed=seed,
            base_config=SystemConfig.from_db(5, 10.0, 15.0, 1.0, 1.0),
            axis="target_rate",
            grid=grid,
            metadata=(
                ("preset", "fig6", "text"),
                ("num_gfus", "5", "choice"),
                ("gbu_power_db", "10", "text"),
                ("gfu_power_db", "15", "text"),
                ("target_rate", "swept jointly for both users", "text"),
                ("target_rate_grid", "0.5:6:0.5", "choice"),
                PC_BASELINE_NOTE,
            ),
        )
    ]


def _preset_fig7(trials: int, seed: int) -> list[ExperimentSpec]:
    grid = tuple(float(k) for k in range(1, 9))
    settings = [
        ("a", 20.0, 10.0, "text"),
        # the source lists the first SNR pair twice; this second pair is a
        # documented substitute, not a reproduced value
        ("b", 10.0, 20.0, "choice"),
    ]
    specs = []
    for label, p0_db, ps_db, source in settings:
        specs.append(
            ExperimentSpec(
                label=label,
                kind="sweep",
                trials=trials,
                seed=seed,
                base_config=SystemConfig.from_db(1, p0_db, ps_db, 1.5, 2.0),
                axis="num_gfus",
                grid=grid,
                metadata=(
                    ("preset", "fig7", "text"),
                    ("target_rate_gbu", "1.5", "text"),
                    ("target_rate_gfu", "2", "text"),
                    ("gbu_power_db", str(p0_db), source),
                    ("gfu_power_db", str(ps_db), source),
                    ("num_gfus_grid", "1:8:1", "choice"),
                    PC_BASELINE_NOTE,
                ),
            )
        )
    return specs


def _preset_zone(trials: int, seed: int) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            label="",
            kind="zone",
            trials=trials,
            seed=seed,
            zone_gbu_power_db=8.0,
            zone_gfu_power_db=15.0,
            zone_grid_n=200,
            metadata=(
                ("preset", "zone", "caption"),
                ("p0g0_db", "8", "caption"),
                ("psgk_db", "15", "caption"),
                ("grid", "200", "choice"),
            ),
        )
    ]


_PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "zone": _preset_zone,
}


class UsageError(Exception):
    pass


def _load_config_file(path: str, trials: int | None, seed: int | None) -> list[ExperimentSpec]:
    """Specs of an INI experiment; ``trials`` and ``seed``, when given, beat its
    ``[run]`` section, which beats the built-in defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    try:
        if trials is None:
            trials = parser.getint("run", "trials", fallback=DEFAULT_TRIALS)
        if seed is None:
            seed = parser.getint("run", "seed", fallback=DEFAULT_SEED)
        if parser.has_section("zone"):
            zone = parser["zone"]
            return [
                ExperimentSpec(
                    label="",
                    kind="zone",
                    trials=trials,
                    seed=seed,
                    zone_gbu_power_db=float(zone.get("p0g0_db", 8.0)),
                    zone_gfu_power_db=float(zone.get("psgk_db", 15.0)),
                    zone_grid_n=int(zone.get("grid", 200)),
                    metadata=(("config_file", path, "choice"),),
                )
            ]
        # required keys are read through the parser so a missing one raises
        base = SystemConfig.from_db(
            num_gfus=parser.getint("system", "num_gfus"),
            gbu_power_db=parser.getfloat("system", "gbu_power_db"),
            gfu_power_db=parser.getfloat("system", "gfu_power_db"),
            target_rate_gbu=parser.getfloat("system", "target_rate_gbu"),
            target_rate_gfu=parser.getfloat("system", "target_rate_gfu"),
        )
        sweep_section = parser["sweep"]
        axis = parser.get("sweep", "axis")
        if axis not in SWEEP_AXES:
            raise UsageError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
        grid = tuple(float(v) for v in parser.get("sweep", "grid").split())
        schemes = tuple(
            Scheme(v) for v in sweep_section.get("schemes", "cr-rsma-sgf cr-noma-sgf").split()
        )
        ratio_db = sweep_section.getfloat("gbu_to_gfu_power_ratio_db", fallback=None)
        ratio = db_to_linear(ratio_db) if ratio_db is not None else None
        return [
            ExperimentSpec(
                label="",
                kind="sweep",
                trials=trials,
                seed=seed,
                base_config=base,
                axis=axis,
                grid=grid,
                schemes=schemes,
                gbu_to_gfu_power_ratio=ratio,
                metadata=(("config_file", path, "choice"),),
            )
        ]
    except (KeyError, ValueError, configparser.Error) as err:
        raise UsageError(f"invalid config file {path!r}: {err}") from err


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


def _sweep_row_cells(row: SweepRow, spec: ExperimentSpec) -> list[str]:
    est = row.estimate
    if est is not None:
        fracs = [occ / est.trials for occ in est.case_tallies.occurrences]
        mc = [est.gfu_outage_prob, est.std_err_gfu, est.gbu_outage_prob]
    else:
        fracs = [None, None, None]
        mc = [None, None, None]
    return [
        _fmt(row.axis_value),
        _fmt(row.scheme),
        _fmt(mc[0]),
        _fmt(mc[1]),
        _fmt(mc[2]),
        _fmt(row.analytic_exact),
        _fmt(row.analytic_highsnr),
        _fmt(row.analytic_asymptote),
        _fmt(spec.trials),
        _fmt(spec.seed),
        _fmt(fracs[0]),
        _fmt(fracs[1]),
        _fmt(fracs[2]),
        _fmt(row.unresolved),
        _fmt(row.error),
    ]


def _write_csv(path: str, metadata, header, cells_rows, timestamp: bool) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if timestamp:
            now = datetime.datetime.now(datetime.timezone.utc).isoformat()
            fh.write(f"# generated_at={now}\n")
        for key, value, source in metadata:
            fh.write(f"# {key}={value} source={source}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells_rows)


def _write_json_mirror(path: str, metadata, header, cells_rows) -> None:
    payload = {
        "metadata": [{"key": k, "value": v, "source": s} for k, v, s in metadata],
        "rows": [dict(zip(header, cells)) for cells in cells_rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _output_path(out: str, spec: ExperimentSpec, multi: bool) -> str:
    if not multi or not spec.label:
        return out
    stem, ext = os.path.splitext(out)
    return f"{stem}_{spec.label}{ext or '.csv'}"


def _zone_cells(spec: ExperimentSpec) -> list[list[str]]:
    grid = classify_grid(
        db_to_linear(spec.zone_gbu_power_db),
        db_to_linear(spec.zone_gfu_power_db),
        spec.zone_grid_n,
    )
    # the grid_n**2 pairs take their targets from grid_n values; format each once
    text = {t: _fmt(t) for t in {t for t_gbu, t_gfu, _ in grid for t in (t_gbu, t_gfu)}}
    return [[text[t_gbu], text[t_gfu], label.value] for t_gbu, t_gfu, label in grid]


def _execute_spec(
    spec: ExperimentSpec, rows: list[SweepRow] | None, out: str, fmt: str, timestamp: bool
) -> list[str]:
    """Write one spec's file(s): a zone grid, or the sweep ``rows`` computed for it."""
    run_meta = (
        *spec.metadata,
        ("trials", str(spec.trials), "choice"),
        ("seed", str(spec.seed), "choice"),
    )
    if spec.kind == "zone":
        cells = _zone_cells(spec)
        header = ZONE_COLUMNS
    else:
        cells = [_sweep_row_cells(row, spec) for row in rows]
        header = SWEEP_COLUMNS
    written = [out]
    _write_csv(out, run_meta, header, cells, timestamp)
    if fmt == "json":
        json_path = os.path.splitext(out)[0] + ".json"
        _write_json_mirror(json_path, run_meta, header, cells)
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
        help=(
            "sweep worker threads (default: $SGFSIM_WORKERS, else 1); each also uses one "
            "helper thread that draws ahead; output does not depend on it"
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


# zone flag (its argparse dest and metadata key) -> the spec field it sets
_ZONE_FIELDS = {
    "p0g0_db": "zone_gbu_power_db",
    "psgk_db": "zone_gfu_power_db",
    "grid": "zone_grid_n",
}


def _override_zone(spec: ExperimentSpec, overrides: dict) -> ExperimentSpec:
    """Apply zone flags; each overridden value replaces its metadata line as a choice."""
    lines = {key: (key, value, source) for key, value, source in spec.metadata}
    lines.update((key, (key, _fmt(value), "choice")) for key, value in overrides.items())
    fields = {_ZONE_FIELDS[key]: value for key, value in overrides.items()}
    return replace(spec, metadata=tuple(lines.values()), **fields)


def _cmd_run(args) -> int:
    if bool(args.preset) == bool(args.config):
        raise UsageError("exactly one of a preset name or --config is required")
    if args.preset:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        seed = DEFAULT_SEED if args.seed is None else args.seed
        specs = _PRESETS[args.preset](trials, seed)
        default_out = f"{args.preset}.csv"
    else:
        specs = _load_config_file(args.config, args.trials, args.seed)
        default_out = "results.csv"
    overrides = {key: getattr(args, key) for key in _ZONE_FIELDS if getattr(args, key) is not None}
    if overrides:
        if specs[0].kind != "zone":
            raise UsageError("--p0g0-db, --psgk-db and --grid apply to zone runs only")
        specs = [_override_zone(spec, overrides) for spec in specs]

    # a run is one zone grid or sweeps sharing one (trials, seed); one engine call
    # draws each block once for all of its sweeps
    results = [None] * len(specs)
    if specs[0].kind == "sweep":
        requests = [
            SweepRequest(s.base_config, s.axis, s.grid, s.schemes, s.gbu_to_gfu_power_ratio)
            for s in specs
        ]
        results = sweeps(requests, specs[0].trials, specs[0].seed, args.workers)

    out = args.out or default_out
    multi = len(specs) > 1
    for spec, rows in zip(specs, results):
        path = _output_path(out, spec, multi)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        for written in _execute_spec(spec, rows, path, args.fmt, not args.no_timestamp):
            print(f"wrote {written}")
    return 0


def _cmd_validate(args) -> int:
    from . import acceptance

    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    failures = 0
    for name, func in acceptance.CRITERIA:
        result = func(seed)
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


if __name__ == "__main__":
    raise SystemExit(main())
