"""The three benchmark workloads, one per way sgfsim is used.

Every workload is a closed loop: one caller in one process issues each call
when the previous one returns. A workload is run as repeated *passes* over
inputs drawn once from the benchmark seed; a pass is the unit whose wall time
is reported. Each workload checks every output it times, after the timed
region: the first pass in full, later passes by equality with the first.

* ``mc-sweep`` - ``sgfsim run fig4`` in process at the CLI's default trials:
  the production path, dominated by block sampling and the vectorised
  protocol kernels.
* ``analytic-range`` - seeded random configurations through the three
  analytic columns of a sweep row: all the work is in ``analytic``. Where the
  closed form raises its documented range error, the pass asks the quadrature
  oracle, as the README prescribes for that regime; the raise is counted and
  reported, and only a config no one answers is a failed operation.
* ``scalar-blocks`` - K=5 fading blocks through the one-call-at-a-time
  protocol and baseline, then ``sgfsim run zone``: the scalar path of the
  acceptance battery, zone classification and CSV writing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from reference import outage_reference

# the exceptions sgfsim documents for configurations outside its numerical range
DOCUMENTED_ERRORS = (ValueError, ArithmeticError)
# relative agreement with the reference that counts a closed-form value as accurate
ACCURATE_REL = 1e-9
# Monte Carlo agreement gate, in binomial standard deviations of the reference
MC_SIGMAS = 5.0
ANALYTIC_CONFIGS = 1000
SCALAR_BLOCKS = 20000
SCALAR_NUM_GFUS = 5
# the analytic functions behind a sweep row's three analytic columns
ANALYTIC_COLUMNS = (
    "outage_probability",
    "outage_probability_highsnr",
    "outage_diversity_asymptote",
)


def run_cli(cli, argv: list[str]) -> int:
    """``cli.main`` with its per-file ``wrote`` lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata from ``# key=value source=...`` lines, header, rows) of an sgfsim CSV."""
    meta, lines = {}, []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, rest = line[1:].strip().partition("=")
                meta[key] = rest.rsplit(" source=", 1)[0]
            else:
                lines.append(line)
    parsed = list(csv.reader(lines))
    return meta, parsed[0], parsed[1:]


def draw_analytic_configs(system_config, seed: int, count: int = ANALYTIC_CONFIGS) -> list:
    """Configurations over the range the README claims: K in 1..20, powers 0-50 dB,
    target rates in (0.5, 4].

    Every K occurs equally often: the cost of a configuration grows steeply
    with K, so drawing K at random would make the work differ between seeds.
    """
    rng = np.random.default_rng(seed)
    ks = np.resize(np.arange(1, 21), count)
    p0_db = rng.uniform(0.0, 50.0, count)
    ps_db = rng.uniform(0.0, 50.0, count)
    rates = 4.0 - rng.uniform(0.0, 3.5, (count, 2))
    return [
        system_config.from_db(int(ks[i]), float(p0_db[i]), float(ps_db[i]),
                              float(rates[i, 0]), float(rates[i, 1]))
        for i in range(count)
    ]


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / reference


@dataclass(frozen=True)
class Fallback:
    """An ``outage_probability`` value that came from the quadrature oracle."""

    value: float


def oracle_fallback(analytic, fn: str, config, err: Exception):
    """What the README prescribes when the closed form raises a range error: the
    quadrature oracle covers that regime. A ``Fallback``, or ``err`` when there is
    no oracle answer (other columns, K = 1, an oracle that is gone or fails)."""
    oracle = getattr(analytic, "outage_exact_quadrature_oracle", None)
    if fn != "outage_probability" or oracle is None or config.num_gfus < 2:
        return err
    try:
        return Fallback(oracle(config).total)
    except (*DOCUMENTED_ERRORS, RuntimeError) as oracle_err:
        return oracle_err


class Workload:
    """One workload: untimed ``prepare``, timed ``run_pass``, untimed ``check``."""

    name = ""
    # the workload's own throughput metric, printed by this name
    ops_metric = ""
    # the calibration kernel that tracks this workload's kind of work
    calibration = "mixed"

    def __init__(self, sgf, seed: int, out_dir: str, root: str):
        self.sgf = sgf
        self.seed = seed
        self.out_dir = out_dir
        self.root = root
        self.passes = 0
        self.failures: list[str] = []
        # per pass: operations attempted, of which failed with a documented error
        self.ops_attempted = 0
        self.ops_failed = 0
        # per pass: units of work behind ``ops_metric`` and bytes the CLI wrote
        self.work_units = 0
        self.bytes_written = 0

    def prepare(self) -> None:
        """Draw inputs and compute references; never timed."""

    def run_pass(self) -> tuple[float, float]:
        """Run one pass; return (wall s, s spent on the ``ops_metric`` work)."""
        raise NotImplementedError

    def check(self) -> dict[str, tuple[float, str, str]]:
        """Gate the outputs, appending to ``failures``; return report-only metrics
        as (value, unit, note)."""
        return {}

    def traced_checks(self) -> None:
        """Extra gates that only the traced run makes."""

    def _same_as_first(self, what: str, first, current) -> None:
        if current != first:
            self.failures.append(f"{what} of pass {self.passes} differs from pass 0")


class McSweep(Workload):
    name = "mc-sweep"
    ops_metric = "mc_trials_per_s"
    calibration = "numpy"

    def prepare(self) -> None:
        self.out = os.path.join(self.out_dir, "fig4.csv")
        self.argv = ["run", "fig4", "--seed", str(self.seed), "--no-timestamp", "--out", self.out]
        self.first: dict[str, bytes] | None = None

    def _outputs(self) -> dict[str, bytes]:
        stem = self.out[: -len(".csv")]
        outputs = {}
        for name in ("k1", "k5"):
            with open(f"{stem}_{name}.csv", "rb") as fh:
                outputs[name] = fh.read()
        return outputs

    def run_pass(self) -> tuple[float, float]:
        start = time.perf_counter()
        code = run_cli(self.sgf.cli, self.argv)
        wall = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"sgfsim run fig4 exited {code}")
        outputs = self._outputs()
        if self.first is None:
            self.first = outputs
        self._same_as_first("fig4 CSV", self.first, outputs)
        self.passes += 1
        return wall, wall

    def check(self) -> dict[str, tuple[float, str, str]]:
        cfg_cls = self.sgf.SystemConfig
        rows_total = unresolved = errors = trials = 0
        accurate = distinct = 0
        stem = self.out[: -len(".csv")]
        for part in ("k1", "k5"):
            meta, header, rows = read_csv(f"{stem}_{part}.csv")
            col = {name: i for i, name in enumerate(header)}
            by_point: dict[float, dict[str, tuple]] = {}
            for row in rows:
                if len(row) != len(header):
                    self.failures.append(f"{part}: row of {len(row)} cells, header has {len(header)}")
                    continue
                rows_total += 1
                errors += bool(row[col["error"]])
                if not row[col["scheme"]]:
                    continue  # an invalid grid value: no estimate to check
                try:
                    axis = float(row[col["axis_value"]])
                    mc = float(row[col["mc_gfu_outage"]])
                    gbu = float(row[col["mc_gbu_outage"]])
                    n = int(row[col["trials"]])
                    fracs = [float(row[col[f"case{i}_frac"]]) for i in (1, 2, 3)]
                except ValueError as err:
                    self.failures.append(f"{part}: unparseable row {row}: {err}")
                    continue
                trials += n
                unresolved += row[col["unresolved"]] == "1"
                if abs(math.fsum(fracs) - 1.0) > 1e-12:
                    self.failures.append(f"{part} @ {axis}: case fractions sum to {math.fsum(fracs)!r}")
                by_point.setdefault(axis, {})[row[col["scheme"]]] = (mc, gbu, row)

            for axis, schemes in by_point.items():
                (rs_mc, rs_gbu, rs_row), (no_mc, no_gbu, _) = (
                    schemes["cr-rsma-sgf"], schemes["cr-noma-sgf"]
                )
                if rs_mc > no_mc:
                    self.failures.append(f"{part} @ {axis}: rsma outage {rs_mc} > noma {no_mc}")
                if rs_gbu != no_gbu:
                    self.failures.append(f"{part} @ {axis}: GBU outage differs across schemes")
                config = cfg_cls.from_db(
                    int(meta["num_gfus"]), float(meta["gbu_power_db"]), axis,
                    float(meta["target_rate_gbu"]), float(meta["target_rate_gfu"]),
                )
                ref = outage_reference(config)
                distinct += 1
                exact_cell = rs_row[col["analytic_exact"]]
                if exact_cell and relative_error(float(exact_cell), ref) <= ACCURATE_REL:
                    accurate += 1
                n = int(rs_row[col["trials"]])
                sigma = math.sqrt(ref * (1.0 - ref) / n)
                if rs_row[col["unresolved"]] != "1" and abs(rs_mc - ref) > MC_SIGMAS * sigma:
                    self.failures.append(
                        f"{part} @ {axis}: Monte Carlo {rs_mc} is {abs(rs_mc - ref) / sigma:.1f} "
                        f"sigma from the reference {ref}"
                    )
        if rows_total == 0:
            self.failures.append("fig4 produced no rows")
        self.ops_attempted, self.ops_failed, self.work_units = rows_total, errors, trials
        self.bytes_written = sum(len(data) for data in self.first.values())
        return {
            "unresolved_frac": (unresolved / max(rows_total, 1), "frac", "rows flagged unresolved"),
            "analytic_accurate_frac": (
                accurate / max(distinct, 1), "frac", f"analytic_exact within {ACCURATE_REL:g} of the reference"
            ),
        }

    def traced_checks(self) -> None:
        """The CSVs of a two-worker run in a child process match the in-process ones."""
        out = os.path.join(self.out_dir, "workers2", "fig4.csv")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"), SGFSIM_WORKERS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "sgfsim.cli", *self.argv[:-1], out],
            env=env, cwd=self.root, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            self.failures.append(f"two-worker fig4 exited {proc.returncode}: {proc.stderr[-400:]}")
            return
        stem = out[: -len(".csv")]
        for name, data in self.first.items():
            with open(f"{stem}_{name}.csv", "rb") as fh:
                if fh.read() != data:
                    self.failures.append(f"two-worker fig4_{name}.csv differs from one worker")


class AnalyticRange(Workload):
    name = "analytic-range"
    ops_metric = "analytic_configs_per_s"

    def prepare(self) -> None:
        self.configs = draw_analytic_configs(self.sgf.SystemConfig, self.seed)
        self.references = [outage_reference(config) for config in self.configs]
        self.first: list | None = None

    def run_pass(self) -> tuple[float, float]:
        analytic = self.sgf.analytic
        results = []
        start = time.perf_counter()
        for config in self.configs:
            row = []
            for fn in ANALYTIC_COLUMNS:
                try:
                    row.append(getattr(analytic, fn)(config))
                except DOCUMENTED_ERRORS as err:
                    row.append(oracle_fallback(analytic, fn, config, err))
            results.append(row)
        wall = time.perf_counter() - start
        digest = [[repr(v) for v in row] for row in results]
        if self.first is None:
            self.first, self.results = digest, results
        self._same_as_first("analytic values", self.first, digest)
        self.passes += 1
        return wall, wall

    def check(self) -> dict[str, tuple[float, str, str]]:
        failed = fell_back = accurate = 0
        for config, ref, row in zip(self.configs, self.references, self.results):
            for value in row:
                if isinstance(value, Exception):
                    failed += 1
                    continue
                if isinstance(value, Fallback):
                    fell_back += 1
                    value = value.value
                if not math.isfinite(value):
                    self.failures.append(f"nonfinite analytic value {value!r} for {config}")
            exact = row[0]
            if isinstance(exact, Exception):
                continue
            if isinstance(exact, Fallback):
                exact = exact.value
            elif relative_error(exact, ref) <= ACCURATE_REL:
                accurate += 1
            if math.isfinite(exact) and not 0.0 <= exact <= 1.0:
                self.failures.append(f"outage_probability {exact!r} outside [0, 1] for {config}")
        self.ops_attempted, self.ops_failed = 3 * len(self.configs), failed
        self.work_units = len(self.configs)
        return {
            "closed_form_raised_frac": (
                fell_back / self.ops_attempted, "frac",
                "closed form raised a range error, quadrature oracle answered",
            ),
            "analytic_accurate_frac": (
                accurate / len(self.configs), "frac",
                f"outage_probability within {ACCURATE_REL:g} of the reference; raises are misses",
            ),
        }


class ScalarBlocks(Workload):
    name = "scalar-blocks"
    ops_metric = "scalar_blocks_per_s"

    def prepare(self) -> None:
        # the README quick-start group: all three protocol cases occur
        self.config = self.sgf.SystemConfig.from_db(SCALAR_NUM_GFUS, 30.0, 18.2, 2.5, 1.5)
        self.out = os.path.join(self.out_dir, "zone.csv")
        self.argv = ["run", "zone", "--no-timestamp", "--out", self.out]
        self.first: tuple | None = None

    def run_pass(self) -> tuple[float, float]:
        model, protocol, baselines = self.sgf.model, self.sgf.protocol, self.sgf.baselines
        config, rng = self.config, np.random.default_rng(self.seed)
        records = []
        start = time.perf_counter()
        for _ in range(SCALAR_BLOCKS):
            realization = model.sample_channel_realization(SCALAR_NUM_GFUS, rng)
            outcome = protocol.evaluate_transmission(config, realization)
            rate, _ = baselines.cr_noma_rate(config, realization)
            records.append((realization, outcome, rate))
        blocks_done = time.perf_counter()
        code = run_cli(self.sgf.cli, self.argv)
        wall = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"sgfsim run zone exited {code}")
        with open(self.out, "rb") as fh:
            current = (records, fh.read())
        if self.first is None:
            self.first = current
        self._same_as_first("scalar outcomes and zone CSV", self.first, current)
        self.passes += 1
        return wall, blocks_done - start

    def check(self) -> dict[str, tuple[float, str, str]]:
        mc, protocol = self.sgf.montecarlo, self.sgf.protocol
        records, zone_bytes = self.first
        config = self.config
        g0 = np.array([r.gain_gbu for r, _, _ in records])
        gfu = np.array([r.gains_gfu for r, _, _ in records])
        case_rs, gfu_rs, gbu_rs = mc.evaluate_rsma_trials(config, g0, gfu)
        _, gfu_no, _ = mc.evaluate_noma_trials(config, g0, gfu)
        case_index = {"I": 0, "II": 1, "III": 2}
        mismatches = {"case": 0, "rsma gfu": 0, "gbu": 0, "gbu oma": 0, "noma gfu": 0}
        for i, (realization, outcome, rate) in enumerate(records):
            mismatches["case"] += case_index[outcome.case_label.value] != case_rs[i]
            mismatches["rsma gfu"] += outcome.gfu_outage != bool(gfu_rs[i])
            mismatches["gbu"] += outcome.gbu_outage != bool(gbu_rs[i])
            mismatches["gbu oma"] += outcome.gbu_outage != protocol.gbu_oma_outage(
                config, realization.gain_gbu)
            mismatches["noma gfu"] += (rate < config.target_rate_gfu) != bool(gfu_no[i])
        for what, count in mismatches.items():
            if count:
                self.failures.append(f"{count} scalar blocks disagree with the kernels on {what}")

        meta, header, rows = read_csv(self.out)
        grid = int(meta["grid"])
        labels = {label.value for label in self.sgf.zones.ZoneLabel}
        if len(rows) != grid * grid:
            self.failures.append(f"zone CSV has {len(rows)} rows, expected {grid * grid}")
        label_col = header.index("zone_label")
        bad = sum(len(row) != len(header) or row[label_col] not in labels for row in rows)
        if bad:
            self.failures.append(f"{bad} zone CSV rows have a bad shape or label")
        self.ops_attempted, self.ops_failed = SCALAR_BLOCKS + 1, 0
        self.work_units = SCALAR_BLOCKS
        self.bytes_written = len(zone_bytes)
        return {}


WORKLOADS = {cls.name: cls for cls in (McSweep, AnalyticRange, ScalarBlocks)}
