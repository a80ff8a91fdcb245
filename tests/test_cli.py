import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from sgfsim import acceptance, cli
from sgfsim.cli import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    PRESET_NAMES,
    SWEEP_COLUMNS,
    ZONE_COLUMNS,
    main,
)
from sgfsim.model import SystemConfig, db_to_linear
from sgfsim.zones import classify_grid

SWEEP_CONFIG = """
[system]
num_gfus = 2
gbu_power_db = 20
gfu_power_db = 10
target_rate_gbu = 1.0
target_rate_gfu = 1.0

[sweep]
axis = gfu_power_db
grid = 5 10 15
schemes = cr-rsma-sgf cr-noma-sgf

[run]
trials = 5000
seed = 99
"""

ZONE_CONFIG = """
[zone]
p0g0_db = 8
psgk_db = 15
grid = 10

[run]
seed = 1
"""


MONTE_CARLO_COLUMNS = (
    "mc_gfu_outage",
    "mc_std_err",
    "mc_gbu_outage",
    "case1_frac",
    "case2_frac",
    "case3_frac",
    "unresolved",
)
# Monte Carlo cells of `sgfsim run fig7 --trials 140000 --seed 3`, both files
FIG7_MONTE_CARLO_SHA256 = "38712cc583b2faa35e0b2a8f6b0b47a8ce64678bed73e2355175bbad41daaf7c"
# every file of `sgfsim run <preset> --trials 3000 --seed 3 --no-timestamp`, whole
PRESET_FILE_SHA256 = {
    "fig3_k1.csv": "bd0151eaedc5633002d9bddbefaaf85786c0c089027f335f949f0c6d481a6efc",
    "fig3_k5.csv": "b9f9e7e024427d639585d0b2879f82ae89af691b1af17f1d50d53ca2e6f86069",
    "fig4_k1.csv": "8d2f7aa759403eafbcd491d37e24d9c68b9db5086c611dc815a76808465c4a4a",
    "fig4_k5.csv": "5069822e09da2a11937bb8e8287a5e213ed7053676ab4ea2d44f01bfbf68883c",
    "fig5_k1.csv": "61e66247cc20ad6ee637487b1070d13ec185561826c8258f99ee9d9c42f2540a",
    "fig5_k2.csv": "0ef7be135df49cc6782b4e475c6c83083913e24567411676023b21868f49749a",
    "fig5_k4.csv": "188fb657a7f3fd37c5b39e5003c04e00cde37105177c97189d0a152f30176d77",
    "fig6.csv": "ba86d760782f2de4ebcb4868e44812ec8894553d2de1db1186ba7fb5fb0ae660",
    "fig7_a.csv": "a45cef06b44082f2cc50a45f4ba2c18a179df83817f66731c20bb3aecd072d46",
    "fig7_b.csv": "77296ec595acfa45c202f8b06c633c24ae4fc2f9302f3b7ca229327f8238e639",
    "zone.csv": "f836951e9292c41a31d3e210ecba639b2414b916f8b6108c1ede39a8e4b3a4b0",
}
# the fig3-fig7 files of that run with every Monte Carlo cell emptied: a change to the
# draws moves the two pins above and leaves this one
PRESET_NON_MONTE_CARLO_SHA256 = {
    "fig3_k1.csv": "16136b5b09759a77a9fc91d56259f166a1869d0c2981035f075f96a7ef8a3c23",
    "fig3_k5.csv": "d176335eae132b381fdd647f4eb742be7715368402713f29002d18076343ed1e",
    "fig4_k1.csv": "da06e770749c737610c1418eaa32b62595ba11b36631f32d12f821257e6c12c2",
    "fig4_k5.csv": "b7f73dde6f72f576c57cdffa52c01d007d5ab082919821d371df37d93751f058",
    "fig5_k1.csv": "f028a4589853ec14b5d9c47715f7456ecf3dff9a95488a43b1c4a7854725d78d",
    "fig5_k2.csv": "755b2a234324980405f1c6d7803073c3fee86732c6ee47385686e3a0e122c207",
    "fig5_k4.csv": "7e3e7ce23e03d5795199c1516e6f35b8134ef18db442a319c980ba7bfa77c377",
    "fig6.csv": "907274a6a241b9c35fcb62549c4af02ab73db41369be56b30c4ba640a8854d4a",
    "fig7_a.csv": "824493f6504c778f07163053661af7728b720b05cb420f432d7f2325f6f9f08b",
    "fig7_b.csv": "0fd8cced91c308d4c11c0e146b4c0fbd0e51bd111790527d07e3cc7329dc26d1",
}
# `sgfsim run zone --grid 40 --format json --no-timestamp`: the CSV and its JSON mirror
ZONE_JSON_MIRROR_SHA256 = {
    "zone.csv": "b60949dd0861d52135d63840580ff8e4ff4b5cf771c9a8730eae24119a018eac",
    "zone.json": "a4b3099ab4fa5bf14f308fb1226c48518ff9fbb5034f8ffbf2de32acf7f0192e",
}


def read_csv(path):
    comments = []
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


def blank_monte_carlo_cells(path):
    """The text of a sweep CSV with every Monte Carlo cell emptied and the rest kept."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    out = io.StringIO()
    out.writelines(line for line in lines if line.startswith("#"))
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    blank = {header.index(c) for c in MONTE_CARLO_COLUMNS}
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([["" if i in blank else cell for i, cell in enumerate(row)] for row in rows])
    return out.getvalue()


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_block(language):
    """The first fenced ``language`` block of README.md."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read().split(f"```{language}\n", 1)[1].split("```", 1)[0]


class TestRunWithConfigFile:
    def test_readme_config_example(self, tmp_path):
        cfg = write_config(tmp_path, readme_block("ini"))
        out = str(tmp_path / "results.csv")
        assert main(["run", "--config", cfg, "--trials", "2000", "--no-timestamp", "--out", out]) == 0
        for label, source in (("k1", "choice"), ("k5", "text")):
            comments, header, rows = read_csv(tmp_path / f"results_{label}.csv")
            assert f"# num_gfus={label[1:]} source={source}\n" in comments
            assert "# gfu_power=gbu_power/15 source=caption\n" in comments
            assert header == SWEEP_COLUMNS and len(rows) == 10  # 5 grid values x 2 schemes

    def test_sweep_csv_contents(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = str(tmp_path / "sweep.csv")
        assert main(["run", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        comments, header, rows = read_csv(out)
        assert header == SWEEP_COLUMNS
        assert len(rows) == 6  # 3 grid values x 2 schemes
        schemes = {row[header.index("scheme")] for row in rows}
        assert schemes == {"cr-rsma-sgf", "cr-noma-sgf"}
        for row in rows:
            assert row[header.index("trials")] == "5000"
            assert row[header.index("seed")] == "99"
            fracs = [float(row[header.index(f"case{i}_frac")]) for i in (1, 2, 3)]
            assert sum(fracs) == pytest.approx(1.0)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", "--config", cfg, "--out", out1, "--no-timestamp"]) == 0
        assert main(["run", "--config", cfg, "--out", out2, "--no-timestamp"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_workers_flag_keeps_bytes(self, tmp_path):
        # three blocks, so more than one worker has work
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("trials = 5000", "trials = 150000"))
        outs = []
        for workers in ("1", "3"):
            outs.append(str(tmp_path / f"w{workers}.csv"))
            argv = ["run", "--config", cfg, "--out", outs[-1], "--no-timestamp", "--workers", workers]
            assert main(argv) == 0
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()

    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # the worker count has one home, --workers; no variable overrides or breaks a run
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        outs = [str(tmp_path / "plain.csv"), str(tmp_path / "env.csv")]
        assert main(["run", "--config", cfg, "--out", outs[0], "--no-timestamp"]) == 0
        monkeypatch.setenv("SGFSIM_WORKERS", "abc")
        assert main(["run", "--config", cfg, "--out", outs[1], "--no-timestamp"]) == 0
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()

    @pytest.mark.parametrize(
        "run_section, flags, expected",
        [
            ("[run]\ntrials = 5000\nseed = 7\n", ["--trials", "100", "--seed", "3"], ("100", "3")),
            ("[run]\ntrials = 5000\nseed = 7\n", ["--seed", "3"], ("5000", "3")),
            ("[run]\ntrials = 5000\nseed = 7\n", [], ("5000", "7")),
            ("", [], (str(DEFAULT_TRIALS), str(DEFAULT_SEED))),
        ],
        ids=["flags", "flag-and-config", "config", "defaults"],
    )
    def test_trials_and_seed_precedence(self, tmp_path, run_section, flags, expected):
        # a flag beats the config file's [run] value, which beats the built-in default
        system, _ = SWEEP_CONFIG.split("[run]")
        text = system.replace("grid = 5 10 15", "grid = 10").replace(
            "schemes = cr-rsma-sgf cr-noma-sgf", "schemes = cr-rsma-sgf"
        )
        cfg = write_config(tmp_path, text + run_section)
        out = str(tmp_path / "sweep.csv")
        assert main(["run", "--config", cfg, "--out", out, "--no-timestamp", *flags]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        assert (rows[0][header.index("trials")], rows[0][header.index("seed")]) == expected

    def test_timestamp_header_by_default(self, tmp_path):
        cfg = write_config(tmp_path, ZONE_CONFIG)
        out = str(tmp_path / "zone.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        comments, _, _ = read_csv(out)
        assert comments[0].startswith("# generated_at=")

    def test_json_mirror(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = str(tmp_path / "sweep.csv")
        assert main(["run", "--config", cfg, "--out", out, "--format", "json", "--no-timestamp"]) == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["rows"]) == 6
        assert set(payload["rows"][0]) == set(SWEEP_COLUMNS)

    def test_sub_configurations_match_separate_runs(self, tmp_path):
        # two [sweep.<label>] sections share one engine pass; each file holds the
        # rows of the same sweep run on its own
        system, run = SWEEP_CONFIG.split("[run]")
        text = system.replace("num_gfus = 2\n", "") + (
            "[sweep.k1]\nnum_gfus = 1\n[sweep.k3]\nnum_gfus = 3\n"
            "[metadata]\nnum_gfus = choice\n[run]" + run
        )
        cfg, out = write_config(tmp_path, text), str(tmp_path / "both.csv")
        assert main(["run", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        for k in (1, 3):
            text = SWEEP_CONFIG.replace("num_gfus = 2", f"num_gfus = {k}")
            alone = write_config(tmp_path, text, f"k{k}.ini")
            single = str(tmp_path / f"alone{k}.csv")
            assert main(["run", "--config", alone, "--out", single, "--no-timestamp"]) == 0
            comments, header, rows = read_csv(str(tmp_path / f"both_k{k}.csv"))
            assert f"# num_gfus={k} source=choice\n" in comments
            assert (header, rows) == read_csv(single)[1:]
        assert sorted(n for n in os.listdir(tmp_path) if n.startswith("both")) == [
            "both_k1.csv",
            "both_k3.csv",
        ]

    @pytest.mark.parametrize(
        "axis, grid, omitted, extra",
        [
            ("gfu_power_db", "5 10 15", ["gfu_power_db"], ""),
            ("gbu_power_db", "20 30", ["gbu_power_db"], ""),
            (
                "gbu_power_db",
                "20 30",
                ["gbu_power_db", "gfu_power_db"],
                "gbu_to_gfu_power_ratio = 15\n",
            ),
            ("target_rate", "0.5 1.5", ["target_rate_gbu", "target_rate_gfu"], ""),
            ("num_gfus", "1 3", ["num_gfus"], ""),
        ],
        ids=["gfu-power", "gbu-power", "locked-ratio", "target-rate", "num-gfus"],
    )
    def test_keys_the_grid_sets_are_optional(self, tmp_path, axis, grid, omitted, extra):
        # the grid replaces the base value of the swept key (and of the GFU power
        # under a locked ratio) at every point, so leaving it out changes no byte
        full = (
            SWEEP_CONFIG.replace("axis = gfu_power_db", f"axis = {axis}\n{extra}")
            .replace("grid = 5 10 15", f"grid = {grid}")
            .replace("trials = 5000", "trials = 2000")
        )
        lines = full.splitlines(keepends=True)
        short = "".join(line for line in lines if line.split(" =")[0] not in omitted)
        assert len(short.splitlines()) == len(lines) - len(omitted)
        files = []
        for name, text in (("full", full), ("short", short)):
            cfg = write_config(tmp_path, text, f"{name}.ini")
            files.append(tmp_path / f"{name}.csv")
            argv = ["run", "--config", cfg, "--out", str(files[-1]), "--no-timestamp"]
            assert main(argv) == 0
        head, _, body = files[0].read_text().partition("\n")
        assert head == f"# config_file={tmp_path / 'full.ini'} source=choice"
        assert files[1].read_text() == f"# config_file={tmp_path / 'short.ini'} source=choice\n" + body

    def test_overflowing_power_laws_are_row_notes(self, tmp_path):
        # at -100 dB, (eps_s / Ps) ** 40 overflows a double: both power-law cells are
        # empty and named in the note, and the run still writes every row
        text = (
            "[system]\nnum_gfus = 40\ngbu_power_db = 10\n"
            "target_rate_gbu = 1\ntarget_rate_gfu = 8\n\n"
            "[sweep]\naxis = gfu_power_db\ngrid = 10 -100\n\n"
            "[run]\ntrials = 1000\n"
        )
        out = str(tmp_path / "overflow.csv")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 4
        cells = {(row[0], row[1]): dict(zip(header, row)) for row in rows}
        low = cells["-100.0", "cr-rsma-sgf"]
        assert low["analytic_highsnr"] == low["analytic_asymptote"] == ""
        assert "highsnr: the high-SNR approximation overflowed" in low["error"]
        assert "asymptote: the power law (eps_s / power_gfu) ** K overflowed" in low["error"]
        assert cells["10.0", "cr-rsma-sgf"]["analytic_asymptote"] != ""

    def test_zone_config(self, tmp_path):
        cfg = write_config(tmp_path, ZONE_CONFIG)
        out = str(tmp_path / "zone.csv")
        assert main(["run", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
        _, header, rows = read_csv(out)
        assert header == ZONE_COLUMNS
        assert len(rows) == 100
        assert {row[2] for row in rows} <= {
            "noma-gbu-decoded-first",
            "noma-gfu-decoded-first",
            "noma-either-order",
            "rsma-only",
            "outage",
        }


def json_mirror_payload(metadata, header, columns):
    return {
        "metadata": [{"key": k, "value": v, "source": s} for k, v, s in metadata],
        "rows": [dict(zip(header, cells)) for cells in zip(*columns)],
    }


class TestJsonMirrorWriter:
    """The mirror writer emits what ``json.dumps(payload, indent=1, sort_keys=True)``
    and a newline would."""

    @pytest.mark.parametrize(
        "metadata,header,columns",
        [
            pytest.param([("preset", "zone", "caption")], ZONE_COLUMNS, [[], [], []], id="no-rows"),
            pytest.param([], SWEEP_COLUMNS, [], id="no-metadata-no-columns"),
            pytest.param(
                [("note", 'say "hi", then \\ go', "choice"), ("lieu", "Zürich 東京", "text")],
                ["zeta", "alpha", 'quo"te', "b,c %s"],
                [['"', "a\\b"], ["x,y", "%s"], ["ünï", "\u2603\n\t"], ["1.5", "1.5"]],
                id="escapes",
            ),
        ],
    )
    def test_matches_the_encoder(self, tmp_path, metadata, header, columns):
        path = tmp_path / "m.json"
        cli._write_json_mirror(str(path), metadata, header, columns)
        want = json.dumps(json_mirror_payload(metadata, header, columns), indent=1, sort_keys=True)
        assert path.read_text(encoding="utf-8") == want + "\n"

    def test_sweep_mirror_with_error_notes(self, tmp_path, monkeypatch):
        # K = 2.5 is an error row; at P0 = -10 dB, rate 6 the two Gauss rules disagree
        text = (
            SWEEP_CONFIG.replace("gbu_power_db = 20", "gbu_power_db = -10")
            .replace("target_rate_gbu = 1.0", "target_rate_gbu = 6")
            .replace("axis = gfu_power_db", "axis = num_gfus")
            .replace("grid = 5 10 15", "grid = 5 2.5")
        )
        calls, writer = [], cli._write_json_mirror

        def record(*args):
            calls.append(args)
            writer(*args)

        monkeypatch.setattr(cli, "_write_json_mirror", record)
        out = str(tmp_path / "sweep.csv")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", out, "--format", "json", "--no-timestamp"]) == 0
        (path, metadata, header, columns), = calls
        errors = columns[header.index("error")]
        assert "num_gfus must be an integer, got 2.5" in errors
        assert any("48- and 64-node rules disagree" in e for e in errors)
        want = json.dumps(json_mirror_payload(metadata, header, columns), indent=1, sort_keys=True)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == want + "\n"


def zone_body_per_cell(p0g0_db, psgk_db, grid_n):
    """The zone CSV body formatted cell by cell from ``classify_grid``."""
    cells = classify_grid(db_to_linear(p0g0_db), db_to_linear(psgk_db), grid_n)
    return "".join(f"{a!r},{b!r},{label.value}\n" for a, b, label in cells)


@pytest.mark.parametrize(
    "zone",
    [(8.0, 15.0, 200), (8.0, 15.0, 1), (8.0, 15.0, 7), (30.0, -3.0, 50), (-20.0, 40.0, 13)],
    ids=["preset", "grid-1", "grid-7", "gbu-stronger", "gfu-dominant"],
)
def test_zone_body_matches_per_cell_lines(zone):
    assert cli._zone_body(*zone) == zone_body_per_cell(*zone)


class TestRunWithPresets:
    def test_zone_preset_flags(self, tmp_path):
        out = str(tmp_path / "zone.csv")
        assert main(["run", "zone", "--grid", "20", "--out", out, "--no-timestamp"]) == 0
        comments, header, rows = read_csv(out)
        assert len(rows) == 400
        assert any("p0g0_db=8" in c for c in comments)

    def test_zone_overrides_rewrite_metadata(self, tmp_path):
        out = str(tmp_path / "zone.csv")
        argv = ["run", "zone", "--grid", "20", "--p0g0-db", "3", "--out", out, "--no-timestamp"]
        assert main(argv) == 0
        comments, _, rows = read_csv(out)
        assert len(rows) == 400
        assert comments[:4] == [
            "# preset=zone source=caption\n",
            "# p0g0_db=3.0 source=choice\n",
            "# psgk_db=15 source=caption\n",
            "# grid=20 source=choice\n",
        ]

    def test_zone_config_override_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, ZONE_CONFIG)
        out = str(tmp_path / "zone.csv")
        assert main(["run", "--config", cfg, "--psgk-db", "12", "--out", out, "--no-timestamp"]) == 0
        comments, _, _ = read_csv(out)
        assert "# psgk_db=12.0 source=choice\n" in comments

    def test_fig7_writes_one_file_per_setting(self, tmp_path):
        out = str(tmp_path / "fig7.csv")
        assert main(
            ["run", "fig7", "--trials", "500", "--seed", "4", "--out", out, "--no-timestamp"]
        ) == 0
        names = sorted(os.listdir(tmp_path))
        assert names == ["fig7_a.csv", "fig7_b.csv"]
        _, header, rows = read_csv(str(tmp_path / "fig7_a.csv"))
        assert header == SWEEP_COLUMNS
        assert len(rows) == 16  # K = 1..8, two schemes

    def test_fig7_reads_one_gbu_column_for_every_user_count(self, tmp_path):
        # each file fixes (P0, eps0, eps_s), and every K of the run reads the same
        # sorted GBU column, so the cells that depend on the GBU gain alone are
        # equal down the file
        out = str(tmp_path / "fig7.csv")
        argv = ["run", "fig7", "--trials", "3000", "--seed", "4", "--out", out, "--no-timestamp"]
        assert main(argv) == 0
        for name in ("fig7_a.csv", "fig7_b.csv"):
            _, header, rows = read_csv(str(tmp_path / name))
            assert len(rows) == 16
            for column in ("mc_gbu_outage", "case3_frac"):
                assert len({row[header.index(column)] for row in rows}) == 1, (name, column)

    def test_monte_carlo_columns_are_pinned(self, tmp_path):
        # K = 1..8, both schemes, three blocks: any change to the draws, the case
        # partition or an outage rule moves this hash and must be made on purpose
        out = str(tmp_path / "fig7.csv")
        argv = ["run", "fig7", "--trials", "140000", "--seed", "3", "--out", out, "--no-timestamp"]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for name in ("fig7_a.csv", "fig7_b.csv"):
            _, header, rows = read_csv(str(tmp_path / name))
            cols = [header.index(c) for c in MONTE_CARLO_COLUMNS]
            for row in rows:
                digest.update((",".join(row[i] for i in cols) + "\n").encode())
        assert digest.hexdigest() == FIG7_MONTE_CARLO_SHA256

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_files_are_pinned(self, tmp_path, preset):
        # metadata lines included: a moved parameter, source or rounding shows here
        out = str(tmp_path / f"{preset}.csv")
        argv = ["run", preset, "--trials", "3000", "--seed", "3", "--out", out, "--no-timestamp"]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in os.listdir(tmp_path)
        }
        assert digests == {
            name: digest
            for name, digest in PRESET_FILE_SHA256.items()
            if name.partition("_")[0].removesuffix(".csv") == preset
        }

    @pytest.mark.parametrize("preset", [p for p in PRESET_NAMES if p != "zone"])
    def test_preset_files_outside_monte_carlo_cells_are_pinned(self, tmp_path, preset):
        # metadata, header, grid and analytic cells: the bytes no draw may move
        out = str(tmp_path / f"{preset}.csv")
        argv = ["run", preset, "--trials", "3000", "--seed", "3", "--out", out, "--no-timestamp"]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256(blank_monte_carlo_cells(tmp_path / name).encode()).hexdigest()
            for name in os.listdir(tmp_path)
        }
        assert digests == {
            name: digest
            for name, digest in PRESET_NON_MONTE_CARLO_SHA256.items()
            if name.partition("_")[0].removesuffix(".csv") == preset
        }

    def test_zone_json_mirror_is_pinned(self, tmp_path):
        out = str(tmp_path / "zone.csv")
        argv = ["run", "zone", "--grid", "40", "--format", "json", "--no-timestamp", "--out", out]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in os.listdir(tmp_path)
        }
        assert digests == ZONE_JSON_MIRROR_SHA256

    def test_choice_parameters_are_marked(self, tmp_path):
        out = str(tmp_path / "fig7.csv")
        main(["run", "fig7", "--trials", "500", "--seed", "4", "--out", out, "--no-timestamp"])
        comments, _, _ = read_csv(str(tmp_path / "fig7_b.csv"))
        assert any("gbu_power_db=10" in c and "source=choice" in c for c in comments)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_text_as_config_file(self, tmp_path, preset):
        # a preset is a config file: run from a copy, only the config_file line differs
        cfg = write_config(tmp_path, cli._PRESETS[preset])
        runs = {}
        for name, source in (("preset", [preset]), ("config", ["--config", cfg])):
            (tmp_path / name).mkdir()
            out = str(tmp_path / name / f"{preset}.csv")
            argv = ["run", *source, "--trials", "2000", "--seed", "5", "--out", out]
            assert main([*argv, "--no-timestamp"]) == 0
            runs[name] = {f: (tmp_path / name / f).read_text() for f in os.listdir(tmp_path / name)}
        assert sorted(runs["config"]) == sorted(runs["preset"])
        for name, text in runs["preset"].items():
            assert runs["config"][name] == f"# config_file={cfg} source=choice\n" + text

    def test_preset_names_stable(self):
        assert PRESET_NAMES == ("fig3", "fig4", "fig5", "fig6", "fig7", "zone")


class TestUsageErrors:
    def test_preset_and_config_both_given(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["run", "zone", "--config", cfg]) == 2

    def test_neither_preset_nor_config(self):
        assert main(["run"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_unknown_section_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG + "[swep]\naxis = num_gfus\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown section [swep]" in capsys.readouterr().err

    def test_unknown_key_in_config(self, tmp_path, capsys):
        # a misspelt ratio key would otherwise run the sweep unlocked
        bad = SWEEP_CONFIG.replace("schemes =", "gbu_to_gfu_power_ratio_bd = 11.76\nschemes =")
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "gbu_to_gfu_power_ratio_bd" in capsys.readouterr().err

    def test_zone_and_sweep_sections_in_one_config(self, tmp_path, capsys):
        system, _ = SWEEP_CONFIG.split("[sweep]")
        cfg = write_config(tmp_path, ZONE_CONFIG + system)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert "[zone]" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("gbu_power_db = 20", "gbu_power_db = 4000", "overflows"),
            ("gfu_power_db = 10", "gfu_power_db = 4000", "overflows"),
            ("target_rate_gbu = 1.0", "target_rate_gbu = 1100", "lies outside the input box"),
            ("target_rate_gfu = 1.0", "target_rate_gfu = 1100", "lies outside the input box"),
        ],
    )
    def test_overflowing_value_in_config(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace(old, new))
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert new.split(" = ")[0] in err and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["target_rate_gbu", "target_rate_gfu"])
    @pytest.mark.parametrize("rate", ["1e-17", "5e-324"])
    def test_rate_whose_threshold_rounds_to_zero_in_config(self, tmp_path, capsys, key, rate):
        # 2**rate - 1 is 0.0 there, a threshold the kernel would divide by
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace(f"{key} = 1.0", f"{key} = {rate}"))
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert f"{key} = {float(rate)!r} lies outside the input box" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_rate_whose_threshold_rounds_to_zero_is_a_row_error(self, tmp_path):
        text = SWEEP_CONFIG.replace("axis = gfu_power_db", "axis = target_rate")
        text = text.replace("grid = 5 10 15", "grid = 1e-17 1 5e-324").replace("5000", "200")
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
        _, header, rows = read_csv(out)
        columns = [header.index(c) for c in ("axis_value", "scheme", "error")]
        rounds = "target_rate_gbu = {} lies outside the input box [2**-20, 64]"
        assert [tuple(row[c] for c in columns) for row in rows] == [
            ("1e-17", "", rounds.format("1e-17")),
            ("1.0", "cr-rsma-sgf", ""),
            ("1.0", "cr-noma-sgf", ""),
            ("5e-324", "", rounds.format("5e-324")),
        ]

    @pytest.mark.parametrize("swept_key", ["gfu_power_db = 10\n", ""], ids=["set", "left-out"])
    @pytest.mark.parametrize("grid", ["5 4000", "4000 5"])
    def test_overflowing_grid_point_is_a_row_error(self, tmp_path, grid, swept_key):
        # grid points are checked per row, so only that row carries the error,
        # wherever it stands in the grid and whether [system] sets the swept key
        text = SWEEP_CONFIG.replace("grid = 5 10 15", f"grid = {grid}").replace("5000", "200")
        text = text.replace("gfu_power_db = 10\n", swept_key)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
        _, header, rows = read_csv(out)
        overflow = "4000.0 dB overflows double precision in linear scale"
        expected = {
            "5": [("5.0", "cr-rsma-sgf", ""), ("5.0", "cr-noma-sgf", "")],
            "4000": [("4000.0", "", overflow)],
        }
        columns = [header.index(c) for c in ("axis_value", "scheme", "error")]
        cells = [tuple(row[c] for c in columns) for row in rows]
        assert cells == [cell for value in grid.split() for cell in expected[value]]

    @pytest.mark.parametrize(
        "field, edges, key, key_edges, axis",
        [
            ("num_gfus", (1, 256), "num_gfus", (1, 256), "num_gfus"),
            ("power_gbu", (1e-15, 1e15), "gbu_power_db", (-150.0, 150.0), "gbu_power_db"),
            ("power_gfu", (1e-15, 1e15), "gfu_power_db", (-150.0, 150.0), "gfu_power_db"),
            # the target_rate axis sets both rates, and the GBU's is checked first
            ("target_rate_gbu", (2.0**-20, 64.0), "target_rate_gbu", (2.0**-20, 64.0), "target_rate"),
            ("target_rate_gfu", (2.0**-20, 64.0), "target_rate_gfu", (2.0**-20, 64.0), None),
        ],
    )
    def test_one_step_outside_the_input_box(
        self, tmp_path, capsys, field, edges, key, key_edges, axis
    ):
        # one step past each edge, as a field, as a config-file key (powers in dB)
        # and as a grid point: the field is rejected, the file exits 2 and the
        # point is an error row naming it
        def outside(edge, direction):
            if isinstance(edge, int):
                return edge + direction
            return math.nextafter(edge, direction * math.inf)

        base = SystemConfig(2, 100.0, 10.0, 1.0, 1.0)
        for direction, edge, key_edge in zip((-1, 1), edges, key_edges):
            assert replace(base, **{field: edge})
            value = outside(edge, direction)
            with pytest.raises(ValueError, match=rf"^{field} = {value!r} lies outside the input box"):
                replace(base, **{field: value})

            line = f"{key} = {outside(key_edge, direction)!r}"
            text = re.sub(rf"^{key} = .*$", line, SWEEP_CONFIG, flags=re.M)
            out = str(tmp_path / f"file{direction}.csv")
            assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 2
            err = capsys.readouterr().err
            assert f": {field} = " in err and "lies outside the input box" in err
            assert not os.path.exists(out)

            if axis is None:
                continue
            grid = f"{key_edge!r} {outside(key_edge, direction)!r}"
            text = SWEEP_CONFIG.replace("axis = gfu_power_db", f"axis = {axis}")
            text = text.replace("grid = 5 10 15", f"grid = {grid}").replace("5000", "200")
            out = str(tmp_path / f"grid{direction}.csv")
            assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
            _, header, rows = read_csv(out)
            schemes = [row[header.index("scheme")] for row in rows]
            assert schemes == ["cr-rsma-sgf", "cr-noma-sgf", ""]
            error = rows[2][header.index("error")]
            assert error.startswith(f"{field} = ") and "lies outside the input box" in error

    def test_locked_power_overflow_is_a_row_error(self, tmp_path):
        # the GFU power the lock sets overflows at every point; the file never set it
        text = SWEEP_CONFIG.replace("axis = gfu_power_db", "axis = gbu_power_db")
        text = text.replace("gfu_power_db = 10\n", "").replace("5000", "200")
        text = text.replace("schemes =", "gbu_to_gfu_power_ratio = 1e-320\nschemes =")
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert [row[header.index("axis_value")] for row in rows] == ["5.0", "10.0", "15.0"]
        assert {row[header.index("error")] for row in rows} == {
            "power_gfu = inf lies outside the input box [1e-15, 1e15] (+-150 dB)"
        }

    @pytest.mark.parametrize(
        "line",
        [
            "gbu_to_gfu_power_ratio = 0",
            "gbu_to_gfu_power_ratio = -2",
            "gbu_to_gfu_power_ratio = nan",
            "gbu_to_gfu_power_ratio = inf",
        ],
    )
    @pytest.mark.parametrize("axis", ["gbu_power_db", "gfu_power_db"])
    def test_bad_power_ratio_in_config(self, tmp_path, capsys, line, axis):
        text = SWEEP_CONFIG.replace("schemes =", line + "\nschemes =")
        cfg = write_config(tmp_path, text.replace("axis = gfu_power_db", f"axis = {axis}"))
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert "gbu_to_gfu_power_ratio must be finite and > 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_power_ratio_in_db_is_an_unknown_key(self, tmp_path, capsys):
        # the ratio lock has one key, the linear gbu_to_gfu_power_ratio
        text = SWEEP_CONFIG.replace("schemes =", "gbu_to_gfu_power_ratio_db = 11.76\nschemes =")
        cfg = write_config(tmp_path, text.replace("axis = gfu_power_db", "axis = gbu_power_db"))
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "unknown key(s) ['gbu_to_gfu_power_ratio_db']" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "text",
        ["axis = num_gfus\n" + SWEEP_CONFIG, SWEEP_CONFIG + "[run]\nseed = 3\n"],
        ids=["no-section-header", "duplicate-section"],
    )
    def test_unparsable_config(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("num_gfus = cited", "source must be one of"),
            ("note =", "metadata 'note': source must be one of ('caption', 'text', 'choice')"),
            ("speed = choice", "'speed'"),
            # the run writes these lines itself; a second one would contradict it
            ("trials = choice 5", "metadata 'trials' is recorded by the run itself"),
            ("seed = text", "metadata 'seed' is recorded by the run itself"),
            ("config_file = choice other.ini", "metadata 'config_file' is recorded by the run"),
        ],
        ids=["unknown-source", "no-source", "no-value", "trials", "seed", "config-file"],
    )
    def test_bad_metadata_line(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, SWEEP_CONFIG + f"[metadata]\n{line}\n")
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "key",
        [
            "num_gfus",
            "gbu_power_db",
            "gfu_power_db",
            "target_rate_gbu",
            "target_rate_gfu",
            "axis",
            "grid",
        ],
    )
    def test_missing_required_key_in_config(self, tmp_path, capsys, key):
        # a key is required unless the grid sets it; SWEEP_CONFIG sweeps the GFU power
        text = SWEEP_CONFIG
        if key == "gfu_power_db":
            text = text.replace("axis = gfu_power_db", "axis = gbu_power_db")
        lines = text.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(f"{key} =")]
        assert len(kept) == len(lines) - 1
        cfg = write_config(tmp_path, "".join(kept))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid config file" in capsys.readouterr().err

    def test_metadata_line_naming_an_omitted_key(self, tmp_path, capsys):
        # the grid sets the GFU power, but a metadata line cannot read it from [system]
        text = SWEEP_CONFIG.replace("gfu_power_db = 10\n", "") + "[metadata]\ngfu_power_db = text\n"
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert "metadata 'gfu_power_db' has no value and names no key given" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "metadata, name",
        [("note = choice first line\n  second line\n", "exp.ini"), ("", "exp\nsecond.ini")],
        ids=["value", "config-file-path"],
    )
    def test_multi_line_metadata_entry(self, tmp_path, capsys, metadata, name):
        # its second line would land between the comment lines and the header, uncommented
        cfg = write_config(tmp_path, SWEEP_CONFIG + f"[metadata]\n{metadata}", name)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out, "--no-timestamp"]) == 2
        assert "spans more than one line" in capsys.readouterr().err
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("preset, out", [("zone", "out.json"), ("fig4", "r.JSON")])
    def test_json_out_path_with_json_format(self, tmp_path, capsys, preset, out):
        # the mirror replaces the extension with .json, so it would overwrite the CSV
        argv = ["run", preset, "--trials", "2000", "--out", str(tmp_path / out), "--format", "json"]
        assert main(argv) == 2
        assert "--out must not end in .json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_sweep_labels_differing_only_in_case(self, tmp_path, capsys):
        # c_k1.csv and c_K1.csv are one file where the file system ignores case
        text = SWEEP_CONFIG + "[sweep.k1]\nnum_gfus = 1\n[sweep.K1]\nnum_gfus = 2\n"
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
        assert "sweep labels ['k1', 'K1'] must differ in more than case" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["exp.ini"]

    def test_empty_schemes_in_config(self, tmp_path, capsys):
        bad = SWEEP_CONFIG.replace("schemes = cr-rsma-sgf cr-noma-sgf", "schemes =")
        cfg = write_config(tmp_path, bad)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert "schemes must be nonempty" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"axis = gfu_power_db": "axis = bandwidth"}, "unknown sweep axis 'bandwidth'"),
            ({"grid = 5 10 15": "grid ="}, "sweep grid must be nonempty"),
            # the swept key left out of [system] too: the grid would set it
            ({"grid = 5 10 15": "grid =", "gfu_power_db = 10\n": ""}, "sweep grid must be nonempty"),
            ({"schemes = cr-rsma-sgf cr-noma-sgf": "schemes ="}, "sweep schemes must be nonempty"),
            ({"schemes =": "gbu_to_gfu_power_ratio = nan\nschemes ="}, "finite and > 0, got nan"),
            # a ratio off the GBU power axis would be ignored, and a repeated scheme duplicated
            (
                {"schemes =": "gbu_to_gfu_power_ratio = 15\nschemes ="},
                "gbu_to_gfu_power_ratio applies to gbu_power_db sweeps, not gfu_power_db",
            ),
            (
                {"schemes = cr-rsma-sgf cr-noma-sgf": "schemes = cr-rsma-sgf cr-rsma-sgf"},
                "sweep schemes must be distinct",
            ),
        ],
        ids=[
            "axis", "grid", "grid-and-swept-key", "schemes", "ratio", "ratio-axis", "scheme-twice"
        ],
    )
    def test_request_errors_are_usage_errors(self, tmp_path, capsys, edits, message):
        # the engine checks each request; in a config file its errors exit 2
        text = SWEEP_CONFIG
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid config file" in err and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag,value", [("--grid", "7"), ("--p0g0-db", "3"), ("--psgk-db", "3")])
    def test_zone_flags_rejected_on_sweeps(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "x.csv")
        assert main(["run", "fig6", flag, value, "--trials", "100", "--out", out]) == 2
        assert "zone runs only" in capsys.readouterr().err
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["run", "--config", cfg, flag, value, "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--p0g0-db", "--psgk-db"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_zone_power(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "zone.csv")
        assert main(["run", "zone", flag, value, "--grid", "4", "--out", out]) == 1
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zone_sum_rate_rounding_to_zero(self, tmp_path, capsys):
        # no target rate was given: the message names the powers and the sum rate
        out = str(tmp_path / "zone.csv")
        argv = ["run", "zone", "--p0g0-db", "-400", "--psgk-db", "-400", "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "received powers 1e-40, 1e-40 give sum rate 0.0" in err
        assert "target rates" not in err
        assert not os.path.exists(out)

    def test_bad_worker_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out, "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_key_range(self, tmp_path, capsys, seed):
        # such a seed would draw the blocks of another seed while the CSV records it
        out = str(tmp_path / "fig4.csv")
        assert main(["run", "fig4", "--seed", seed, "--out", out]) == 1
        assert f"seed must be an integer in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 8, 2**64 - 1])
    def test_validate_seed_outside_the_key_range(self, capsys, seed):
        # the criteria key on seed + 0..8; the seed is checked before the first one runs
        assert main(["validate", "--seed", str(seed)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"acceptance seed must be an integer in [0, 2**64 - 8), got {seed}" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "seed must be an integer in [0, 2**64), got -1"),
            ("--trials", "0", "trials must be an integer >= 1, got 0"),
        ],
        ids=["seed", "trials"],
    )
    def test_zone_run_checks_trials_and_seed(self, tmp_path, capsys, flag, value, message):
        # a zone run uses neither trials nor seed, but checks both as a sweep does
        out = str(tmp_path / "zone.csv")
        assert main(["run", "zone", "--grid", "3", flag, value, "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "message, shown",
        [
            ("48.8 GiB for an array", "error: out of memory: 48.8 GiB for an array\n"),
            ("", "error: out of memory: allocation failed\n"),
        ],
    )
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, message, shown):
        # the engine sizes its tallies by the trial count and its draw buffers by the
        # worker count and K; stand in for a failed allocation without making it
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sweeps", exhausted)
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("num_gfus = 2", "num_gfus = 256"))
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == shown
        assert not os.path.exists(out)

    def test_zone_sum_rate_overflow(self, tmp_path, capsys):
        # each power is finite, their sum is not: the sum-rate face has no limit
        out = str(tmp_path / "zone.csv")
        argv = ["run", "zone", "--p0g0-db", "3082", "--psgk-db", "3082", "--grid", "2", "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "received powers 1.584893192461072e+308, 1.584893192461072e+308" in err
        assert "sum rate inf" in err
        assert not os.listdir(tmp_path)


def fake_criterion(name, passed):
    def criterion(seed):
        return acceptance.CriterionResult(name, passed, f"seed {seed}")

    return name, criterion


class TestValidate:
    def test_reports_each_criterion_and_counts_failures(self, monkeypatch, capsys):
        criteria = (fake_criterion("good", True), fake_criterion("bad", False))
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        assert main(["validate", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert out == "[PASS] good: seed 7\n[FAIL] bad: seed 7\n1 criterion(s) failed\n"

    def test_exits_zero_when_every_criterion_passes(self, monkeypatch, capsys):
        criteria = (fake_criterion("good", True), fake_criterion("also good", True))
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        assert main(["validate"]) == 0
        seed = acceptance.DEFAULT_SEED
        assert capsys.readouterr().out == f"[PASS] good: seed {seed}\n[PASS] also good: seed {seed}\n"
