import csv
import hashlib
import json
import os

import pytest

from sgfsim.cli import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    PRESET_NAMES,
    SWEEP_COLUMNS,
    ZONE_COLUMNS,
    main,
)

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
FIG7_MONTE_CARLO_SHA256 = "677794aa9f060cba24d3feb07a6f072c2324a246856a45f88e4deb057b43afab"


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


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunWithConfigFile:
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
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_workers_flag_overrides_env_and_keeps_bytes(self, tmp_path, monkeypatch):
        # three blocks, so more than one worker has work
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("trials = 5000", "trials = 150000"))
        monkeypatch.setenv("SGFSIM_WORKERS", "abc")
        outs = []
        for workers in ("1", "3"):
            outs.append(str(tmp_path / f"w{workers}.csv"))
            argv = ["run", "--config", cfg, "--out", outs[-1], "--no-timestamp", "--workers", workers]
            assert main(argv) == 0
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

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
        payload = json.load(open(tmp_path / "sweep.json"))
        assert len(payload["rows"]) == 6
        assert set(payload["rows"][0]) == set(SWEEP_COLUMNS)

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

    def test_choice_parameters_are_marked(self, tmp_path):
        out = str(tmp_path / "fig7.csv")
        main(["run", "fig7", "--trials", "500", "--seed", "4", "--out", out, "--no-timestamp"])
        comments, _, _ = read_csv(str(tmp_path / "fig7_b.csv"))
        assert any("gbu_power_db=10" in c and "source=choice" in c for c in comments)

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

    def test_invalid_axis_in_config(self, tmp_path):
        bad = SWEEP_CONFIG.replace("axis = gfu_power_db", "axis = bandwidth")
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", cfg]) == 2

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
        lines = SWEEP_CONFIG.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(f"{key} =")]
        assert len(kept) == len(lines) - 1
        cfg = write_config(tmp_path, "".join(kept))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid config file" in capsys.readouterr().err

    def test_empty_schemes_in_config(self, tmp_path, capsys):
        bad = SWEEP_CONFIG.replace("schemes = cr-rsma-sgf cr-noma-sgf", "schemes =")
        cfg = write_config(tmp_path, bad)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 1
        assert "schemes must be nonempty" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag,value", [("--grid", "7"), ("--p0g0-db", "3"), ("--psgk-db", "3")])
    def test_zone_flags_rejected_on_sweeps(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "x.csv")
        assert main(["run", "fig6", flag, value, "--trials", "100", "--out", out]) == 2
        assert "zone runs only" in capsys.readouterr().err
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["run", "--config", cfg, flag, value, "--out", out]) == 2
        assert not os.path.exists(out)

    def test_bad_worker_count(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = str(tmp_path / "x.csv")
        assert main(["run", "--config", cfg, "--out", out, "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err
        monkeypatch.setenv("SGFSIM_WORKERS", "-3")
        assert main(["run", "--config", cfg, "--out", out]) == 1
        assert "SGFSIM_WORKERS" in capsys.readouterr().err
