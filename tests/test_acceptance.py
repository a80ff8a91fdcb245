"""Release gate: every criterion runs at its pinned budget and tolerance.

Each test prints its PASS/FAIL line (visible with ``pytest -s`` or on
failure); the CLI ``validate`` subcommand prints the same report. The
planted-defect tests check that a criterion fails when the production code it
reads, or a cell that ``sgfsim run`` prints, is broken.
"""

import ast
import dataclasses
import functools
import inspect

import numpy as np
import pytest

from sgfsim import acceptance, analytic, cli, montecarlo
from sgfsim.acceptance import CRITERIA, DEFAULT_SEED
from sgfsim.protocol import evaluate_transmission
from sgfsim.zones import ZoneLabel


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, criterion):
    result = criterion(DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("seed", [-1, 2**64 - 8, 2**64 - 1])
def test_run_all_checks_the_seed_before_any_criterion(monkeypatch, seed):
    def criterion(seed):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "CRITERIA", (("planted", criterion),))
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64 - 8\)"):
        acceptance.run_all(seed)


def test_run_all_seed_bound_covers_every_criterion_key():
    # run_all admits seeds below 2**64 - 8, so no criterion may key on seed + 9 or more
    tree = ast.parse(inspect.getsource(acceptance))
    offsets = {
        node.right.value
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Name)
        and node.left.id == "seed"
        and isinstance(node.right, ast.Constant)
    }
    assert max(offsets) == 8


def test_gbu_oma_equivalence_catches_a_mislabelled_case(monkeypatch):
    """A kernel that files Case III rows under Case I breaks the GBU guarantee."""
    kernel = acceptance.evaluate_rsma_trials

    def case3_as_case1(config, gain_gbu, gains_gfu):
        case_idx, gfu_out, gbu_out = kernel(config, gain_gbu, gains_gfu)
        return np.where(case_idx == 2, 0, case_idx), gfu_out, gbu_out

    monkeypatch.setattr(acceptance, "evaluate_rsma_trials", case3_as_case1)
    result = acceptance.criterion_gbu_oma_equivalence(DEFAULT_SEED)
    assert not result.passed
    assert not result.detail.startswith("0 ")


def test_rsma_dominance_catches_a_baseline_that_splits(monkeypatch):
    """A baseline rate equal to the rate-splitting rate ties where it must lose."""
    # one cached outcome per realization, so the planted baseline adds no second protocol run
    outcome = functools.lru_cache(maxsize=1)(evaluate_transmission)

    def splitting_rate(config, realization):
        return outcome(config, realization).rate_gfu_total, realization.num_gfus

    monkeypatch.setattr(acceptance, "evaluate_transmission", outcome)
    monkeypatch.setattr(acceptance, "cr_noma_rate", splitting_rate)
    result = acceptance.criterion_rsma_dominance(DEFAULT_SEED)
    assert not result.passed
    assert not result.detail.startswith("0 ")


def test_zone_geometry_catches_a_baseline_cell_outside_the_pentagon(monkeypatch):
    """One outage cell labelled as held by both decode orders breaks containment."""
    classify = acceptance.classify_grid

    def one_outage_as_baseline(p_gbu, p_gfu, grid_n):
        cells = classify(p_gbu, p_gfu, grid_n)
        i = next(i for i, (*_, label) in enumerate(cells) if label is ZoneLabel.OUTAGE)
        cells[i] = (*cells[i][:2], ZoneLabel.NOMA_EITHER)
        return cells

    monkeypatch.setattr(acceptance, "classify_grid", one_outage_as_baseline)
    result = acceptance.criterion_zone_geometry(DEFAULT_SEED)
    assert not result.passed
    assert ", 1 containment violations," in result.detail


def test_per_case_decomposition_catches_swapped_case_terms(monkeypatch):
    """Quadrature terms of Cases I and III filed under each other miss the
    per-case tallies; the total, and so every sweep row, is unchanged."""
    quadrature = analytic.outage_quadrature

    def swapped(config):
        breakdown = quadrature(config)
        return dataclasses.replace(breakdown, p_case1=breakdown.p_case3, p_case3=breakdown.p_case1)

    monkeypatch.setattr(analytic, "outage_quadrature", swapped)
    # the grid is cached per seed; no other test may read rows built under the plant
    acceptance._mc_grid.cache_clear()
    try:
        result = acceptance.criterion_case_decomposition(DEFAULT_SEED)
    finally:
        acceptance._mc_grid.cache_clear()
    failures = result.detail.split("; ")[1:]
    assert not result.passed
    assert failures and all(" case I: " in f or " case III: " in f for f in failures), result.detail


def test_determinism_catches_a_worker_dependent_tally(monkeypatch):
    """One extra Case I occurrence on the last block of a threaded run changes the
    estimate and every preset's files but the zone preset's, which draws no blocks."""
    simulate = montecarlo._simulate

    def planted(configs, trials, seed, workers):
        tallies = simulate(configs, trials, seed, workers)
        if workers > 1:
            tallies[-1, :, 0] += 1
        return tallies

    monkeypatch.setattr(montecarlo, "_simulate", planted)
    result = acceptance.criterion_determinism(DEFAULT_SEED)
    assert not result.passed
    assert result.detail.split("; ") == [
        "estimate differs between 1 and 8 workers",
        *(f"preset {name} output not byte-identical" for name in cli.PRESET_NAMES if name != "zone"),
    ]


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda exact, note: (1.1 * exact, note), " sigma"),
        (lambda exact, note: (None, "exact: planted range error"), "exact: planted range error"),
    ],
    ids=["exact-10%-high", "exact-empty"],
)
def test_sweep_criteria_gate_the_printed_exact_cell(monkeypatch, plant, message):
    """A wrong or empty exact cell in the sweep rows fails both criteria that compare
    it with Monte Carlo, and an empty one is named by its note, not raised."""
    columns = montecarlo._analytic_columns

    def planted(*args):
        exact, highsnr, asymptote, note = columns(*args)
        if exact is not None:
            exact, note = plant(exact, note)
        return exact, highsnr, asymptote, note

    monkeypatch.setattr(montecarlo, "_analytic_columns", planted)
    # the grid is cached per seed; no other test may read the planted rows
    acceptance._mc_grid.cache_clear()
    try:
        results = [
            acceptance.criterion_exact_vs_mc(DEFAULT_SEED),
            acceptance.criterion_single_user(DEFAULT_SEED),
        ]
    finally:
        acceptance._mc_grid.cache_clear()
    for result in results:
        failures = result.detail.split("; ")[1:]
        assert not result.passed
        assert failures and all(message in failure for failure in failures), result.detail
