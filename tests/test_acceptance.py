"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -sv tests/test_acceptance.py`` to see one PASS line per
criterion; any failure surfaces as a normal pytest failure.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from conftest import mask_costs_with_gaps, restrict
from epigames import (
    BayesianSetting,
    CostBenefitFunction,
    DesignerCostModel,
    DistancingParams,
    Decision,
    EfficiencyParams,
    HealthStatus,
    MaskCosts,
    MeetingDomain,
    Policy,
    Scenario,
    StrategyProfile,
    apply_policies,
    bayesian_expected_cost,
    bayesian_mask_condition,
    cli,
    curve_series,
    efficiency_analysis,
    efficiency_expected_cost,
    evaluate_mechanism,
    multiplayer_so_condition,
    optimal_meeting,
    oracle,
    pair_game,
    pure_nash_equilibria,
    social_optima,
    stay_home_decision,
    z_objective,
)
from epigames.games import ActionSet, CostTable

S = HealthStatus.SUSCEPTIBLE
I = HealthStatus.INFECTED

BUNDLED_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.ini"


def report(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


@given(mask_costs_with_gaps())
def test_criterion_1_basic_mask_game_solutions(costs):
    two_susceptible = pair_game(S, S, costs)
    assert pure_nash_equilibria(two_susceptible) == [StrategyProfile(0, 0)]
    assert social_optima(two_susceptible) == [StrategyProfile(0, 0)]
    one_infected = pair_game(S, I, costs)
    assert pure_nash_equilibria(one_infected) == [StrategyProfile(2, 0)]  # (in, no)
    assert social_optima(one_infected) == [StrategyProfile(0, 1)]  # (no, out)


def test_criterion_1_reported():
    report(1, "pair-game equilibria and social optima are exact singletons")


def test_criterion_2_bayesian_threshold_flips_at_125():
    setting = BayesianSetting(0.5, 0.5)

    def wears(c_use):
        return bayesian_mask_condition(setting, MaskCosts(1, 10, c_use, 1000)).wear

    threshold = bayesian_mask_condition(setting, MaskCosts(1, 10, 1, 1000)).threshold
    assert abs(threshold * 1000 - 125.0) <= 1e-9
    assert wears(125.0 - 1e-6) and not wears(125.0) and not wears(125.0 + 1e-6)
    assert wears(124.999999) and not wears(125.0)
    report(2, "even-odds wear decision flips exactly at a mask price of 125")


def test_criterion_3_expected_cost_is_affine_in_p2():
    rng = random.Random(20200903)
    for _ in range(1000):
        setting = cli._exact(BayesianSetting(rng.random(), rng.random()))
        c_infection = rng.uniform(1.0, 10_000.0)
        c_use = rng.uniform(1e-6, c_infection * 0.999)
        costs = cli._exact(MaskCosts(c_infection * 1e-4, c_infection * 1e-3, c_use, c_infection))
        mid = Fraction(rng.uniform(0.05, 0.95))
        assert oracle.check_affine(
            lambda p2: bayesian_expected_cost(setting, p2, costs), Fraction(0), mid, Fraction(1)
        )
    report(3, "expected cost stayed affine in p2 across 1000 random draws")


def test_criterion_4_efficiency_constants_at_default_masks():
    eff = EfficiencyParams(1 / 3, 2 / 3)
    for c_use in (100.0, 700.0):
        costs = MaskCosts(1, 10, c_use, 1000)
        analysis = efficiency_analysis(eff, costs)
        assert analysis.use_beats_no_threshold == pytest.approx(7 / 9, abs=1e-12)
        expected_stationary = (9 / 4) * (1000 - c_use) / 1000
        assert analysis.stationary_p == pytest.approx(expected_stationary, abs=1e-12)
        h = 0.01
        curvature = (
            efficiency_expected_cost(0.5 + h, eff, costs)
            - 2 * efficiency_expected_cost(0.5, eff, costs)
            + efficiency_expected_cost(0.5 - h, eff, costs)
        ) / (h * h)
        assert curvature == pytest.approx((4 / 9) * 1000, rel=1e-6)
        assert analysis.second_derivative == pytest.approx((4 / 9) * 1000, rel=1e-12)
        grid = oracle.grid_argmin(
            lambda p: efficiency_expected_cost(p, eff, costs), 0.0, 1.0, 10_001
        )
        assert abs(grid.x_star - analysis.best_p) <= 1e-4
    report(4, "default-mask efficiency constants reproduced to stated tolerances")


def test_criterion_5_multiplayer_condition_recomputed():
    rng = random.Random(20200904)
    for _ in range(1000):
        c_out = rng.uniform(0.01, 50)
        c_in = c_out + rng.uniform(0.01, 200)
        c_infection = c_in + rng.uniform(1, 5000)
        costs = MaskCosts(c_out, c_in, c_infection * 0.5, c_infection)
        rho = rng.uniform(0.0, 0.999999)
        result = multiplayer_so_condition(rho, costs)
        assert result.holds == (c_in / c_out < rho / (1 - rho))
        assert not multiplayer_so_condition(0.0, costs).holds
    report(5, "many-player optimality condition matches direct recomputation")


def test_criterion_6_distancing_example_constants():
    multiplier = stay_home_decision(
        DistancingParams(1.0, 0.0, 0.034, 11.3e6, 0.0077)
    ).life_value_threshold
    assert multiplier == pytest.approx(3819.7, abs=0.1)

    def stays(stakes):
        params = DistancingParams(stakes, 0.0, 0.034, 11.3e6, 0.0077)
        return stay_home_decision(params).decision is Decision.STAY

    lo, hi = 2000.0, 4000.0
    assert stays(lo) and not stays(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if stays(mid):
            lo = mid
        else:
            hi = mid
    assert (lo + hi) / 2 == pytest.approx(2958.3, abs=1.0)
    report(6, "life-value multiplier is 3819.7 and the decision flips near 2958.3")


def test_criterion_7_meeting_objective_shapes():
    rho, m = 0.0077, 0.034
    domain = MeetingDomain(0.1, 100, 2000)

    constant_b = CostBenefitFunction.constant(1000)
    constant_c = CostBenefitFunction.constant(500)
    values = [v for _, v in curve_series(constant_b, constant_c, rho, m, domain)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert optimal_meeting(constant_b, constant_c, rho, m, domain).z_star == domain.z_min

    linear_b = CostBenefitFunction.linear(10, 0)
    linear_c = CostBenefitFunction.linear(5, 0)
    values = [v for _, v in curve_series(linear_b, linear_c, rho, m, domain)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert optimal_meeting(linear_b, linear_c, rho, m, domain).z_star == domain.z_max

    mixed_domain = MeetingDomain(0.1, 100, 500)
    mixed = optimal_meeting(linear_b, constant_c, rho, m, mixed_domain)
    fine = oracle.grid_argmin(
        lambda z: -z_objective(z, linear_b, constant_c, rho, m),
        mixed_domain.z_min,
        mixed_domain.z_max,
        10 * mixed_domain.grid_steps + 1,
    )
    coarse_step = (mixed_domain.z_max - mixed_domain.z_min) / mixed_domain.grid_steps
    assert abs(mixed.z_star - fine.x_star) <= coarse_step
    report(7, "objective shapes are monotone as expected and match a finer grid")


def test_criterion_8_equilibria_match_enumeration_on_random_tables():
    rng = random.Random(20200908)
    actions = ActionSet(("a", "b", "c"))
    for _ in range(100):
        table = CostTable(
            actions,
            actions,
            tuple(
                tuple((rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(3))
                for _ in range(3)
            ),
        )
        assert pure_nash_equilibria(table) == oracle.enumerate_pure_ne(table)
    report(8, "solver equals exhaustive enumeration on 100 random 3x3 tables")


def test_criterion_9_policy_layer_guarantees():
    scenario = Scenario(
        mask_costs=MaskCosts(1.0, 10.0, 100.0, 1000.0),
        efficiency=EfficiencyParams(),
        bayesian=BayesianSetting(0.5, 0.5),
        distancing=DistancingParams(3000, 500, 0.034, 11.3e6, 0.0077),
        benefit_fn=CostBenefitFunction.linear(10, 0),
        cost_fn=CostBenefitFunction.constant(500),
        meeting_domain=MeetingDomain(0.1, 100, 500),
        population=1000,
    )
    model = DesignerCostModel(10_000, 1.0, 1.0)

    # mandate: the restricted two-susceptible game has the unique outcome (out, out)
    mandated, _ = apply_policies(scenario, [Policy("mask_mandate")])
    game = restrict(pair_game(S, S, mandated.mask_costs), ["out"], ["out"])
    equilibria = pure_nash_equilibria(game)
    assert [game.profile_labels(p) for p in equilibria] == [("out", "out")]

    # a full subsidy makes wearing optimal whenever the risk term is positive
    rng = random.Random(20200909)
    for _ in range(200):
        setting = BayesianSetting(rng.random(), rng.random())
        risky = setting.rho * (1 - setting.rho) * (1 - setting.p1) > 0
        subsidized, _ = apply_policies(
            Scenario(
                mask_costs=scenario.mask_costs,
                efficiency=scenario.efficiency,
                bayesian=setting,
                distancing=scenario.distancing,
                benefit_fn=scenario.benefit_fn,
                cost_fn=scenario.cost_fn,
                meeting_domain=scenario.meeting_domain,
                population=scenario.population,
            ),
            [Policy("free_masks", subsidy=scenario.mask_costs.c_use)],
        )
        if risky:
            assert bayesian_mask_condition(setting, subsidized.mask_costs).wear

    # a gathering cap never lets the reported exposure exceed the limit
    for limit in (1, 3, 10, 50):
        capped = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=limit)], model)
        outcome = capped.citizen_outcome
        if outcome.decision is Decision.GO:
            assert outcome.z_star <= limit

    # lockdown removes all expected infections
    locked = evaluate_mechanism(scenario, [Policy("lockdown")], model)
    assert locked.expected_infections == 0.0

    # targeted testing costs exactly the traced share of mass testing
    for _ in range(200):
        population = rng.randrange(2, 10_000)
        per_test = rng.uniform(0, 500)
        fraction = rng.random()
        sized = scenario.replace(population=population)
        mass = apply_policies(sized, [Policy("mass_testing", per_test_cost=per_test)])[0].testing_outlay
        targeted = apply_policies(
            sized, [Policy("targeted_testing", per_test_cost=per_test, traced_fraction=fraction)]
        )[0].testing_outlay
        assert targeted == fraction * mass
    report(9, "mandate, subsidy, cap, lockdown, and testing guarantees all hold")


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    scenario = str(BUNDLED_SCENARIO)

    # byte-identical reruns, in both formats
    for fmt in ("table", "csv"):
        outputs = []
        for attempt in range(2):
            out_path = tmp_path / f"run-{fmt}-{attempt}.txt"
            assert (
                cli.run(
                    [
                        "policy-compare",
                        "--scenario",
                        scenario,
                        "--format",
                        fmt,
                        "--out",
                        str(out_path),
                    ]
                )
                == 0
            )
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    # invalid configuration: exit 1 naming the offending key
    bad = tmp_path / "bad.ini"
    bad.write_text("[bayesian]\nrho = 1.5\np1 = 0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["mask-bayesian", "--scenario", str(bad)]) == 1
    assert "[bayesian].rho" in capsys.readouterr().err

    # every subcommand passes its oracle cross-checks on the bundled scenario
    for command in cli.SUBCOMMANDS:
        out_path = tmp_path / f"verify-{command}.txt"
        code = cli.run(
            [command, "--scenario", scenario, "--verify", "--out", str(out_path)]
        )
        assert code == 0, f"{command} --verify exited {code}"
    report(10, "CLI is deterministic, names bad keys on exit 1, and verifies clean")
