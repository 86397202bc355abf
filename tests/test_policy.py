"""Tests for policy transformations and mechanism evaluation."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mask_costs_with_gaps, probabilities, restrict, sample_policy
from epigames import (
    BayesianSetting,
    CitizenOutcome,
    CostBenefitFunction,
    Decision,
    DesignerCostModel,
    DistancingParams,
    DomainError,
    EfficiencyParams,
    HealthStatus,
    MaskCosts,
    MechanismReport,
    MeetingDomain,
    Policy,
    Scenario,
    StrategyProfile,
    apply_policies,
    bayesian_mask_condition,
    compare_policies,
    designer_cost,
    evaluate_mechanism,
    optimal_meeting,
    pair_game,
    parse_scenario,
    pure_nash_equilibria,
    rank,
    z_objective,
)
from epigames import policy as policy_module
from epigames.policy import POLICY_KINDS, POLICY_PARAMS
from epigames.value import Value

S = HealthStatus.SUSCEPTIBLE


def make_scenario(**overrides):
    """Going-out baseline: strong linear benefit, mild constant home cost."""
    fields = dict(
        mask_costs=MaskCosts(1.0, 10.0, 100.0, 1000.0),
        efficiency=EfficiencyParams(),
        bayesian=BayesianSetting(0.5, 0.5),
        distancing=DistancingParams(3000, 500, 0.034, 11.3e6, 0.0077),
        benefit_fn=CostBenefitFunction.linear(10, 0),
        cost_fn=CostBenefitFunction.constant(500),
        meeting_domain=MeetingDomain(0.1, 100, 500),
        population=1000,
    )
    fields.update(overrides)
    return Scenario(**fields)


MODEL = DesignerCostModel(weight_infection=10_000, weight_test=1.0, weight_economic=1.0)
_AGGREGATES = ("expected_infections", "social_cost", "designer_cost", "testing_outlay", "suppressed_benefit")


def _top_of_window_scenario():
    """Stakes B(z) = 10 z with no home cost: the free optimum is z_max = 100, and a
    life value below the stakes at every z keeps citizens going out under any cap."""
    return make_scenario(
        cost_fn=CostBenefitFunction.constant(0),
        distancing=DistancingParams(3000, 500, 0.034, 30_000, 0.0077),
    )


_PARAM_VALUES = {
    "subsidy": st.floats(0, 1e300),
    "limit": st.integers(1, 10**300),
    "per_test_cost": st.floats(0, 1e300),
    "traced_fraction": st.floats(0, 1),
}


_ANY_POLICY = st.one_of(
    st.sampled_from([Policy("mask_mandate"), Policy("lockdown")]),
    st.builds(Policy, st.just("free_masks"), subsidy=st.one_of(st.floats(0, 200), st.floats(0, 1e300))),
    st.builds(Policy, st.just("gathering_cap"), limit=st.integers(1, 200)),
    st.builds(Policy, st.just("mass_testing"), per_test_cost=st.one_of(st.floats(0, 1e3), st.floats(0, 1e300))),
    st.builds(
        Policy, st.just("targeted_testing"),
        per_test_cost=st.one_of(st.floats(0, 1e3), st.floats(0, 1e300)), traced_fraction=probabilities(),
    ),
)


class TestPolicyType:
    def test_constructor_builds_valid_policies(self):
        assert Policy("mask_mandate").kind == "mask_mandate"
        assert Policy("free_masks", subsidy=5.0).subsidy == 5.0
        assert Policy("gathering_cap", limit=10).limit == 10
        assert Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.1).traced_fraction == 0.1

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ValueError, match="subsidy"):
            Policy("free_masks", subsidy=-1.0)
        with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
            Policy("gathering_cap", limit=0)
        with pytest.raises(ValueError, match="integer"):
            Policy("gathering_cap", limit=2.5)
        with pytest.raises(ValueError, match="traced_fraction"):
            Policy("targeted_testing", per_test_cost=5.0, traced_fraction=1.5)

    def test_stray_parameters_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            Policy("lockdown", subsidy=1.0)
        with pytest.raises(ValueError, match="requires"):
            Policy("free_masks")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            Policy("curfew")

    def test_describe_is_compact(self):
        assert Policy("mask_mandate").describe() == "mask_mandate"
        assert Policy("free_masks", subsidy=50.0).describe() == "free_masks(subsidy=50)"
        described = Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.1).describe()
        assert described == "targeted_testing(per_test_cost=5;traced_fraction=0.1)"

    def test_describe_prints_a_limit_whole(self):
        # :g would print both as gathering_cap(limit=1.23457e+06)
        assert Policy("gathering_cap", limit=1234567).describe() == "gathering_cap(limit=1234567)"
        assert Policy("gathering_cap", limit=1234568).describe() == "gathering_cap(limit=1234568)"
        assert Policy("gathering_cap", limit=10**20).describe() == f"gathering_cap(limit={10**20})"

    def test_kinds_are_the_parameter_table_keys(self):
        assert POLICY_KINDS == tuple(POLICY_PARAMS)

    @given(
        st.sampled_from(POLICY_KINDS).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.fixed_dictionaries({name: _PARAM_VALUES[name] for name in POLICY_PARAMS[kind]}),
                st.permutations(POLICY_PARAMS[kind]),
            )
        )
    )
    def test_parse_reads_each_parameter_exactly_in_any_order(self, drawn):
        kind, params, order = drawn
        text = " ".join([kind] + [f"{name}={params[name]!r}" for name in order])
        assert Policy.parse(text) == Policy(kind, **params)

    @example(Policy("free_masks", subsidy=1234567.0), Policy("free_masks", subsidy=1234568.0))
    @example(
        Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.1234561),
        Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.1234562),
    )
    @given(_ANY_POLICY, _ANY_POLICY)
    def test_unequal_policies_describe_differently(self, first, second):
        if first != second:
            assert first.describe() != second.describe()

    @example(Policy("free_masks", subsidy=0.0))
    @example(Policy("targeted_testing", per_test_cost=0.0, traced_fraction=0.0))
    @given(_ANY_POLICY)
    def test_equal_policies_describe_alike(self, policy):
        # -0.0 == 0.0, so the policy with each zero parameter negated is the same policy
        zeros = {name: -0.0 for name in POLICY_PARAMS[policy.kind] if getattr(policy, name) == 0}
        negated = policy.replace(**zeros)
        assert negated == policy
        assert negated.describe() == policy.describe()

    @given(_ANY_POLICY.filter(lambda policy: POLICY_PARAMS[policy.kind]), st.data())
    def test_a_value_one_step_away_describes_differently(self, policy, data):
        name = data.draw(st.sampled_from(POLICY_PARAMS[policy.kind]))
        value = getattr(policy, name)
        if name == "limit":
            value += 1
        else:  # the next float towards 0, or up from 0: in range for every parameter
            value = math.nextafter(value, 0.0 if value > 0 else 1.0)
        moved = policy.replace(**{name: value})
        assert policy.describe() != moved.describe()

    def test_parsing_a_set_checks_each_policy_once_and_builds_it_by_position(self, tmp_path, monkeypatch):
        checks, merged = [], []
        check_params, merge = policy_module._check_params, Value._merge.__func__

        def counted_check(kind, given):
            checks.append(kind)
            check_params(kind, given)

        def counted_merge(cls, args, kwargs):
            merged.append(cls)
            return merge(cls, args, kwargs)

        monkeypatch.setattr(policy_module, "_check_params", counted_check)
        monkeypatch.setattr(Value, "_merge", classmethod(counted_merge))
        texts = ["mask_mandate", "free_masks subsidy=12.5", "gathering_cap limit=7", "lockdown",
                 "mass_testing per_test_cost=3.25", "targeted_testing traced_fraction=0.4 per_test_cost=3.25"]
        path = tmp_path / "long.ini"
        path.write_text(f"[policies]\nlong = {', '.join(texts * 100)}\n", encoding="utf-8")
        [(_, policies)] = parse_scenario(path).policy_sets
        assert [policy.kind for policy in policies] == [text.split()[0] for text in texts] * 100
        assert checks == [policy.kind for policy in policies]
        assert Policy not in merged

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unknown policy kind ''"),
            ("curfew", "unknown policy kind 'curfew'"),
            ("lockdown level=9", "requires no parameters; does not take 'level'"),
            ("free_masks", "requires subsidy; missing subsidy"),
            ("free_masks subsidy", "expected a number for subsidy, got ''"),
            ("gathering_cap limit=2.5", "expected an integer for limit, got '2.5'"),
            ("free_masks subsidy=1 subsidy=500", "repeated parameter 'subsidy'"),
            ("free_masks subsidy=-1", "subsidy must be non-negative"),
            # a wrong kind or name is named before any value is read
            ("lockdown subsidy=abc", "requires no parameters; does not take 'subsidy'"),
            ("curfew subsidy=x", "unknown policy kind 'curfew'"),
            ("lockdown subsidy=nan", "requires no parameters; does not take 'subsidy'"),
        ],
    )
    def test_parse_names_what_is_wrong(self, text, message):
        with pytest.raises(ValueError, match=message):
            Policy.parse(text)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_describe_lists_parameters_in_table_order(self, kind):
        inside = sample_policy(kind).describe().partition("(")[2].rstrip(")")
        names = [part.partition("=")[0] for part in inside.split(";") if part]
        assert names == list(POLICY_PARAMS[kind])


def _apply_one(scenario, policy):
    """The per-policy rewrite that ``apply_policies`` folds: one policy, a new Scenario each."""
    if policy.kind == "mask_mandate":
        return scenario.replace(mask_mandate=True)
    if policy.kind == "free_masks":
        costs = scenario.mask_costs
        subsidized = costs.replace(
            c_use=max(0.0, costs.c_use - policy.subsidy),
            c_out=max(0.0, costs.c_out - policy.subsidy),
        )
        return scenario.replace(mask_costs=subsidized)
    if policy.kind in ("gathering_cap", "lockdown"):
        limit = 0 if policy.kind == "lockdown" else policy.limit
        if scenario.gathering_limit is not None:
            limit = min(scenario.gathering_limit, limit)
        return scenario.replace(gathering_limit=limit)
    fraction = 1.0 if policy.kind == "mass_testing" else policy.traced_fraction
    revealed = max(scenario.revealed_fraction, fraction)
    outlay = scenario.testing_outlay + fraction * (scenario.population * policy.per_test_cost)
    if not math.isfinite(outlay):
        raise DomainError(f"testing_outlay is {outlay}: the scenario's magnitudes leave a float's range")
    return scenario.replace(revealed_fraction=revealed, testing_outlay=outlay)


def _reference_fold(scenario, policies):
    """A left fold of ``_apply_one``, with each conflict decided from the policies before it;
    the set warns of its first conflict only."""
    conflicts, kinds = [], set()
    for policy in policies:
        if policy.kind == "lockdown" and "gathering_cap" in kinds:
            conflicts.append("lockdown overrides gathering_cap (stricter policy wins)")
        if policy.kind == "gathering_cap" and "lockdown" in kinds:
            conflicts.append("gathering_cap has no effect under lockdown (stricter policy wins)")
        kinds.add(policy.kind)
        scenario = _apply_one(scenario, policy)
    return scenario, tuple(conflicts[:1])


def _float_hexes(scenario):
    return [getattr(holder, name).hex() for holder in (scenario, scenario.mask_costs)
            for name in holder._fields if isinstance(getattr(holder, name), float)]


class TestApplyPolicy:
    @settings(max_examples=300, deadline=None)
    @example(10**6, 0.0, 0.0, None, [Policy("mass_testing", per_test_cost=1e302)] * 3)  # overflows at the second
    @given(
        st.integers(2, 10**6),
        probabilities(),
        st.floats(0, 1e300),
        st.one_of(st.none(), st.integers(0, 200)),
        st.lists(_ANY_POLICY, max_size=8),
    )
    def test_one_pass_matches_a_fold_of_single_policies(self, n, revealed, outlay, limit, policies):
        scenario = make_scenario(
            population=n, revealed_fraction=revealed, testing_outlay=outlay, gathering_limit=limit
        )
        try:
            expected = _reference_fold(scenario, policies)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                apply_policies(scenario, policies)
            assert str(raised.value) == str(exc)
            return
        folded, warnings = apply_policies(scenario, policies)
        assert (folded, warnings) == expected
        assert _float_hexes(folded) == _float_hexes(expected[0])

    def test_every_policy_is_annotation_monotone(self):
        scenario = make_scenario()
        policies = [
            Policy("mask_mandate"),
            Policy("free_masks", subsidy=5.0),
            Policy("gathering_cap", limit=10),
            Policy("lockdown"),
            Policy("mass_testing", per_test_cost=5.0),
            Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.2),
        ]
        touched = {
            "mask_mandate": {"mask_mandate"},
            "free_masks": {"mask_costs"},
            "gathering_cap": {"gathering_limit"},
            "lockdown": {"gathering_limit"},
            "mass_testing": {"revealed_fraction", "testing_outlay"},
            "targeted_testing": {"revealed_fraction", "testing_outlay"},
        }
        for policy in policies:
            transformed, _ = apply_policies(scenario, [policy])
            for field in Scenario._fields:
                if field in touched[policy.kind]:
                    continue
                assert getattr(transformed, field) == getattr(scenario, field), (
                    f"{policy.kind} touched unrelated field {field}"
                )

    def test_zero_subsidy_is_identity_on_costs(self):
        scenario = make_scenario()
        assert apply_policies(scenario, [Policy("free_masks", subsidy=0.0)])[0].mask_costs == scenario.mask_costs

    def test_subsidy_clamps_prices_at_zero(self):
        transformed, _ = apply_policies(make_scenario(), [Policy("free_masks", subsidy=100.0)])
        assert transformed.mask_costs.c_use == 0.0
        assert transformed.mask_costs.c_out == 0.0
        assert transformed.mask_costs.c_in == 10.0

    @given(probabilities(), probabilities())
    def test_full_subsidy_makes_wearing_optimal_whenever_risky(self, rho, p1):
        scenario = make_scenario(bayesian=BayesianSetting(rho, p1))
        transformed, _ = apply_policies(scenario, [Policy("free_masks", subsidy=scenario.mask_costs.c_use)])
        if rho * (1 - rho) * (1 - p1) > 0:
            assert bayesian_mask_condition(transformed.bayesian, transformed.mask_costs).wear

    def test_mandate_restricts_the_pair_game_to_out(self):
        scenario, _ = apply_policies(make_scenario(), [Policy("mask_mandate")])
        assert scenario.mask_mandate
        game = restrict(pair_game(S, S, scenario.mask_costs), ["out"], ["out"])
        equilibria = pure_nash_equilibria(game)
        assert equilibria == [StrategyProfile(0, 0)]
        assert game.profile_labels(equilibria[0]) == ("out", "out")

    def test_stacked_caps_keep_the_stricter_limit(self):
        caps = [Policy("gathering_cap", limit=10), Policy("gathering_cap", limit=25)]
        scenario, warnings = apply_policies(make_scenario(), caps)
        assert scenario.gathering_limit == 10
        assert warnings == ()

    def test_lockdown_and_cap_warn_in_either_order(self):
        for policies in (
            [Policy("lockdown"), Policy("gathering_cap", limit=5)],
            [Policy("gathering_cap", limit=5), Policy("lockdown")],
        ):
            scenario, warnings = apply_policies(make_scenario(), policies)
            assert scenario.gathering_limit == 0  # a lockdown is the cap no meeting fits
            assert evaluate_mechanism(make_scenario(), policies, MODEL).warnings == warnings
            assert len(warnings) == 1
            assert "stricter policy wins" in warnings[0]

    def test_repeated_conflicts_warn_once_of_the_first(self):
        cap, lockdown = Policy("gathering_cap", limit=5), Policy("lockdown")
        for policies, text in (
            ([cap, lockdown, lockdown, cap], "lockdown overrides gathering_cap (stricter policy wins)"),
            ([lockdown, cap, cap, lockdown], "gathering_cap has no effect under lockdown (stricter policy wins)"),
        ):
            scenario, warnings = apply_policies(make_scenario(), policies)
            assert scenario.gathering_limit == 0
            assert warnings == (text,)
            assert evaluate_mechanism(make_scenario(), policies, MODEL).warnings == (text,)

    @given(
        st.lists(
            st.one_of(
                st.builds(Policy, st.just("gathering_cap"), limit=st.integers(1, 200)),
                st.just(Policy("lockdown")),
                st.just(Policy("mask_mandate")),
            ),
            max_size=8,
        )
    )
    def test_stacking_warnings_and_limit_match_a_reference_on_prefixes(self, policies):
        # the reference decides each policy from the prefix of the set that ends with it;
        # a prefix warns of its first conflict only
        conflicts = []
        for k, policy in enumerate(policies):
            earlier = {p.kind for p in policies[:k]}
            if policy.kind == "lockdown" and "gathering_cap" in earlier:
                conflicts.append("lockdown overrides gathering_cap (stricter policy wins)")
            if policy.kind == "gathering_cap" and "lockdown" in earlier:
                conflicts.append("gathering_cap has no effect under lockdown (stricter policy wins)")
            limits = [0 if p.kind == "lockdown" else p.limit
                      for p in policies[: k + 1] if p.kind != "mask_mandate"]
            scenario, warnings = apply_policies(make_scenario(), policies[: k + 1])
            assert scenario.gathering_limit == (min(limits) if limits else None)
            assert warnings == tuple(conflicts[:1])
        report = evaluate_mechanism(make_scenario(), policies, MODEL)
        assert report.warnings == tuple(conflicts[:1])

    def test_testing_policies_reveal_statuses(self):
        mass = Policy("mass_testing", per_test_cost=5.0)
        assert apply_policies(make_scenario(), [mass])[0].revealed_fraction == 1.0
        targeted = Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.3)
        traced, _ = apply_policies(make_scenario(), [targeted])
        assert traced.revealed_fraction == 0.3


class TestTestingOutlay:
    def test_mass_testing_pays_for_everyone(self):
        tested, _ = apply_policies(make_scenario(), [Policy("mass_testing", per_test_cost=50.0)])
        assert tested.testing_outlay == 50_000.0

    def test_targeted_outlay_is_the_traced_share_of_mass(self):
        mass, _ = apply_policies(make_scenario(), [Policy("mass_testing", per_test_cost=50.0)])
        targeted, _ = apply_policies(
            make_scenario(), [Policy("targeted_testing", per_test_cost=50.0, traced_fraction=0.1)]
        )
        assert targeted.testing_outlay == 0.1 * mass.testing_outlay

    def test_non_testing_policies_cost_nothing(self):
        for kind in ("mask_mandate", "free_masks", "gathering_cap", "lockdown"):
            assert apply_policies(make_scenario(), [sample_policy(kind)])[0].testing_outlay == 0.0
        report = evaluate_mechanism(make_scenario(), [Policy("lockdown"), Policy("mask_mandate")], MODEL)
        assert report.testing_outlay == 0.0

    def test_stacked_testing_accrues_each_spend_in_policy_order(self):
        mass = Policy("mass_testing", per_test_cost=0.1)
        traced = Policy("targeted_testing", per_test_cost=0.3, traced_fraction=0.7)
        n = make_scenario().population
        for policies, spends in (
            ([mass, traced, mass], [n * 0.1, 0.7 * (n * 0.3), n * 0.1]),
            ([traced, mass, traced], [0.7 * (n * 0.3), n * 0.1, 0.7 * (n * 0.3)]),
        ):
            expected = 0.0
            for spend in spends:
                expected += spend
            report = evaluate_mechanism(make_scenario(), policies, MODEL)
            assert report.testing_outlay == expected  # the same float sums, left to right
            assert report.citizen_outcome.unrevealed_action is None  # mass testing reveals all

    @settings(deadline=None)
    @given(
        st.integers(2, 10**6),
        st.floats(0, 1e6),
        probabilities(),
        st.lists(
            st.one_of(
                st.sampled_from([Policy("mask_mandate"), Policy("lockdown")]),
                st.builds(Policy, st.just("free_masks"), subsidy=st.floats(0, 200)),
                st.builds(Policy, st.just("gathering_cap"), limit=st.integers(1, 200)),
                st.builds(Policy, st.just("mass_testing"), per_test_cost=st.floats(0, 1e3)),
                st.builds(
                    Policy, st.just("targeted_testing"),
                    per_test_cost=st.floats(0, 1e3), traced_fraction=probabilities(),
                ),
            ),
            max_size=3,
        ),
    )
    def test_mass_testing_is_targeted_testing_of_everyone(self, n, per_test_cost, revealed, preceding):
        mass = Policy("mass_testing", per_test_cost=per_test_cost)
        full = Policy("targeted_testing", per_test_cost=per_test_cost, traced_fraction=1.0)
        scenario = make_scenario(population=n, revealed_fraction=revealed)
        by_mass, _ = apply_policies(scenario, [*preceding, mass])
        by_full, _ = apply_policies(scenario, [*preceding, full])
        assert by_mass == by_full
        assert by_mass.testing_outlay.hex() == by_full.testing_outlay.hex()
        assert (evaluate_mechanism(scenario, [*preceding, mass], MODEL)
                == evaluate_mechanism(scenario, [*preceding, full], MODEL))

    def test_scenario_refuses_a_negative_outlay(self):
        with pytest.raises(ValueError, match="testing_outlay must be non-negative, got -1.0"):
            make_scenario(testing_outlay=-1.0)

    def test_an_overflowing_spend_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^testing_outlay is inf: "):
            apply_policies(make_scenario(), [Policy("mass_testing", per_test_cost=1e306)])


class TestDesignerCost:
    def test_zero_weights_zero_cost(self):
        assert designer_cost(5.0, 50_000.0, 100.0, DesignerCostModel(0, 0, 0)) == 0.0

    def test_linear_in_each_weight(self):
        base = designer_cost(3.0, 200.0, 7.0, DesignerCostModel(1, 1, 1))
        per_weight = {
            DesignerCostModel(2, 1, 1): 3.0,
            DesignerCostModel(1, 2, 1): 200.0,
            DesignerCostModel(1, 1, 2): 7.0,
        }
        for model, delta in per_weight.items():
            assert designer_cost(3.0, 200.0, 7.0, model) - base == pytest.approx(delta)

    def test_a_report_weighs_its_own_columns(self):
        policies = [Policy("mass_testing", per_test_cost=2.0), Policy("gathering_cap", limit=5)]
        report = evaluate_mechanism(_top_of_window_scenario(), policies, MODEL)
        assert report.testing_outlay > 0 and report.suppressed_benefit > 0
        assert report.designer_cost == designer_cost(
            report.expected_infections, report.testing_outlay, report.suppressed_benefit, MODEL
        )

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError, match="weight_test"):
            DesignerCostModel(1, -1, 1)


class TestEvaluateMechanism:
    def test_empty_policy_list_is_the_unpoliced_baseline(self):
        scenario = make_scenario()
        report = evaluate_mechanism(scenario, [], MODEL)
        assert report.warnings == ()
        assert report.citizen_outcome.decision is Decision.GO
        assert report.testing_outlay == 0.0
        assert report == evaluate_mechanism(scenario, [], MODEL)

    def test_lockdown_keeps_everyone_home(self):
        scenario = make_scenario()
        report = evaluate_mechanism(scenario, [Policy("lockdown")], MODEL)
        assert report.citizen_outcome.decision is Decision.STAY
        assert report.expected_infections == 0.0
        assert report.social_cost == scenario.population * scenario.cost_fn(
            scenario.meeting_domain.z_min
        )
        assert report.suppressed_benefit > 0.0
        assert report.designer_cost == pytest.approx(
            MODEL.weight_economic * report.suppressed_benefit
        )

    def test_lockdown_charges_the_forgone_benefit_to_the_designer(self):
        scenario = make_scenario()
        baseline = evaluate_mechanism(scenario, [], MODEL)
        z_star = baseline.citizen_outcome.z_star
        report = evaluate_mechanism(scenario, [Policy("lockdown")], MODEL)
        assert report.suppressed_benefit == pytest.approx(
            scenario.population * scenario.benefit_fn(z_star)
        )

    def test_mass_testing_of_susceptibles_plays_maskless(self):
        scenario = make_scenario(bayesian=BayesianSetting(0.0, 0.5))
        report = evaluate_mechanism(scenario, [Policy("mass_testing", per_test_cost=50.0)], MODEL)
        outcome = report.citizen_outcome
        assert outcome.revealed_susceptible_action == "no"
        assert outcome.revealed_infected_action is None
        assert outcome.unrevealed_action is None
        assert report.testing_outlay == 50.0 * scenario.population

    def test_revealed_susceptibles_wear_in_masks_when_risk_exists(self):
        report = evaluate_mechanism(make_scenario(), [Policy("mass_testing", per_test_cost=50.0)], MODEL)
        outcome = report.citizen_outcome
        assert outcome.revealed_susceptible_action == "in"
        assert outcome.revealed_infected_action == "no"

    @settings(max_examples=200, deadline=None)
    @example(MaskCosts(1.0, 10.0, 100.0, 1000.0), 100.0, 0.5, False)  # free masks: c_out = c_use = 0
    @example(MaskCosts(1.0, 10.0, 100.0, 1000.0), 0.0, 0.0, False)
    @given(
        mask_costs_with_gaps(),
        st.one_of(st.just(0.0), st.floats(0, 2000)),
        st.one_of(st.sampled_from([0.0, 1.0]), probabilities()),
        st.booleans(),
    )
    def test_revealed_play_is_the_pessimistic_pure_equilibrium(self, costs, subsidy, rho, mandate):
        # the equilibrium of highest total cost, the first in table order among ties
        def pessimistic(game):
            worst = max(pure_nash_equilibria(game), key=lambda p: sum(game.pair(*p)))
            return game.profile_labels(worst)

        scenario = make_scenario(
            mask_costs=costs, bayesian=BayesianSetting(rho, 0.5), meeting_domain=MeetingDomain(0.1, 100, 1)
        )
        policies = [Policy("free_masks", subsidy=subsidy), Policy("mass_testing", per_test_cost=50.0)]
        if mandate:
            policies.append(Policy("mask_mandate"))
        outcome = evaluate_mechanism(scenario, policies, MODEL).citizen_outcome
        assert outcome.decision is Decision.GO
        prices = apply_policies(scenario, [Policy("free_masks", subsidy=subsidy)])[0].mask_costs
        game = pair_game(S, HealthStatus.INFECTED if rho > 0 else S, prices)
        susceptible, infected = pessimistic(restrict(game, ["out"], ["out"]) if mandate else game)
        assert outcome.revealed_susceptible_action == (susceptible if rho < 1 else None)
        assert outcome.revealed_infected_action == (infected if rho > 0 else None)

    def test_mandate_forces_out_masks_on_everyone(self):
        report = evaluate_mechanism(make_scenario(), [Policy("mask_mandate")], MODEL)
        assert report.citizen_outcome.unrevealed_action == "out"

    def test_out_mask_protects_others_not_its_wearer(self):
        # a = 0 would make any self-protecting mask perfect, b = 1 makes
        # protecting others worthless; with masks too dear to wear by choice,
        # the mandate's out-mask then changes no infection, as in pair_game
        scenario = make_scenario(
            mask_costs=MaskCosts(1.0, 10.0, 999.0, 1000.0), efficiency=EfficiencyParams(0, 1)
        )
        laissez_faire = evaluate_mechanism(scenario, [], MODEL)
        mandate = evaluate_mechanism(scenario, [Policy("mask_mandate")], MODEL)
        assert laissez_faire.citizen_outcome.unrevealed_action == "no"
        assert laissez_faire.expected_infections > 0
        assert mandate.expected_infections == laissez_faire.expected_infections

    def test_binding_gathering_cap_bounds_the_exposure(self):
        # pure linear stakes push the optimum to the top of the window; a
        # modest life value keeps the go decision in play
        scenario = _top_of_window_scenario()
        unbound = evaluate_mechanism(scenario, [], MODEL)
        assert unbound.citizen_outcome.z_star == 100.0
        capped = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=5)], MODEL)
        assert capped.citizen_outcome.decision is Decision.GO
        assert capped.citizen_outcome.z_star == 5.0
        assert capped.expected_infections < unbound.expected_infections
        # the designer pays the benefit the cap takes away: n * (B(100) - B(5))
        assert capped.suppressed_benefit == 1000 * (1000.0 - 50.0)

    def test_a_cap_at_z_min_fits_no_meeting(self):
        scenario = _top_of_window_scenario().replace(meeting_domain=MeetingDomain(5, 100, 500))
        capped = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=5)], MODEL)
        locked = evaluate_mechanism(scenario, [Policy("lockdown")], MODEL)
        assert capped.citizen_outcome.decision is Decision.STAY
        assert capped == locked

    def test_non_binding_cap_changes_nothing_but_annotations(self):
        scenario = make_scenario()
        baseline = evaluate_mechanism(scenario, [], MODEL)
        capped = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=10)], MODEL)
        assert capped.citizen_outcome == baseline.citizen_outcome
        assert capped == baseline

    @given(st.integers(1, 120))
    def test_reported_exposure_never_exceeds_the_cap(self, limit):
        scenario = _top_of_window_scenario()
        report = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=limit)], MODEL)
        outcome = report.citizen_outcome
        if outcome.decision is Decision.GO:
            assert scenario.meeting_domain.z_min <= outcome.z_star <= limit

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(1, 50).map(float), st.floats(0.1, 50)),  # an integer z_min can equal a cap
        st.floats(1, 50),
        st.floats(0, 100),
        st.floats(0, 10),
        st.floats(0, 1.5),
        st.integers(0, 110),
    )
    def test_a_cap_bounds_z_and_nothing_else(self, z_min, width, slope, intercept, share, limit):
        # no home cost puts the free optimum at z_max for most stakes; the life
        # value is a share of the stakes there, so citizens often go out
        rho, m = 0.0077, 0.034
        domain = MeetingDomain(z_min, min(100.0, z_min + width), 60)
        benefit, cost = CostBenefitFunction.linear(slope, intercept), CostBenefitFunction.constant(0)
        life = share * z_objective(domain.z_max, benefit, cost, rho, m)
        scenario = make_scenario(
            benefit_fn=benefit, cost_fn=cost, distancing=DistancingParams(3000, 500, m, life, rho),
            meeting_domain=domain,
        )
        free = evaluate_mechanism(scenario, [], MODEL)
        capped = evaluate_mechanism(scenario, [Policy("gathering_cap", limit=limit)] if limit else [], MODEL)
        outcome = capped.citizen_outcome
        if free.citizen_outcome.decision is Decision.STAY or limit == 0 or limit >= free.citizen_outcome.z_star:
            # a cap at or above the free optimum leaves every aggregate bit-identical
            assert outcome == free.citizen_outcome
            assert [repr(getattr(capped, name)) for name in _AGGREGATES] == [
                repr(getattr(free, name)) for name in _AGGREGATES
            ]
        elif limit <= z_min:
            # no meeting fits the cap: the lockdown report
            locked = evaluate_mechanism(scenario, [Policy("lockdown")], MODEL)
            assert outcome == locked.citizen_outcome
            assert [getattr(capped, name) for name in _AGGREGATES] == [
                getattr(locked, name) for name in _AGGREGATES
            ]
        else:
            # a binding cap re-optimizes on [z_min, k]
            optimum = optimal_meeting(benefit, cost, rho, m, domain.replace(z_max=float(limit)))
            if optimum.value > life:
                assert (outcome.decision, outcome.z_star) == (Decision.GO, optimum.z_star)
            else:
                assert outcome.decision is Decision.STAY

    def test_infections_stay_within_the_population(self):
        report = evaluate_mechanism(make_scenario(), [], MODEL)
        assert 0 <= report.expected_infections <= 1000
        assert report.social_cost >= 0 and report.designer_cost >= 0

    def test_masks_reduce_expected_infections(self):
        # baseline citizens wear (100 < 125 threshold); tripling the mask
        # price flips them to maskless and infections rise
        wearing = evaluate_mechanism(make_scenario(), [], MODEL)
        maskless = evaluate_mechanism(
            make_scenario(mask_costs=MaskCosts(1.0, 10.0, 300.0, 1000.0)), [], MODEL
        )
        assert wearing.citizen_outcome.unrevealed_action == "use"
        assert maskless.citizen_outcome.unrevealed_action == "no"
        assert wearing.expected_infections < maskless.expected_infections


def _report(designer, social):
    outcome = CitizenOutcome(Decision.STAY, None, None, None, None)
    return MechanismReport(outcome, 0.0, social, designer, 0.0, 0.0, ())


class TestComparePolicies:
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 5.0])), max_size=12))
    def test_rank_is_the_stable_sort_by_designer_then_social_cost(self, costs):
        order = rank([_report(designer, social) for designer, social in costs])
        assert sorted(order) == list(range(len(costs)))
        for k, m in zip(order, order[1:]):
            assert costs[k] < costs[m] or (costs[k] == costs[m] and k < m)

    def test_compare_policies_pairs_each_set_with_its_report_in_rank_order(self):
        cap, lockdown = Policy("gathering_cap", limit=5), Policy("lockdown")
        sets = [[], [lockdown], [Policy("mask_mandate")], [], [cap, lockdown], [lockdown, cap],
                [Policy("free_masks", subsidy=100.0)], [lockdown]]
        reports = [evaluate_mechanism(make_scenario(), policies, MODEL) for policies in sets]
        assert rank(reports) != list(range(len(sets)))
        expected = [(tuple(sets[k]), reports[k]) for k in rank(reports)]
        assert compare_policies(make_scenario(), sets, MODEL) == expected
        assert compare_policies(make_scenario(), iter(sets), MODEL) == expected

    def test_single_set_gives_singleton_ranking(self):
        ranked = compare_policies(make_scenario(), [[Policy("lockdown")]], MODEL)
        assert len(ranked) == 1
        assert ranked[0][0] == (Policy("lockdown"),)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_policies(make_scenario(), [], MODEL)

    def test_mandate_costs_more_socially_than_laissez_faire(self):
        # two susceptible-style population: nobody would wear voluntarily,
        # and the infection channel is negligible
        scenario = make_scenario(
            bayesian=BayesianSetting(0.0, 0.5),
            distancing=DistancingParams(3000, 500, 0.034, 11.3e6, 1e-6),
        )
        reports = {
            policies: report
            for policies, report in compare_policies(
                scenario, [[], [Policy("mask_mandate")]], MODEL
            )
        }
        assert reports[()].social_cost < reports[(Policy("mask_mandate"),)].social_cost

    def test_targeted_testing_beats_mass_testing_on_equal_infections(self):
        # with nobody infected and nobody wearing, infections match exactly
        scenario = make_scenario(bayesian=BayesianSetting(0.0, 0.0))
        mass = [Policy("mass_testing", per_test_cost=50.0)]
        targeted = [Policy("targeted_testing", per_test_cost=50.0, traced_fraction=0.1)]
        ranked = compare_policies(scenario, [mass, targeted], MODEL)
        reports = {policies: report for policies, report in ranked}
        assert (
            reports[tuple(mass)].expected_infections
            == reports[tuple(targeted)].expected_infections
        )
        assert ranked[0][0] == tuple(targeted)

    def test_ranking_is_a_deterministic_permutation(self):
        sets = [[], [Policy("lockdown")], [Policy("mask_mandate")], [Policy("free_masks", subsidy=100.0)]]
        first = compare_policies(make_scenario(), sets, MODEL)
        second = compare_policies(make_scenario(), sets, MODEL)
        assert first == second
        key = lambda policies: tuple(p.describe() for p in policies)
        assert sorted((ps for ps, _ in first), key=key) == sorted(
            (tuple(s) for s in sets), key=key
        )
        costs = [report.designer_cost for _, report in first]
        assert costs == sorted(costs)


class TestScenarioType:
    def test_population_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="population"):
            make_scenario(population=1)
