"""Every input number is checked once, by the type or entry point that takes
it, and a broken rule raises InputError before any work is done."""

from fractions import Fraction
from numbers import Integral, Real

import numpy as np
import pytest

from qvpn import rl_optimizer as rl
from qvpn.checks import InputError, _is_number, check_int, check_real
from qvpn.ga_optimizer import GaConfig
from qvpn.harness import Scenario, search
from qvpn.pathfinding import PathFinder, build_candidate_sets
from qvpn.quantum_math import DistillationStrategy, NoiseParams, default_strategy_catalog
from qvpn.topology import TopologyError
from qvpn.workload import Organization, UserPair, WorkloadError, WorkloadParams

NAN, INF = float("nan"), float("inf")


def test_the_two_rules():
    assert check_int("n", 3) == 3
    assert check_int("n", np.int64(0), low=0) == 0
    assert check_real("x", 0) == 0
    assert check_real("x", np.float64(0.5), 0, 1, open_low=True, open_high=False) == 0.5
    assert check_real("x", INF, open_high=False) == INF
    for value in (True, False, 2.0, "3", None, 0):
        with pytest.raises(InputError, match=f"^n must be an integer >= 1, got {value!r}$"):
            check_int("n", value)
    for value in (True, NAN, INF, -INF, "0.5", None, -1e-300):
        with pytest.raises(InputError, match="^x must be a finite number >= 0, got "):
            check_real("x", value)
    with pytest.raises(InputError, match=r"^x must be a number in \(0.25, 1\), got 1$"):
        check_real("x", 1, 0.25, 1, open_low=True)
    with pytest.raises(InputError, match=r"^x must be a number in \[0, inf\], got nan$"):
        check_real("x", NAN, open_high=False)
    # the typed errors of the file formats and of the RL quota are input errors
    for error in (TopologyError, WorkloadError, rl.QuotaError):
        assert issubclass(error, InputError) and issubclass(InputError, ValueError)


@pytest.mark.parametrize("value", [
    0, 3, -2, 2**70, 0.5, -0.0, NAN, INF, True, False, np.int64(4), np.int32(-1),
    np.float64(0.25), np.float32(1.5), np.bool_(True), Fraction(1, 3), "1", None, 1j,
])
def test_number_rule_fast_path_agrees_with_the_abc_rule(value):
    # exact ints and floats skip the ABC check; every value must still get
    # the answer of isinstance(kind) without bools
    for kind in (Integral, Real):
        assert _is_number(value, kind) == (isinstance(value, kind)
                                           and not isinstance(value, bool))


@pytest.mark.parametrize("fields", [
    {"num_orgs": 0}, {"pairs_per_org": 0}, {"pairs_per_org": 2.5}, {"num_orgs": True},
    {"hop_cap": 0}, {"r_min": -1.0}, {"r_min": INF}, {"r_max": 0}, {"r_max": NAN},
    {"fidelity_range": (0.8,)}, {"org_weight_range": (0.1, NAN)},
    {"pair_weight_range": (0.3, True)}, {"random_r_max": 1},
])
def test_workload_params_refuse(fields):
    name = next(iter(fields))
    with pytest.raises(InputError, match=name):
        WorkloadParams(**fields)


def test_workload_params_hold_their_ranges_as_tuples():
    # a JSON list reprs like the default tuple, so the config hash keeps its bits
    params = WorkloadParams(fidelity_range=[0.8, 0.9])
    assert params.fidelity_range == (0.8, 0.9)
    assert repr(params) == repr(WorkloadParams(fidelity_range=(0.8, 0.9)))


@pytest.mark.parametrize("weight", [NAN, INF, -INF, 0.0, True, "1"])
def test_organization_and_pair_weights_refuse(weight):
    with pytest.raises(WorkloadError, match="weight"):
        Organization("o", weight)
    with pytest.raises(WorkloadError, match="weight"):
        UserPair("o", ("a", "b"), weight, 0.8, 0.0, 1.0)


@pytest.mark.parametrize("fields, text", [
    ({"link_threshold": 0.25}, "link threshold"), ({"link_threshold": NAN}, "link threshold"),
    ({"max_rounds": 2.5}, "max_rounds"), ({"max_rounds": True}, "max_rounds"),
    ({"max_rounds": 0}, "max_rounds"),
])
def test_distillation_strategy_refuses(fields, text):
    with pytest.raises(InputError, match=text):
        DistillationStrategy(**{"link_threshold": 0.9, **fields})


@pytest.mark.parametrize("name", ["two_qubit_gate_fidelity", "measurement_fidelity",
                                  "swap_success_prob"])
@pytest.mark.parametrize("value", [True, NAN, 0.0, 1.5])
def test_noise_params_refuse(name, value):
    with pytest.raises(InputError, match=name):
        NoiseParams(**{name: value})


@pytest.mark.parametrize("fields, text", [
    ({"sweep_axis": "pairs_per_org", "sweep_values": (0, 2)}, "pairs_per_org sweep value"),
    ({"sweep_axis": "strategy_count", "sweep_values": (1.5, 2)}, "strategy_count sweep value"),
    ({"sweep_axis": "r_max", "sweep_values": (NAN, 10.0)}, "r_max sweep value"),
    ({"sweep_axis": "r_max", "sweep_values": (0, 10.0)}, "r_max sweep value"),
    ({"seeds": (0.5,)}, "seeds"), ({"seeds": (-1,)}, "seeds"),
    ({"repetitions": 1.0, "seeds": (0,)}, "repetitions"),
    ({"catalog": ()}, "catalog is empty"),
    ({"baseline_threshold": NAN}, "baseline_threshold"),
    ({"optimizer": "ga", "ga_config": GaConfig(population_size=2)}, "population_size 2"),
])
def test_scenario_refuses(triangle, fields, text):
    with pytest.raises(InputError, match=text):
        Scenario(name="s", graph=triangle, workload_params=WorkloadParams(pairs_per_org=1),
                 **fields)


@pytest.mark.parametrize("optimizer", ["baseline-hop", "ga", "rl"])
@pytest.mark.parametrize("fields, text", [
    ({"catalog": ()}, "catalog is empty"),
    ({"baseline_threshold": NAN}, "baseline_threshold"),
    ({"baseline_threshold": -1}, "baseline_threshold"),
    ({"baseline_threshold": True}, "baseline_threshold"),
    ({"k": True}, "k must be"),
])
def test_search_refuses_before_any_path_search(triangle, one_pair_workload, optimizer,
                                                fields, text):
    finder = PathFinder(triangle)
    args = dict(k=3, p_max=2, catalog=default_strategy_catalog(4), finder=finder)
    with pytest.raises(InputError, match=text):
        search(triangle, one_pair_workload, optimizer, 0, **{**args, **fields})
    assert finder.queries == 0


def test_ga_search_population_must_hold_the_baselines(triangle, one_pair_workload):
    finder = PathFinder(triangle)
    with pytest.raises(InputError, match="population_size 2 cannot hold the 3"):
        search(triangle, one_pair_workload, "ga", 0, k=3, p_max=2,
               catalog=default_strategy_catalog(4), finder=finder,
               ga_config=GaConfig(population_size=2))
    assert finder.queries == 0


def test_rl_refuses_a_policy_made_for_other_blocks(triangle, one_pair_workload):
    # a policy for one layout trained or read against another would score the
    # wrong pairs' paths; it used to run silently, then fail with an IndexError
    strategy = default_strategy_catalog(4)[0]
    problems = [rl.RlProblem(one_pair_workload,
                             build_candidate_sets(triangle, one_pair_workload, k=k),
                             strategy, p_max=1) for k in (1, 2)]
    assert problems[0].block_slices != problems[1].block_slices
    policy = rl.PolicyNetwork.init(problems[0], hidden=(4,), seed=0)
    before = rl.save_policy(policy)
    with pytest.raises(InputError, match="logit blocks"):
        rl.train(policy, problems[1], rl.TrainConfig(epochs=1, batch_size=1),
                 lambda selection: pytest.fail("a reward was asked for"))
    with pytest.raises(InputError, match="logit blocks"):
        rl.greedy_selection(policy, problems[1])
    assert rl.save_policy(policy) == before
    with pytest.raises(InputError, match="hidden"):
        rl.PolicyNetwork.init(problems[0], hidden=(0,), seed=0)

