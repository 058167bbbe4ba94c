"""Package metadata agrees with the importable package, a run loads only
the modules it calls, no file imports a name it never reads, and each
search default is written once."""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import qvpn
from qvpn import allocation_lp, ga_optimizer, harness, pathfinding, rl_optimizer

from qvpn_helpers import fresh_python

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_version_matches_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None, "pyproject.toml [project] has no version"
    assert match.group(1) == qvpn.__version__


def test_import_leaves_the_cli_and_process_machinery_unloaded(tmp_path):
    # every benchmark's setup_s includes `import qvpn`; the CLI (and argparse
    # with it) loads only when a command needs it, and no run loads
    # multiprocessing (children fork through os.fork)
    assert fresh_python("""
        import json, sys, qvpn
        print(json.dumps(sorted(m for m in sys.modules
                                if m in ("multiprocessing", "argparse", "qvpn.cli"))))
        """, tmp_path) == []


def test_searches_load_neither_scipy_nor_numpy_ma(tmp_path):
    # each loaded module costs every run memory: the HiGHS binding is found
    # without importing scipy's package, no call needs numpy's masked arrays,
    # and a forked GA or sweep forks through os.fork, without multiprocessing
    # and the subprocess and socket modules it loads
    assert fresh_python("""
        import json, sys
        import qvpn
        from qvpn import allocation_lp, ga_optimizer, harness, rl_optimizer
        from qvpn.fixtures import TOPOLOGY_10, bundled_topology
        from qvpn.pathfinding import build_candidate_sets
        from qvpn.quantum_math import default_strategy_catalog
        from qvpn.workload import WorkloadParams, generate_workload

        graph = bundled_topology(TOPOLOGY_10)
        wl = generate_workload(graph, WorkloadParams(num_orgs=2, pairs_per_org=3, r_min=0.0), 1)
        catalog = default_strategy_catalog(4)
        candidates = build_candidate_sets(graph, wl, k=2)
        compiler = allocation_lp.LpCompiler(graph, wl)
        solved = compiler.solve(compiler.column_ids(
            {key: [(paths[0], catalog[0])] for key, paths in candidates.items() if paths}))
        ga_problem = ga_optimizer.GaProblem(graph, wl, candidates, catalog)
        ga_optimizer._usable_cpus = lambda: 2  # the helper route on any machine
        ga_config = ga_optimizer.GaConfig(population_size=6, generations=2)
        evolved = ga_optimizer.evolve(ga_optimizer.initialize_population(ga_problem, ga_config),
                                      ga_config, ga_problem)
        problem = rl_optimizer.RlProblem(wl, candidates, catalog[0])
        rl_optimizer.train(rl_optimizer.PolicyNetwork.init(problem, hidden=(8,)), problem,
                           rl_optimizer.TrainConfig(epochs=1, batch_size=2),
                           rl_optimizer.cached_reward(compiler))
        swept = harness.run_scenario(harness.Scenario(
            name="two", graph=graph, workload_params=WorkloadParams(num_orgs=1, r_min=0.0),
            sweep_axis="pairs_per_org", sweep_values=(2, 3), catalog=tuple(catalog)),
            max_workers=2)
        print(json.dumps([solved.status, evolved.fitness_helper, [p.status for p in swept.points],
                          sorted(m for m in sys.modules if m in (
                              "scipy", "numpy.ma", "multiprocessing", "subprocess", "socket"))]))
        """, tmp_path) == ["optimal", True, ["optimal", "optimal"], []]


def _unused_imports(path):
    """(line, name) of every name path imports and never reads. An import
    whose statement carries `# noqa` is exempt, as is __future__."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_file_imports_a_name_it_never_reads():
    # a package __init__ imports to re-export, so it is left out
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path)]
    assert found == []


def _default_expression(function, name):
    """The source expression of parameter name's default in function."""
    args = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0].args
    positional = args.posonlyargs + args.args
    pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
             *zip(args.kwonlyargs, args.kw_defaults)]
    return next(default for arg, default in pairs if arg.arg == name)


def test_each_search_default_is_its_owners_constant():
    # k and p_max are pathfinding's, the policy widths rl_optimizer's; every
    # library default names the constant (an equal literal would pass an
    # identity check on a small int), and harness, and with it the CLI,
    # re-exports the same object
    owners = {"DEFAULT_K": pathfinding, "DEFAULT_P_MAX": pathfinding,
              "DEFAULT_HIDDEN": rl_optimizer}
    defaults = [
        (allocation_lp.LpCompiler.__init__, "p_max", "DEFAULT_P_MAX"),
        (allocation_lp.build_problem, "p_max", "DEFAULT_P_MAX"),
        (ga_optimizer.GaProblem.__init__, "p_max", "DEFAULT_P_MAX"),
        (rl_optimizer.RlProblem.__init__, "p_max", "DEFAULT_P_MAX"),
        (pathfinding.build_candidate_set, "k", "DEFAULT_K"),
        (pathfinding.build_candidate_sets, "k", "DEFAULT_K"),
        (pathfinding.baseline_selection, "p_max", "DEFAULT_P_MAX"),
        (rl_optimizer.PolicyNetwork.init, "hidden", "DEFAULT_HIDDEN"),
        (harness.search, "hidden", "DEFAULT_HIDDEN"),
    ]
    for function, name, constant in defaults:
        owned = getattr(owners[constant], constant)
        assert inspect.signature(function).parameters[name].default is owned, function
        expression = _default_expression(function, name)
        assert isinstance(expression, ast.Name) and expression.id == constant, function
    body = ast.parse(inspect.getsource(harness.Scenario)).body[0].body
    scenario = {node.target.id: node.value for node in body if isinstance(node, ast.AnnAssign)}
    assert [getattr(scenario[name], "id", None) for name in ("k", "p_max")] == \
        ["DEFAULT_K", "DEFAULT_P_MAX"]
    for constant, owner in owners.items():
        assert getattr(harness, constant) is getattr(owner, constant)
