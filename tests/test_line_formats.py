"""The four line-format documents (topology, workload, selection, strategy
catalog) share one reader, checks.records, and one number parse,
checks.number: each round-trips through its saver, ids may be the formats'
keywords, a comment may come before the header, and a bad number, whether
it does not parse or is out of its range, names its line."""

import pytest

from qvpn.checks import InputError
from qvpn.fixtures import (CATALOG_16, TOPOLOGY_10, TOPOLOGY_50, bundled_catalog,
                           bundled_topology)
from qvpn.ga_optimizer import GaConfig
from qvpn.harness import load_selection, save_selection, search
from qvpn.quantum_math import default_strategy_catalog, load_strategy_catalog, \
    save_strategy_catalog
from qvpn.topology import load_topology, save_topology
from qvpn.workload import WorkloadParams, generate_workload, load_workload, save_workload

KEYWORDS = ("node", "link", "param", "repeater", "org", "pair", "seed", "select", "path",
            "threshold", "max_rounds")

# a chain over nodes named after every keyword, in KEYWORDS order
KEYWORD_TOPOLOGY = "\n".join(
    ["# every id is a keyword", "qvpn-topology v1", "param T 2e-06"]
    + [f"node {name}" for name in KEYWORDS if name != "repeater"]
    + ["node repeater 1.5 -2.0 repeater"]
    + [f"link {a} {b} 10.0 multiplex=2" for a, b in zip(KEYWORDS, KEYWORDS[1:])]) + "\n"
KEYWORD_GRAPH = load_topology(KEYWORD_TOPOLOGY)

KEYWORD_WORKLOAD = """# every id is a keyword
qvpn-workload v1
seed 7
org org 0.5
org pair 1.0  # a second tenant
pair org node link 0.5 0.8 0.0 10.0
pair pair seed pair 0.4 0.85 1.0 inf
pair pair path threshold 0.6 0.9 0.0 100.0
"""

KEYWORD_SELECTION = """# every id is a keyword
qvpn-selection v1
select threshold path max_rounds path path threshold max_rounds threshold 0.9 max_rounds 5
select select param select path param repeater org pair seed select threshold 0.95 max_rounds 3
"""

KEYWORD_CATALOG = """# no ids here; a comment still may lead
0.85
0.9  # the middle one
0.95
"""


NOT_A_NUMBER = " is not (a number|an integer)"


def _on(graph, load):
    """load(text, graph) as a one-argument loader."""
    return lambda text: load(text, graph)


def _topology_case():
    keywords = load_topology(KEYWORD_TOPOLOGY)
    assert keywords.node_by_id["repeater"].is_repeater
    assert keywords.link_by_key[("link", "node")].multiplex == 2
    return (save_topology,
            [(load_topology, bundled_topology(TOPOLOGY_10)),
             (load_topology, bundled_topology(TOPOLOGY_50)), (load_topology, keywords)],
            load_topology,
            [("qvpn-topology v1\nnode A\n# gap\nnode B\nlink A B ten\n", 5, NOT_A_NUMBER),
             ("qvpn-topology v1\nnode A\nnode B\nlink A B 10.0 alpha=2\n", 4, "")])


def _workload_case():
    net50 = bundled_topology(TOPOLOGY_50)
    generated = generate_workload(net50, WorkloadParams(num_orgs=3, pairs_per_org=10), seed=3)
    on_keywords = _on(KEYWORD_GRAPH, load_workload)
    keywords = on_keywords(KEYWORD_WORKLOAD)
    assert [p.key for p in keywords.user_pairs] == [
        ("org", "node", "link"), ("pair", "seed", "pair"), ("pair", "path", "threshold")]
    return (save_workload, [(_on(net50, load_workload), generated), (on_keywords, keywords)],
            on_keywords,
            [("qvpn-workload v1\norg org 1.0\npair org node link 0.5 0.8 0.0 lots\n", 3,
              NOT_A_NUMBER),
             ("qvpn-workload v1\n# weights are above 0\norg org -1\n", 3, ""),
             ("qvpn-workload v1\norg org 1\norg pair 1\norg org 2\n", 4,
              "duplicate organization id 'org'"),
             ("qvpn-workload v1\norg org 1.0\npair org node link 0.5 0.8 0.0 10.0\n"
              "pair org link seed 0.5 0.8 0.0 10.0\npair org node link 0.4 0.8 0.0 10.0\n",
              5, "duplicate pair"),
             ("qvpn-workload v1\npair org node link 0.5 0.8 0.0 10.0\norg org 1.0\n"
              "pair pair node link 0.5 0.8 0.0 10.0\n", 4, "unknown org 'pair'")])


def _selection_case():
    net10 = bundled_topology(TOPOLOGY_10)
    workload = generate_workload(net10, WorkloadParams(num_orgs=2, pairs_per_org=4), seed=1)
    result = search(net10, workload, "ga", 0, k=3, p_max=2,
                    catalog=tuple(default_strategy_catalog()[:4]),
                    ga_config=GaConfig(population_size=6, generations=2))
    # a pair the GA leaves without a path has no line in the file
    chosen = {key: picks for key, picks in result.selection.items() if picks}
    on_keywords = _on(KEYWORD_GRAPH, load_selection)
    keywords = on_keywords(KEYWORD_SELECTION)
    [(path, strategy)] = keywords[("threshold", "path", "max_rounds")]
    assert path.nodes == ("path", "threshold", "max_rounds")
    assert (strategy.link_threshold, strategy.max_rounds) == (0.9, 5)
    return (save_selection, [(_on(net10, load_selection), chosen), (on_keywords, keywords)],
            on_keywords,
            [("# keyword graph\nqvpn-selection v1\n"
              "select org node link path node link threshold 0.9 max_rounds five\n", 3,
              NOT_A_NUMBER),
             ("qvpn-selection v1\n"
              "select org node link path node link threshold 0.2 max_rounds 5\n", 2, "")])


def _catalog_case():
    keywords = load_strategy_catalog(KEYWORD_CATALOG)
    assert [s.link_threshold for s in keywords] == [0.85, 0.9, 0.95]
    return (save_strategy_catalog,
            [(load_strategy_catalog, bundled_catalog(CATALOG_16)),
             (load_strategy_catalog, keywords)],
            load_strategy_catalog,
            [("0.8\n0.9\n\n0.9x5\n", 4, NOT_A_NUMBER), ("0.2\n0.9\n", 1, ""),
             ("# out of order\n0.9\n\n0.8\n0.85\n", 4, "")])


@pytest.mark.parametrize("case", [_topology_case, _workload_case, _selection_case,
                                  _catalog_case], ids=lambda case: case.__name__[1:-5])
def test_load_save_round_trip_and_errors_name_the_line(case):
    """load(save(x)) == x for bundled and generated inputs and for documents
    whose ids are keywords, each led by a comment; a number that does not
    parse, and one out of its range, names its line."""
    save, objects, load, bad_docs = case()
    for load_one, obj in objects:
        assert load_one(save(obj)) == obj
    for bad_doc, bad_line, error in bad_docs:
        with pytest.raises(InputError, match=f"^line {bad_line}: .*{error}"):
            load(bad_doc)
