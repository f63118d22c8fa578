import random

import networkx as nx
import pytest

from minranklab.graphio import (
    digraph_from_edge_text,
    digraph_to_edge_text,
    graph_from_graph6,
    graph_to_graph6,
    read_digraph,
    read_graph6,
    write_digraph,
    write_graph6,
)
from minranklab.graphs import Digraph, Graph, complete_graph, cycle_graph


def random_graph(n, rng):
    return Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))


def test_known_strings():
    assert graph_to_graph6(complete_graph(3)) == "Bw"
    assert graph_to_graph6(cycle_graph(5)) == "Dhc"


def test_roundtrip_exhaustive_small():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            assert graph_from_graph6(graph_to_graph6(g)) == g


@pytest.mark.parametrize("n", [6, 7, 8, 30, 63, 100])
def test_roundtrip_sampled(n):
    rng = random.Random(n)
    for _ in range(6):
        g = random_graph(n, rng)
        assert graph_from_graph6(graph_to_graph6(g)) == g


def test_matches_networkx_encoding():
    rng = random.Random(5)
    for n in (1, 5, 9, 63, 70):
        g = random_graph(n, rng)
        nxg = nx.empty_graph(n)
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert graph_to_graph6(g) == theirs
        decoded = nx.from_graph6_bytes(graph_to_graph6(g).encode())
        assert sorted(map(tuple, decoded.edges())) == sorted(g.edges())


def test_decoder_accepts_header_and_rejects_junk():
    assert graph_from_graph6(">>graph6<<Bw") == complete_graph(3)
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("B")  # truncated body


def test_digraph_text_roundtrip():
    d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 1)])
    text = digraph_to_edge_text(d)
    assert text.splitlines()[0] == "4 4"
    assert digraph_from_edge_text(text) == d


def test_digraph_text_validation():
    with pytest.raises(ValueError):
        digraph_from_edge_text("")
    with pytest.raises(ValueError):
        digraph_from_edge_text("2 1\n")  # promised arc missing
    with pytest.raises(ValueError):
        digraph_from_edge_text("2 1\n0 2\n")  # vertex out of range
    with pytest.raises(ValueError, match=r"^arc \(0,1\) is listed twice$"):
        digraph_from_edge_text("3 3\n0 1\n0 1\n1 2\n")


def test_file_helpers(tmp_path):
    g = cycle_graph(6)
    gpath = tmp_path / "c6.g6"
    write_graph6(g, str(gpath))
    assert read_graph6(str(gpath)) == g
    gpath.write_text("\n  \n" + gpath.read_text())  # leading blank lines
    assert read_graph6(str(gpath)) == g
    d = Digraph.from_arcs(3, [(0, 1), (2, 0)])
    dpath = tmp_path / "d.edges"
    write_digraph(d, str(dpath))
    assert read_digraph(str(dpath)) == d
