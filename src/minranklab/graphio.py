"""Graph serialization: graph6 for undirected graphs, edge-list text for digraphs.

graph6 is the standard header-less variant: vertex count, then the upper
triangle packed column by column into 6-bit printable characters. The digraph
format is "n m" on the first line followed by m lines "u v" (0-based).
"""

from __future__ import annotations

from .graphs import Digraph, Graph

_MAX_GRAPH6_N = 258047


def graph_to_graph6(g: Graph) -> str:
    if g.n > _MAX_GRAPH6_N:
        raise ValueError(f"graph6 encoder supports at most {_MAX_GRAPH6_N} vertices")
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr(((g.n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append((g.adj[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for pos in range(0, len(bits), 6):
        value = 0
        for b in bits[pos:pos + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return head + "".join(chars)


def graph_from_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == "~":
        if len(data) < 4 or data[1] == "~":
            raise ValueError("graph6 vertex counts above 258047 are unsupported")
        n = 0
        for ch in data[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = data[4:]
    else:
        n = ord(data[0]) - 63
        body = data[1:]
    if n < 0:
        raise ValueError("bad graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = []
    for ch in body:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"bad graph6 character {ch!r}")
        bits.extend(((value >> s) & 1 for s in range(5, -1, -1)))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    if any(bits[pos:]):
        raise ValueError("nonzero padding bits in graph6 body")
    return Graph.from_edges(n, edges)


def digraph_to_edge_text(d: Digraph) -> str:
    arcs = d.arcs()
    lines = [f"{d.n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


def digraph_from_edge_text(text: str) -> Digraph:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty edge-list text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} arcs, found {len(lines) - 1}")
    arcs: dict[tuple[int, int], None] = {}  # in line order
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise ValueError(f"bad arc line {line!r}") from exc
        if (u, v) in arcs:
            raise ValueError(f"arc ({u},{v}) is listed twice")
        arcs[u, v] = None
    return Digraph.from_arcs(n, arcs)


def write_graph6(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_graph6(g) + "\n")


def read_graph6(path: str) -> Graph:
    """The graph on the first nonblank line of a graph6 file."""
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_graph6(next((line for line in fh if line.strip()), ""))


def write_digraph(d: Digraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(digraph_to_edge_text(d))


def read_digraph(path: str) -> Digraph:
    with open(path, "r", encoding="ascii") as fh:
        return digraph_from_edge_text(fh.read())
