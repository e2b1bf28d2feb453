import numpy as np
import pytest

from polyroute.cli import generate_mesh
from polyroute.tables import preprocess_mesh


@pytest.fixture(scope="session")
def tetra():
    return generate_mesh("tetra")


@pytest.fixture(scope="session")
def cube():
    return generate_mesh("cube")


@pytest.fixture(scope="session")
def octa():
    return generate_mesh("octa")


@pytest.fixture(scope="session")
def sphere50():
    return generate_mesh("sphere", 50, 0)


@pytest.fixture(scope="session")
def sphere100():
    return generate_mesh("sphere", 100, 0)


@pytest.fixture(scope="session")
def hulls300():
    return [generate_mesh("sphere", 300, seed) for seed in range(5)]


@pytest.fixture(scope="session")
def tetra_system(tetra):
    return preprocess_mesh(tetra, 0.5)


@pytest.fixture(scope="session")
def cube_system(cube):
    return preprocess_mesh(cube, 0.5)


@pytest.fixture(scope="session")
def octa_system(octa):
    return preprocess_mesh(octa, 0.5)


@pytest.fixture(scope="session")
def sphere50_system(sphere50):
    return preprocess_mesh(sphere50, 0.3)


def other_face(P, f, u, v):
    """The face across edge (u, v) from face f."""
    a, b = P.edge_adjacency[(min(u, v), max(u, v))]
    return b if a == f else a


def random_pairs(n, count, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            pairs.append((a, b))
    return pairs


def routed_graph_positions(system):
    """The 2D position of every spanner node in each of its patch frames,
    from a re-run of the Steiner placement on the system's own stages. The
    re-run must yield the edges of the graph that routing uses."""
    from polyroute.patching import build_sketch, project_patch
    from polyroute.spanner import assemble_global_spanner, place_steiner_points

    sketch = build_sketch(system.P, system.decomp, system.P.diameter())
    projections = {p.id: project_patch(system.P, p) for p in system.decomp.patches}
    nodes, positions = place_steiner_points(system.P, system.decomp, sketch,
                                            system.assignment, projections, system.eps)
    rebuilt = assemble_global_spanner(nodes, positions, system.eps).edges
    assert rebuilt.tobytes() == system.graph.edges.tobytes()
    return positions
