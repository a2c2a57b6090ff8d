import pytest

from sigma_forge import chase
from sigma_forge.game import adjacency_matrix


@pytest.fixture
def fresh_matrices():
    """Empty the adjacency and backend caches around a test, so its
    matrices hold no stored kernel yet and a product game eliminates its
    axis factors again."""
    adjacency_matrix.cache_clear()
    chase._pick.cache_clear()
    chase._axis_echelon.cache_clear()
    yield
    adjacency_matrix.cache_clear()
    chase._pick.cache_clear()
    chase._axis_echelon.cache_clear()
