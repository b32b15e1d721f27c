from fuzzydes.graph import bfs

# a -> b -> c, and d on its own.
EDGES = {"a": [("x", "b")], "b": [("y", "c")], "c": [], "d": [("z", "a")]}


def neighbours(v):
    return EDGES[v]


class TestSearchPath:
    def test_labels_along_the_tree_path(self):
        search = bfs("a", neighbours)
        assert search.path("c") == ("x", "y")
        assert search.path("a") == ()

    def test_unreached_vertex_has_no_path(self):
        search = bfs("a", neighbours)
        assert "d" not in search.dist
        assert search.path("d") is None
