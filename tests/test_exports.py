"""The package's export list, fracburgers.__all__."""

import types

import fracburgers


def test_all_lists_every_public_attribute():
    """A name the package holds but does not export, or exports but does not
    hold, is caught here; a stale entry would break `from fracburgers import *`."""
    public = {name for name, value in vars(fracburgers).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(fracburgers.__all__)) == len(fracburgers.__all__) == 32
    assert set(fracburgers.__all__) == public


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from fracburgers import *", namespace)
    assert set(fracburgers.__all__) <= namespace.keys()


def test_nodes_exported_and_no_grid_object():
    """The grid is the function nodes(n); no grid type or builder is exported."""
    assert "nodes" in fracburgers.__all__
    assert [name for name in fracburgers.__all__ if "grid" in name.lower()] == []
