"""The package namespace: every exported name resolves."""

import spinring


def test_every_exported_name_resolves():
    # A stale entry breaks ``from spinring import *`` while ``import spinring`` works.
    missing = [name for name in spinring.__all__ if not hasattr(spinring, name)]
    assert missing == []
    assert len(set(spinring.__all__)) == len(spinring.__all__)


def test_star_import():
    namespace = {}
    exec("from spinring import *", namespace)
    assert set(spinring.__all__) <= set(namespace)
