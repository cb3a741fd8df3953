"""The package root exports exactly what ``__all__`` lists."""

import inspect

import bringform


def test_all_lists_every_public_name_and_only_bound_ones():
    listed = set(bringform.__all__)
    assert len(listed) == len(bringform.__all__), "a name is listed twice"
    public = {n for n, v in vars(bringform).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public - listed == set(), "public but not listed"
    assert listed - public == set(), "listed but not bound, or a module"
