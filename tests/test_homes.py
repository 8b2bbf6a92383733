"""Each public name has one home: the submodule whose ``__all__`` lists it.

``secant_trees.__all__`` is composed from the ``__all__`` of the five
submodules (the list itself is pinned by ``test_surface.py``).  Here each
name is checked to be declared by exactly one of them, to be the object
that submodule defines, and to be the package's object too; and
``from secant_trees import *`` is checked to bind those names and no
submodule.
"""

import inspect
import pkgutil

import secant_trees
from secant_trees import bijections, distributions, recurrence, series, trees

SUBMODULES = (bijections, distributions, recurrence, series, trees)


def test_each_public_name_has_one_home_module():
    for name in secant_trees.__all__:
        homes = [m for m in SUBMODULES if name in m.__all__]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        home, obj = homes[0], getattr(secant_trees, name)
        assert getattr(home, name) is obj, name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, (name, obj.__module__)
        else:
            # A value has no __module__: its home is the one submodule that binds it.
            assert [m for m in SUBMODULES if vars(m).get(name) is obj] == [home], name
    assert sorted(n for m in SUBMODULES for n in m.__all__) == sorted(secant_trees.__all__)

    namespace: dict = {}
    exec("from secant_trees import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(secant_trees.__all__)
    assert not {m.name for m in pkgutil.iter_modules(secant_trees.__path__)} & set(namespace)
