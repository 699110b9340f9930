"""The package's export list against what the package holds."""
import inspect

import pseudoherm


def test_every_exported_name_resolves():
    assert pseudoherm.__all__ == sorted(set(pseudoherm.__all__))
    missing = [name for name in pseudoherm.__all__ if not hasattr(pseudoherm, name)]
    assert missing == []


def test_every_imported_class_and_function_is_exported():
    # a name removed from a module must leave __init__ and __all__ together
    public = [
        name for name, obj in vars(pseudoherm).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__.startswith("pseudoherm.")
    ]
    assert public
    assert sorted(set(public) - set(pseudoherm.__all__)) == []
