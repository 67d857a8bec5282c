"""The package's public names all resolve."""

import morsecontrol


def test_all_names_resolve():
    missing = [name for name in morsecontrol.__all__ if not hasattr(morsecontrol, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from morsecontrol import *", namespace)
    assert set(morsecontrol.__all__) <= set(namespace)
