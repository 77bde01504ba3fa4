"""The package's star import binds exactly its declared exports.

The star import below runs at collection: a name in ``__all__`` that the
package no longer defines fails this module before any test runs.
"""

from inspect import ismodule

from equidim import *  # noqa: F401,F403
import equidim as package  # after the star import, which binds the function equidim


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from equidim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(package.__all__))
    assert len(set(package.__all__)) == len(package.__all__)


def test_every_public_name_is_exported():
    public = {name for name, value in vars(package).items()
              if not name.startswith("_") and not ismodule(value)}
    assert public == set(package.__all__)
