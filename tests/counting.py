"""One counting helper for the tests that bound how many tower operations a
call makes: counts, not timings, so the bounds hold on any machine."""

from maxflex.fields import TowerElement

#: The ``TowerElement`` methods counted under each key.  ``__rmul__`` is
#: ``__mul__``, so a product counts once whichever operand starts it.
ELEMENT_METHODS = {
    "products": ("__mul__", "__rmul__"),
    "inverses": ("invert",),
    "zero tests": ("is_zero",),
}


def _counted(count, key, method):
    def wrapper(*args, **kwargs):
        count[key] += 1
        return method(*args, **kwargs)

    return wrapper


def count_calls(monkeypatch, keys, extra=()):
    """A dict from each key to the number of calls made from now on: a key of
    ``keys`` counts the ``TowerElement`` methods it names in
    ``ELEMENT_METHODS``, and a ``(key, owner, name)`` of ``extra`` counts the
    method ``name`` of ``owner``."""
    targets = [(key, TowerElement, name) for key in keys for name in ELEMENT_METHODS[key]]
    count = {}
    for key, owner, name in targets + list(extra):
        count[key] = 0
        monkeypatch.setattr(owner, name, _counted(count, key, getattr(owner, name)))
    return count
