from functools import partial
from types import SimpleNamespace

import pytest


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) or spy(owner, (name, ...)): watch a module's attributes, or a dict's entries, for the test.

    Each named attribute (or entry) is wrapped so that it calls through,
    and the returned list gains one entry per call, in the order the calls
    begin (an outer call precedes the calls it makes), with ``name``,
    ``args``, ``kwargs`` and, once the call returns, ``result``.  Several
    names log into one list, so a test can group one function's calls by
    another's.
    """

    def watch(owner, names):
        log = []
        get, put = ((owner.__getitem__, monkeypatch.setitem) if isinstance(owner, dict)
                    else (partial(getattr, owner), monkeypatch.setattr))
        for name in (names,) if isinstance(names, str) else names:
            def wrapper(*args, _name=name, _original=get(name), **kwargs):
                call = SimpleNamespace(name=_name, args=args, kwargs=kwargs)
                log.append(call)
                call.result = _original(*args, **kwargs)
                return call.result

            put(owner, name, wrapper)
        return log

    return watch
