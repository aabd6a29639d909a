from types import SimpleNamespace

import pytest


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name) or spy(module, (name, ...)): watch module attributes for the test.

    Each named attribute is wrapped so that it calls through, and the
    returned list gains one entry per call, in the order the calls begin
    (an outer call precedes the calls it makes), with ``name``, ``args``,
    ``kwargs`` and, once the call returns, ``result``.  Several names log
    into one list, so a test can group one function's calls by another's.
    """

    def watch(module, names):
        log = []
        for name in (names,) if isinstance(names, str) else names:
            def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
                call = SimpleNamespace(name=_name, args=args, kwargs=kwargs)
                log.append(call)
                call.result = _original(*args, **kwargs)
                return call.result

            monkeypatch.setattr(module, name, wrapper)
        return log

    return watch
