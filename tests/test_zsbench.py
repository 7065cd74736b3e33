import runpy
from pathlib import Path

from helpers import exact_model

import zerosheet
import zerosheet.cli  # noqa: F401  (binds every module the tracer wraps)

LAYERS = Path(__file__).resolve().parents[1] / "zsbench" / "layers.py"


def test_traced_names_exist():
    # the traced benchmark run replaces these names on the program's modules
    # by getattr/setattr, so each must still be bound where it is listed
    wrapped = runpy.run_path(str(LAYERS))["WRAPPED"]
    missing = [
        f"zerosheet.{module_name}.{name}"
        for module_name, names in wrapped.items()
        for name in names
        if not callable(getattr(getattr(zerosheet, module_name, None), name, None))
    ]
    assert missing == []


def test_traced_search_names_called(monkeypatch):
    # a traced layer reads zero when the search stops calling its name
    # through the module, so one search that accepts must call every one
    calls = {name: 0 for name in runpy.run_path(str(LAYERS))["WRAPPED"]["search"]}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(zerosheet.search, name, counting(name, getattr(zerosheet.search, name)))
    _, _, g = exact_model(seed=3, fw=12, fh=12, m=2, n=2)
    rep = zerosheet.search_image(g, zerosheet.SearchConfig(blur_m=2, blur_n=2))
    assert rep.best is not None
    assert [name for name, count in calls.items() if count == 0] == []
