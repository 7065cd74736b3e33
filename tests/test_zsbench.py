import runpy
from pathlib import Path

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
