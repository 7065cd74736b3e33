import importlib

import zerosheet

MODULES = ["errors", "image", "zpoly", "search", "restore"]


def test_package_exports_each_module_name_once():
    # the package's public names are its modules' __all__ lists, joined
    names = [n for m in MODULES for n in importlib.import_module(f"zerosheet.{m}").__all__]
    assert zerosheet.__all__ == ["__version__", *names]
    assert len(set(zerosheet.__all__)) == len(zerosheet.__all__)
    for m in MODULES:
        module = importlib.import_module(f"zerosheet.{m}")
        for name in module.__all__:
            assert getattr(zerosheet, name) is getattr(module, name), f"{m}.{name}"
