import importlib
import re
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
