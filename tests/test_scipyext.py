"""The loader of scipy's compiled extension modules."""

import importlib.machinery
import importlib.util
import re

import pytest

from levyedge import scipyext


class TestLoad:
    @pytest.mark.parametrize("package,name", [("optimize", "_lsap"),
                                              ("special", "_special_ufuncs")])
    def test_no_extension_raises_import_error(self, tmp_path, monkeypatch, package, name):
        # no fallback import: a scipy without the compiled extension refuses,
        # naming the directory it searched, also when a Python module of
        # that name is there
        where = tmp_path / package
        where.mkdir()
        find_spec = importlib.util.find_spec
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda n, *a: fake if n == "scipy" else find_spec(n, *a))
        with pytest.raises(ImportError, match=f"in {re.escape(str(where))}$"):
            scipyext.load(package, name)
        (where / f"{name}.py").write_text("jv = linear_sum_assignment = None\n")
        with pytest.raises(ImportError, match=f"in {re.escape(str(where))}$"):
            scipyext.load(package, name)
