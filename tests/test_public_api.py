"""Public-API contract tests.

Guard rails for downstream users: every name promised by a package
``__all__`` must resolve, and every public symbol must carry a real
docstring.  A rename or a silently dropped export fails here before it
fails in someone's pipeline.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.frame",
    "repro.ml",
    "repro.hashing",
    "repro.operators",
    "repro.datasets",
    "repro.rl",
    "repro.core",
    "repro.baselines",
    "repro.bench",
    "repro.store",
    "repro.api",
    "repro.serve",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_package_has_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()

    def test_public_callables_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports without docstrings: {undocumented}"
        )


class TestPublicClassesDocumentMethods:
    @pytest.mark.parametrize(
        "cls_path",
        [
            "repro.frame.Frame",
            "repro.core.EAFE",
            "repro.core.FPEModel",
            "repro.core.FeatureTransformer",
            "repro.core.DownstreamEvaluator",
            "repro.hashing.SampleCompressor",
            "repro.rl.RecurrentPolicyAgent",
            "repro.rl.FeatureSpace",
            "repro.ml.RandomForestClassifier",
        ],
    )
    def test_public_methods_documented(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        undocumented = []
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, f"{cls_path} methods lack docs: {undocumented}"


class TestVersion:
    def test_version_string(self):
        import re
        from pathlib import Path

        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)
        # The installed package (setup.py) and the import agree.
        setup_py = Path(__file__).resolve().parents[1] / "setup.py"
        declared = re.search(r'version="([^"]+)"', setup_py.read_text()).group(1)
        assert declared == repro.__version__
