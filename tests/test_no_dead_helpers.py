"""Every module-level function and class of the package's modules (the
coefficient core, the minimizer, the certificate layer, the CLI and the
error types) has a reader in the package.

A name counts as read when some code under `src/fockmin` refers to it, by
name or as a module attribute, outside its own definition and `__all__`.
Re-exports do not count: an import is not a reader.  Cross-checks that no
verdict reads belong with the tests, as oracles.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fockmin"
CHECKED = (
    "cli.py",
    "errors.py",
    "fock.py",
    "minimize.py",
    "spectra.py",
    "sturm.py",
)


def _is_all(statement) -> bool:
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _referenced(statement) -> set:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def defined_names(source: str) -> list:
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def unread_names(sources: dict, checked) -> list:
    """The module-level functions and classes of the `checked` modules that
    no top-level statement of any module in `sources` refers to, apart from
    their own definition and `__all__`."""
    trees = {name: ast.parse(text).body for name, text in sources.items()}
    unread = []
    for module in checked:
        for name in defined_names(sources[module]):
            readers = (
                statement
                for body in trees.values()
                for statement in body
                if not _is_all(statement) and getattr(statement, "name", None) != name
            )
            if not any(name in _referenced(statement) for statement in readers):
                unread.append(f"{module}:{name}")
    return unread


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_certificate_helper_has_a_reader():
    assert unread_names(package_sources(), CHECKED) == []


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(
            "\n\ndef certificate_json(cert):\n    return {'j': cert.j}\n",
            id="certificate_json",
        ),
        pytest.param("\n\nclass Unused:\n    pass\n", id="class"),
        pytest.param(
            "\n\ndef _recursive(n):\n    return _recursive(n - 1) if n else 0\n",
            id="self-reference",
        ),
    ],
)
def test_an_unread_helper_fails(extra):
    sources = package_sources()
    sources["sturm.py"] += extra
    name = ast.parse(extra).body[0].name
    assert unread_names(sources, CHECKED) == [f"sturm.py:{name}"]


def test_a_re_export_is_not_a_reader():
    sources = package_sources()
    sources["sturm.py"] += "\n\ndef certificate_json(cert):\n    return {}\n"
    sources["sturm.py"] = sources["sturm.py"].replace(
        '__all__ = [\n', '__all__ = [\n    "certificate_json",\n'
    )
    sources["__init__.py"] += "\nfrom .sturm import certificate_json\n"
    assert unread_names(sources, CHECKED) == ["sturm.py:certificate_json"]


def test_a_restored_gradient_helper_fails():
    # minimize.wirtinger_gradient as it stood before it moved to the tests,
    # with its __all__ entry and its package re-export
    sources = package_sources()
    sources["minimize.py"] = sources["minimize.py"].replace(
        '__all__ = [\n', '__all__ = [\n    "wirtinger_gradient",\n'
    ) + (
        "\n\ndef wirtinger_gradient(u, mu):\n"
        "    _, grad = energy_kernel(u.truncation).value_and_gradient(u.coeffs, mu)\n"
        "    return grad\n"
    )
    sources["__init__.py"] += "\nfrom .minimize import wirtinger_gradient\n"
    assert unread_names(sources, CHECKED) == ["minimize.py:wirtinger_gradient"]
