"""Every module-level function and class of the package's modules (the
coefficient core, the minimizer, the certificate layer, the CLI and the
error types) has a reader in the package, and so does every dataclass
field, property and method of their classes.

A name counts as read when some code under `src/fockmin` refers to it, by
name or as a module attribute, outside its own definition and `__all__`.
Re-exports do not count: an import is not a reader.  A field or property
counts as read when some attribute load `x.name` outside its own class
names it; a constructor keyword writes it and does not count.  A method
counts as read when some attribute load outside its own definition names
it, so a sibling method's call reads it and its own recursion does not;
dunders are the interpreter's, and a method that overrides one of a base
class is read by the base class's callers.  An attribute stored on `self`
counts as read when some attribute load in the package names it, or when
the code of a base class reads it.
Cross-checks that no verdict reads belong with the tests, as oracles.
"""

import ast
import importlib
import inspect
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


def _is_dataclass(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _class_members(body) -> list:
    """(class node, member node, name) of every dataclass field, property
    and method, dunders aside, of the top-level classes in `body`."""
    members = []
    for node in body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                members.append((node, item, item.target.id))
            elif isinstance(item, ast.FunctionDef) and not (
                item.name.startswith("__") and item.name.endswith("__")
            ):
                members.append((node, item, item.name))
    return members


def defined_members(source: str) -> list:
    """(class, name) of every dataclass field, property and method, dunders
    aside, of the module's top-level classes."""
    members = _class_members(ast.parse(source).body)
    return [(cls.name, name) for cls, _, name in members]


def _is_method(member) -> bool:
    return isinstance(member, ast.FunctionDef) and not any(
        getattr(d, "id", None) == "property" for d in member.decorator_list
    )


def _overrides(module: str, cls: str, name: str) -> bool:
    """Whether the imported class `cls` of `module` inherits `name` from a
    base class, whose callers then read the override."""
    klass = getattr(importlib.import_module(f"fockmin.{module[:-3]}"), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def _loaded_attributes(statement) -> set:
    return {
        node.attr
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_members(sources: dict, checked) -> list:
    """The dataclass fields, properties and methods of the `checked`
    modules that no attribute load names outside their own class, or, for
    a method, outside its own definition.  A method that overrides a base
    class's is read by the base class's callers."""
    trees = {name: ast.parse(text).body for name, text in sources.items()}
    unread = []
    for module in checked:
        for cls, member, name in _class_members(trees[module]):
            readers = [
                statement
                for reader, body in trees.items()
                for statement in body
                if not (reader == module and statement is cls)
            ]
            if _is_method(member):
                readers += [item for item in cls.body if item is not member]
            if any(name in _loaded_attributes(s) for s in readers):
                continue
            if not (_is_method(member) and _overrides(module, cls.name, name)):
                unread.append(f"{module}:{cls.name}.{name}")
    return unread


def stored_attributes(source: str) -> list:
    """(class, name) of every attribute that the methods of the module's
    top-level classes store on `self`."""
    return sorted(
        {
            (cls.name, node.attr)
            for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
    )


def _read_by_base(module: str, cls: str, name: str) -> bool:
    """Whether the code of a base class of the imported class `cls` of
    `module` loads the attribute `name`; a built-in base has no code."""
    klass = getattr(importlib.import_module(f"fockmin.{module[:-3]}"), cls)
    for base in klass.__mro__[1:]:
        try:
            tree = ast.parse(inspect.getsource(base))
        except (OSError, TypeError):
            continue
        if name in _loaded_attributes(tree):
            return True
    return False


def unread_attributes(sources: dict, checked) -> list:
    """The attributes stored on `self` in the classes of the `checked`
    modules that no attribute load in the package names, and that no base
    class's code reads."""
    loads = set().union(*(_loaded_attributes(ast.parse(t)) for t in sources.values()))
    return [
        f"{module}:{cls}.{name}"
        for module in checked
        for cls, name in stored_attributes(sources[module])
        if name not in loads and not _read_by_base(module, cls, name)
    ]


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


# Unread members kept on purpose, each with its reason.  Every one must
# still be unread, so an exemption goes when its member does.
EXEMPT = {
    "sturm.py:SturmCertificate.scalings": (
        "no verdict reads it, but the benchmark keeps every verdict, so deleting "
        "it (about 100x faster certify_sturm) moves peak_rss_mib from 35.5 to "
        "66.8 MiB; it goes with the benchmark repair of ROADMAP item 1"
    ),
}


def test_every_field_and_property_has_a_reader():
    unread = unread_members(package_sources(), CHECKED)
    assert [member for member in unread if member not in EXEMPT] == []
    # an exemption whose member is read, or gone, must go as well
    assert [member for member in EXEMPT if member not in unread] == []


def test_the_guard_sees_fields_and_properties():
    members = {
        f"{module}:{cls}.{name}"
        for module in CHECKED
        for cls, name in defined_members(package_sources()[module])
    }
    assert {
        "minimize.py:OptimizerConfig.truncation",
        "minimize.py:Mu0Interval.width",
        "spectra.py:BlockMatrix.order",
        "sturm.py:SturmCertificate.scalings",
        "fock.py:EnergyKernel.value",
        "fock.py:EnergyKernel._energies",
        "cli.py:_Parser.error",
    } <= members
    assert not any(name.endswith(".__init__") for name in members)


def test_an_override_is_read_by_its_base_class_callers():
    # argparse calls _Parser.error; nothing in the package names it
    sources = package_sources()
    assert "error" not in set().union(
        *(_loaded_attributes(s) for s in ast.parse(sources["cli.py"]).body)
    )
    assert "cli.py:_Parser.error" not in unread_members(sources, CHECKED)


def test_a_restored_padding_method_fails():
    # FockCoefficients.padded as it stood before it moved to the tests
    sources = package_sources()
    text = sources["fock.py"]
    anchor = "        object.__setattr__(self, \"coeffs\", arr)\n"
    assert text.count(anchor) == 1
    sources["fock.py"] = text.replace(
        anchor,
        anchor
        + "\n"
        "    def padded(self, truncation: int) -> \"FockCoefficients\":\n"
        "        if truncation < self.truncation:\n"
        "            raise InvalidParameter(\"padding cannot shrink the truncation\")\n"
        "        out = np.zeros(truncation + 1, dtype=complex)\n"
        "        out[: self.truncation + 1] = self.coeffs\n"
        "        return FockCoefficients(truncation, out)\n",
    )
    assert unread_members(sources, CHECKED) == sorted(
        [*EXEMPT, "fock.py:FockCoefficients.padded"]
    )


def test_a_method_read_only_by_itself_fails():
    sources = package_sources()
    sources["minimize.py"] = sources["minimize.py"].replace(
        "    @property\n    def width(self) -> float:\n",
        "    def halve(self, n):\n"
        "        return self.halve(n - 1) if n else self\n\n"
        "    @property\n    def width(self) -> float:\n",
    )
    assert unread_members(sources, CHECKED) == sorted(
        [*EXEMPT, "minimize.py:Mu0Interval.halve"]
    )


def test_a_restored_semiclassical_field_fails():
    # SemiclassicalReport.omega_sq as it stood before it was deleted: set
    # by its constructor, read by nothing
    sources = package_sources()
    text = sources["minimize.py"]
    for old, new in (
        ("    mu_eff: float\n", "    mu_eff: float\n    omega_sq: float\n"),
        (
            "        mu_eff=mu_eff,\n",
            "        mu_eff=mu_eff,\n        omega_sq=omega_sq,\n",
        ),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    sources["minimize.py"] = text
    assert unread_members(sources, CHECKED) == sorted(
        [*EXEMPT, "minimize.py:SemiclassicalReport.omega_sq"]
    )


def test_an_unread_property_fails():
    sources = package_sources()
    sources["minimize.py"] = sources["minimize.py"].replace(
        "    @property\n    def width(self) -> float:\n",
        "    @property\n    def midpoint(self) -> float:\n"
        "        return 0.5 * (self.low + self.high)\n\n"
        "    @property\n    def width(self) -> float:\n",
    )
    assert unread_members(sources, CHECKED) == sorted(
        [*EXEMPT, "minimize.py:Mu0Interval.midpoint"]
    )


def test_every_instance_attribute_has_a_reader():
    assert unread_attributes(package_sources(), CHECKED) == []


def test_the_guard_sees_instance_attributes():
    stored = {
        f"{module}:{cls}.{name}"
        for module in CHECKED
        for cls, name in stored_attributes(package_sources()[module])
    }
    assert {
        "fock.py:EnergyKernel.weights_sq",
        "fock.py:EnergyKernel._square",
        "fock.py:EnergyKernel._hankel",
        "cli.py:_Parser._negative_number_matcher",
    } <= stored


def test_an_attribute_read_by_a_base_class_is_read():
    # argparse reads _Parser._negative_number_matcher; nothing in the
    # package loads it
    sources = package_sources()
    loads = set().union(*(_loaded_attributes(ast.parse(t)) for t in sources.values()))
    assert "_negative_number_matcher" not in loads
    assert _read_by_base("cli.py", "_Parser", "_negative_number_matcher")
    assert not _read_by_base("cli.py", "_Parser", "_no_such_matcher")


def test_a_restored_weight_table_fails():
    # EnergyKernel.weights as it stood before the complex tables were
    # built from a local square root: stored, and read by nothing
    sources = package_sources()
    text = sources["fock.py"]
    anchor = "        self.weights_sq = weights_sq\n"
    assert text.count(anchor) == 1
    sources["fock.py"] = text.replace(
        anchor, anchor + "        self.weights = weights = np.sqrt(weights_sq)\n"
    )
    assert unread_attributes(sources, CHECKED) == ["fock.py:EnergyKernel.weights"]
