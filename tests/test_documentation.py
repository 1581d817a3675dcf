"""Meta-tests enforcing deliverable (e): documentation on every public item.

Walks every module under ``repro`` and asserts docstrings on modules,
public classes, public functions and public methods.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.client import ClientConfig
from repro.server import ServerConfig

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        names.append(info.name)
    return sorted(names)


MODULES = all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


def public_members():
    seen = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            home = getattr(member, "__module__", "")
            if not home.startswith("repro"):
                continue  # re-exported stdlib etc.
            key = f"{home}.{member.__qualname__}"
            if key in seen:
                continue
            seen.add(key)
            yield key, member
    assert seen


@pytest.mark.parametrize(
    "qualname,member", list(public_members()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_public_item_has_docstring(qualname, member):
    assert inspect.getdoc(member), f"{qualname} lacks a docstring"


def test_public_methods_have_docstrings():
    undocumented = []
    for qualname, member in public_members():
        if not inspect.isclass(member):
            continue
        for name, method in vars(member).items():
            if name.startswith("_") or not inspect.isfunction(method):
                continue
            if not inspect.getdoc(method):
                undocumented.append(f"{qualname}.{name}")
    allowance = 0
    assert len(undocumented) <= allowance, (
        f"{len(undocumented)} undocumented public methods "
        f"(allowance {allowance}):\n" + "\n".join(sorted(undocumented)[:50])
    )


def test_markdown_documents_exist():
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PROTOCOL.md"):
        document = root / name
        assert document.exists(), f"{name} missing at repo root"
        assert document.stat().st_size > 1000, f"{name} is stub-sized"


def test_no_deprecation_shims_in_src():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "warnings.warn(" in source or "DeprecationWarning" in source:
            offenders.append(str(path.relative_to(PACKAGE_ROOT)))
    assert not offenders, f"deprecation shims grew back in: {offenders}"


def _src_imports():
    """``{module: set of repro modules it imports}`` over ``src/repro``,
    by reading the source.  ``from package import name`` counts as an
    import of the module the package's ``__init__`` re-exports ``name``
    from, so a module used through its package facade has importers."""
    paths = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        paths[".".join(parts)] = path

    def froms(name):
        """(base module, imported name) pairs, relative imports resolved."""
        path = paths[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    anchor = anchor[: len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    yield base, alias.name

    reexports = {
        name: {imported: base for base, imported in froms(name) if imported}
        for name, path in paths.items()
        if path.name == "__init__.py"
    }
    imports = {}
    for name in paths:
        found = set()
        for base, imported in froms(name):
            found.add(base)
            if imported:
                found.add(f"{base}.{imported}")
                found.add(reexports.get(base, {}).get(imported, ""))
        imports[name] = {target for target in found if target in paths}
    return paths, imports


#: Modules nothing else in ``src/`` imports, and what asks for each.
ENTRY_POINTS = {
    "repro.apps.serve": "CLI: python -m repro.apps.serve",
    "repro.apps.call": "CLI: python -m repro.apps.call",
    "repro.core.spi": "the user-facing facade (connect / SpiClient)",
    "repro.server.security_handler": "README operations row; examples/secure_services.py",
    "repro.relatedwork.diffdeser": "benchmarks/test_relatedwork_ablation.py",
}


def test_every_src_module_has_an_importer_in_src():
    """Nothing lives in ``src/`` for its own unit tests alone: every
    module is imported by another ``src/`` module that is not merely
    its package ``__init__`` — or is a listed entry point."""
    paths, imports = _src_imports()
    orphans = []
    for name, path in paths.items():
        if path.name in ("__init__.py", "__main__.py") or name in ENTRY_POINTS:
            continue
        if name.startswith("repro.analysis."):
            continue  # a tool run from CI, entered through its __main__
        package = name.rpartition(".")[0]
        importers = {
            other for other, targets in imports.items() if name in targets
        } - {name, package}
        if not importers:
            orphans.append(name)
    assert not orphans, f"modules only their own package/tests import: {orphans}"
    stale = [name for name in ENTRY_POINTS if name not in paths]
    assert not stale, f"ENTRY_POINTS names modules that are gone: {stale}"


def test_relatedwork_baselines_stay_off_the_request_path():
    """``repro.relatedwork`` is measured by ``bench.figures`` and
    ``benchmarks/`` only; the live stack never imports it."""
    _, imports = _src_imports()
    importers = sorted(
        name
        for name, targets in imports.items()
        if any(target.startswith("repro.relatedwork") for target in targets)
        and not name.startswith("repro.relatedwork")
    )
    assert importers == ["repro.bench.figures"]


#: Fields that only say where the service lives: their "shown by" cell
#: may read ``deployment``.
DEPLOYMENT_FIELDS = {"transport", "address", "path", "namespace", "credentials"}


def _defines(path: pathlib.Path, qualname: list[str]) -> bool:
    """Whether ``path`` defines ``Class::function`` (or ``function``)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in qualname:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def _unresolved(reference: str, field: str) -> str | None:
    """Why one "shown by" reference names nothing, or None if it resolves."""
    from repro.bench import figures

    root = PACKAGE_ROOT.parents[1]
    if reference == "deployment":
        return None if field in DEPLOYMENT_FIELDS else "not a deployment field"
    if reference.startswith("perf:"):
        benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        gated = {workload["name"] for workload in benchmark["workloads"]}
        return None if reference[5:] in gated else "no such gated perf/ workload"
    if reference.startswith("figures."):
        found = inspect.isfunction(getattr(figures, reference[8:], None))
        return None if found else "no such repro.bench.figures function"
    path, _, qualname = reference.partition("::")
    if not qualname:
        return "neither a test id, a figure, a perf/ workload nor deployment"
    if not (root / path).is_file():
        return "no such test file"
    return None if _defines(root / path, qualname.split("::")) else "no such test"


@pytest.mark.parametrize("config", [ServerConfig, ClientConfig], ids=lambda c: c.__name__)
def test_every_config_field_has_a_readme_row(config):
    """Each field has one README row, and its "shown by" cell names what
    shows the field pays: every name in it resolves."""
    readme = (PACKAGE_ROOT.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split(f"| `{config.__name__}` field |", 1)[1].split("\n\n", 1)[0]
    rows = [row.split("|")[1:-1] for row in table.splitlines()[2:]]
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row[0])}
    fields = {field.name for field in dataclasses.fields(config)}
    missing = fields - documented
    assert not missing, f"{config.__name__} fields without a README row: {sorted(missing)}"
    stale = documented - fields
    assert not stale, f"README rows naming no {config.__name__} field: {sorted(stale)}"
    unshown = []
    for row in rows:
        field = re.findall(r"`(\w+)`", row[0])[0]
        references = re.findall(r"`([^`]+)`", row[-1])
        if not references:
            unshown.append(f"{field}: empty")
        for reference in references:
            reason = _unresolved(reference, field)
            if reason is not None:
                unshown.append(f"{field}: {reference} ({reason})")
    assert not unshown, f"{config.__name__} shown-by cells that name nothing: {unshown}"


#: ``registry.counter("name")`` / ``.gauge(f"stage.{name}.x")`` / ``.sketch(...)``
_INSTRUMENT_RE = re.compile(r"\.(?:counter|gauge|sketch)\(\s*f?\"([^\"]+)\"")


def test_every_server_instrument_has_a_readme_row():
    """Every instrument ``src/repro/server/`` and ``src/repro/http/``
    bind (an f-string's ``{name}`` reads as ``<name>``) is a row of
    README's server-instrument table, and every row is such an
    instrument."""
    bound = set()
    for package in ("server", "http"):
        for path in sorted((PACKAGE_ROOT / package).glob("*.py")):
            for name in _INSTRUMENT_RE.findall(path.read_text(encoding="utf-8")):
                bound.add(re.sub(r"\{\w+\}", "<name>", name))
    assert len(bound) >= 20
    readme = (PACKAGE_ROOT.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| server instrument |", 1)[1].split("\n\n", 1)[0]
    documented = {row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]}
    missing = bound - documented
    assert not missing, f"instruments without a README row: {sorted(missing)}"
    stale = documented - bound
    assert not stale, f"README rows naming no bound instrument: {sorted(stale)}"


def test_every_analysis_rule_has_a_readme_row():
    """README's analysis table lists exactly ``RULES``, in order, with
    their severities."""
    from repro.analysis import RULES

    readme = (PACKAGE_ROOT.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| rule | severity | invariant |", 1)[1].split("\n\n", 1)[0]
    rows = [row.split("|")[1:3] for row in table.splitlines()[2:]]
    assert [(rule.strip().strip("`"), severity.strip()) for rule, severity in rows] == [
        (rule.id, rule.severity) for rule in RULES
    ]


def test_every_admin_route_has_a_readme_row():
    """README's admin table lists exactly the routes the HTTP core
    serves: ``ADMIN_PATHS`` plus ``/trace/<id>`` (a row per query
    variant, e.g. ``?format=prometheus``, counts as its path)."""
    from repro.http.core import ADMIN_PATHS, TRACE_PATH_PREFIX

    readme = (PACKAGE_ROOT.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Endpoint | Serves | Enabled by |", 1)[1].split("\n\n", 1)[0]
    documented = {
        re.fullmatch(r"\s*`GET ([^`?]+)(\?[^`]*)?`\s*", row.split("|")[1]).group(1)
        for row in table.splitlines()[2:]
    }
    assert documented == {*ADMIN_PATHS, TRACE_PATH_PREFIX + "<id>"}


def test_every_measured_pr_has_a_full_bench_perf_entry():
    root = PACKAGE_ROOT.parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [
        (workload["name"], metric["name"])
        for workload in benchmark["workloads"]
        for metric in benchmark["end_to_end"]
    ]
    assert len(wanted) == 24
    trajectory = json.loads((root / "BENCH_perf.json").read_text(encoding="utf-8"))
    entries = {entry["pr"]: entry for entry in trajectory["entries"]}
    changes = (root / "CHANGES.md").read_text(encoding="utf-8")
    measured = {
        int(number)
        for number in re.findall(r"^- PR-(\d+) \((?:perf_opt|simplicity)\)", changes, re.M)
        if int(number) >= 11  # PR 11 introduced the benchmark
    }
    assert measured, "CHANGES.md lists no perf_opt/simplicity PR since PR 11"
    incomplete = [
        f"PR {number}: {workload} x {metric} ({side})"
        for number in sorted(measured)
        for workload, metric in wanted
        for side in ("parent", "change")
        if not isinstance(
            entries.get(number, {}).get("cells", {}).get(workload, {}).get(metric, {}).get(side),
            (int, float),
        )
    ]
    assert not incomplete, f"BENCH_perf.json lacks medians for: {incomplete}"
