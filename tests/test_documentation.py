"""Meta-tests enforcing deliverable (e): documentation on every public item.

Walks every module under ``repro`` and asserts docstrings on modules,
public classes, public functions and public methods.
"""

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


@pytest.mark.parametrize("config", [ServerConfig, ClientConfig], ids=lambda c: c.__name__)
def test_every_config_field_has_a_readme_row(config):
    readme = (PACKAGE_ROOT.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split(f"| `{config.__name__}` field |", 1)[1].split("\n\n", 1)[0]
    first_cells = " ".join(row.split("|")[1] for row in table.splitlines()[2:])
    documented = set(re.findall(r"`(\w+)`", first_cells))
    missing = {field.name for field in dataclasses.fields(config)} - documented
    assert not missing, f"{config.__name__} fields without a README row: {sorted(missing)}"


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
