"""Every top-level function and class of ``src/chiralflow`` is referenced
from somewhere else in ``src/``, or is an allowlisted root that only tests
reach, each with its reason.  A helper that nothing calls any more fails
here instead of lingering.  No module imports scipy, which only the tests
use."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chiralflow"

# Roots that only tests call, each until it gets a CLI route or moves into
# the tests.
TEST_ONLY_ROOTS = {
    "check_chiral_symmetry": "criterion 5's chiral-symmetry residual; no CLI route yet",
    "chiral_operator": "the spectrum-inverting unitary that criterion 5's check takes",
    "landau_gauge": "the second gauge of criterion 6's gauge-invariance check",
    "check_time_reversal_spin": "criterion 7's spin time-reversal check; no CLI route yet",
    "three_body_spin": "the paper's three-spin chirality models, checked in the model tests",
    "hardcore_limit_study": "criterion 8's hard-core crossover; no CLI route yet",
    "relative_frequency_amplitude": "criterion 9's relative disorder scale, read only there",
    "bus_effective_coupling": "criterion 12's bus-scheme couplings; no CLI route yet",
    "bus_resonator_ring": "criterion 12's bus drive; `study floquet` runs the couplers only",
    "even_site_population_bound": "an oracle bound checked against the closed forms",
    "four_node_asgf_amplitude_regrouped": "a second form of the four-node oracle, "
                                          "checked against the first",
}


def unreferenced_definitions(src: Path) -> set[str]:
    """Names of the top-level functions and classes of the modules in
    ``src`` that no name or attribute outside their own definition uses."""
    definitions = []
    places = defaultdict(set)  # name -> (module, top-level definition) of each use
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                definitions.append((path.stem, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    places[sub.id].add((path.stem, owner))
                elif isinstance(sub, ast.Attribute):
                    places[sub.attr].add((path.stem, owner))
    # A use inside the definition itself (recursion) does not reach it.
    return {name for module, name in definitions if not places[name] - {(module, name)}}


def test_every_top_level_definition_is_referenced_in_src():
    unreferenced = unreferenced_definitions(SRC)
    assert unreferenced - TEST_ONLY_ROOTS.keys() == set(), "unreferenced: add a caller or delete"
    # A root that gains a caller leaves the allowlist.
    assert TEST_ONLY_ROOTS.keys() - unreferenced == set(), "referenced now: drop from the list"


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy serves the tests' references.
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] == "scipy"]
    assert imports == []
