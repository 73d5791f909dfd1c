"""Module boundaries of the package, read from its source.

Each module imports only modules below it in LAYERS, so the graph has no
cycle and no upward edge: coupling builds the construction, and verify
holds the statistics of every study.
fields draws every field: only it touches the innovation layout, so a
change to how innovations are drawn or laid out stays inside one module.
sums only reduces what its callers sampled, so it draws nothing, and it
alone accumulates a prefix.  In fields two samplers open streams:
sample_block_batch and line_segments; only rng repoints a generator.
fields owns the per-thread workspace of reused buffers; sums and coupling
fill it through fields._workspace, and verify and cli reach it only
through the public kernels.  The workspace's slots are one listed set, so
a thread's buffers, and what it keeps between tasks, change only with it.
The CLI's couple section is the S - sigma W study's parameters, declared on
coupling.study_plans alone, which checks their values; the study runs what
it returns.  Below that gate only coupling.cdf_table chooses how a coupled
block's xi is mapped.  src/ holds no API, and no default, that only tests
set or call.  verify is the one writer of the canonical format: every file
the lab writes, and the table that theory prints.  domains is the one parser
of the claims' inputs: verify's checkers read the values it returns, and
verify._claim records them in each report, so no checker restates them.
coupling.build_scheme is the one builder of a block scheme: verify asks
coupling for the plans it runs, and theory, which only solves for the scheme
constants, imports no package module.  normal, which holds Phi and Phi^-1,
is the bottom layer, so importing the CLI loads no scipy module.
"""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldlab

SRC = Path(fieldlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# bottom to top; __init__ and __main__ are the package's entry points
LAYERS = ["normal", "lattice", "rng", "theory", "fields", "sums", "domains", "coupling",
          "verify", "cli"]

INNOVATION_LAYOUT = {"innovations", "_dilation", "_field_from_innovations"}
SAMPLERS = {"sample_block", "sample_block_batch", "line_segments", "stream", "streams"}

WORKSPACE = {"_workspace", "_scratch"}

# every slot of fields._workspace, by the module that asks for it: each one
# is a buffer that every thread keeps once it has asked.  coupling's Wiener
# slabs reuse line_segments' slab.
WORKSPACE_SLOTS = {
    ("fields", "innovations"), ("fields", "lag"), ("fields", "segment"), ("fields", "line"),
    ("sums", "chunk"), ("sums", "sums"), ("sums", "rounded"),
    ("coupling", "line"),
}

# public methods and properties that src/ does not read, with the reason each stays
UNREAD_MEMBERS = {
    ("coupling", "EmpiricalCdf", "m"): "perfbench/tracer.py counts the CDF draws by it",
}

# public functions whose defaults no call in src/ sets, with the reason each stays
UNSET_DEFAULTS = {
    ("cli", "main"): "the console entry point: __main__ calls it with no argv, "
                     "so argparse reads sys.argv",
}

# what writes a file or formats one: verify's canonical writers alone use them
WRITERS = {"dumps", "csv", "write_text"}

TREES = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES}


def used_names(module: str) -> set[str]:
    """Names a module imports from another, or reads as an attribute."""
    names = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_modules(module: str) -> set[str]:
    """Package modules a module imports, at module level or inside a function."""
    found = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("fieldlab"):
                continue
            base = base.removeprefix("fieldlab").lstrip(".")
            found.update([base.split(".")[0]] if base else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("fieldlab."))
    return found


def reads_by_definition(module: str) -> dict[str | None, set[str]]:
    """Names a module reads (loads, attributes, imports), keyed by the
    top-level function or class they sit in, or None at module level."""
    reads: dict[str | None, set[str]] = {}
    for stmt in TREES[module].body:
        owner = getattr(stmt, "name", None)
        names = reads.setdefault(owner, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return reads


def public_names(module: str) -> list[str]:
    for node in TREES[module].body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            return ast.literal_eval(node.value)
    return []


def public_members(module: str):
    """(class, method) for each public method or property of a public class."""
    public = set(public_names(module))
    for node in TREES[module].body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item


def attributes_read(node, skip) -> set[str]:
    """Attribute names read under node, outside the subtree skip."""
    if node is skip:
        return set()
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        names |= attributes_read(child, skip)
    return names


def test_modules_found():
    assert set(MODULES) == set(LAYERS) | {"__init__", "__main__"}


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    assert imported_modules(module) <= set(LAYERS[: LAYERS.index(module)])


def test_cli_import_loads_no_root_finder():
    """theory's constants are closed forms and normal holds Phi and Phi^-1,
    so importing the CLI loads no scipy module at all."""
    src = str(SRC.resolve().parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, fieldlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "fields"])
def test_only_fields_touches_the_innovation_layout(module):
    assert not used_names(module) & INNOVATION_LAYOUT


@pytest.mark.parametrize("module", MODULES)
def test_only_the_kernels_touch_the_workspace(module):
    names = set().union(*reads_by_definition(module).values())
    assert bool(names & WORKSPACE) == (module in {"fields", "sums", "coupling"})
    # the thread-local state is fields' own
    assert ("local" in names) == (module == "fields")


def test_sums_draws_nothing():
    assert not used_names("sums") & SAMPLERS


@pytest.mark.parametrize("module", MODULES)
def test_only_sums_reads_the_line_prefix(module):
    """Every prefix is summed in sums and read through it: d = 1 stacks by
    sum_and_max, a block in slabs by prefix_at.  No other module calls
    cumsum, works in longdouble or reads the chunked running sums."""
    names = set().union(*reads_by_definition(module).values())
    assert bool(names & {"cumsum", "longdouble", "_running_sums"}) == (module == "sums")


def test_workspace_slots_are_listed():
    """Every fields._workspace call names its slot by a string literal, and
    the slots of src/ are WORKSPACE_SLOTS: a new slot is a new buffer that
    every worker thread keeps, so it needs an edit here."""
    found = set()
    for module in MODULES:
        for node in ast.walk(TREES[module]):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_workspace":
                slot = node.args[0]
                assert isinstance(slot, ast.Constant) and isinstance(slot.value, str)
                found.add((module, slot.value))
    assert found == WORKSPACE_SLOTS


@pytest.mark.parametrize("module", MODULES)
def test_only_rng_repoints_a_bit_generator(module):
    """rng.streams repoints its Philox generator by assigning its state;
    no other module sets a bit generator's state."""
    tree = TREES[module]
    assigned = [t for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(t, ast.Attribute) and t.attr == "state"]
    assert bool(assigned) == (module == "rng")


def test_two_samplers_read_the_streams():
    """sample_block is a row of sample_block_batch, so fields opens streams
    in its two samplers only."""
    readers = {owner for owner, names in reads_by_definition("fields").items()
               if owner and names & {"stream", "streams"}}  # None: the import
    assert readers == {"sample_block_batch", "line_segments"}


def test_couple_checks_no_values():
    """coupling.study_plans is the one check of the study's values."""
    tree = TREES["cli"]
    (couple,) = [n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name == "_cmd_couple"]
    called = {n.func.id for n in ast.walk(couple)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "study_plans" in called
    assert "_config_value" not in called


def test_couple_keys_are_the_study_parameters():
    """The couple keys are study_plans' parameters, and the study runs the
    checked study it returns: it restates none of them but the model."""
    from fieldlab import cli
    from fieldlab.coupling import study_plans
    from fieldlab.verify import approximation_error_study

    params = set(inspect.signature(study_plans).parameters)
    assert cli._COUPLE_KEYS == params - {"model"}
    assert set(inspect.signature(approximation_error_study).parameters) & params == {"model"}


def test_only_the_cdf_table_and_the_gate_read_exact_phi():
    """A coupled block's xi is mapped through its entry of coupling.cdf_table,
    so below study_plans, which checks the study's values, only cdf_table
    chooses between an empirical CDF and exact Phi."""
    readers = {owner for owner, names in reads_by_definition("coupling").items()
               if "exact_phi" in names}
    assert readers == {"cdf_table", "study_plans"}


@pytest.mark.parametrize("module", MODULES)
def test_src_holds_no_api_that_only_tests_call(module):
    """Every public name, and every public method or property of a public
    class, is read in src/ outside its own definition.

    The registered checkers are called through verify.CLAIMS; the reference
    implementations that tests compare against live in tests/reference.py.
    Dunder names such as __version__ are package metadata, not an API.  A
    member is read as an attribute; UNREAD_MEMBERS lists those that stay
    unread.
    """
    from fieldlab.verify import CLAIMS

    checkers = {("verify", fn.__name__) for fn in CLAIMS.values()}
    reads = {m: reads_by_definition(m) for m in MODULES}
    unread = [
        name for name in public_names(module)
        if not name.startswith("__")
        and (module, name) not in checkers
        and not any(name in names for m in MODULES for owner, names in reads[m].items()
                    if (m, owner) != (module, name))
    ]
    members = {(module, cls, fn.name): fn for cls, fn in public_members(module)}
    unread += [
        ".".join(key[1:]) for key, fn in members.items() if key not in UNREAD_MEMBERS
        and not any(fn.name in attributes_read(TREES[m], fn) for m in MODULES)
    ]
    assert not unread
    assert {key for key in UNREAD_MEMBERS if key[0] == module} <= set(members)


def calls_in_src():
    """(callee name, positional arguments, keywords) of each call in src/: a
    starred argument counts as every position, and ** as the keyword None."""
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                yield name, math.inf if starred else len(node.args), {
                    k.arg for k in node.keywords}


@pytest.mark.parametrize("module", MODULES)
def test_every_default_is_set_in_src(module):
    """A defaulted parameter of a public function is set by some call in
    src/, by keyword, by position or through **: a default that only tests
    change is a constant.  The registered checkers are exempt: the CLI
    builds their arguments from verify.overrides, whose keys are their
    parameters.  UNSET_DEFAULTS lists the other exemptions."""
    from fieldlab.verify import CLAIMS

    exempt = {("verify", fn.__name__) for fn in CLAIMS.values()} | set(UNSET_DEFAULTS)
    calls = list(calls_in_src())
    unset = []
    for fn in TREES[module].body:
        if (not isinstance(fn, ast.FunctionDef) or fn.name not in public_names(module)
                or (module, fn.name) in exempt):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(math.inf, a.arg) for a, default in
                      zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        unset += [f"{fn.name}({arg})" for i, arg in defaulted
                  if not any(name == fn.name and (i < n or arg in kw or None in kw)
                             for name, n, kw in calls)]
    assert not unset
    assert {key for key in UNSET_DEFAULTS if key[0] == module} <= {
        (module, fn.name) for fn in TREES[module].body if isinstance(fn, ast.FunctionDef)}


@pytest.mark.parametrize("module", MODULES)
def test_only_verify_writes(module):
    """json.dumps, csv and write_text appear in verify only, so each file the
    lab writes has the one canonical format; elsewhere open only reads, as
    cli does its config."""
    names = set().union(*reads_by_definition(module).values())
    names |= {a.name for node in ast.walk(TREES[module]) if isinstance(node, ast.Import)
              for a in node.names}
    assert bool(names & WRITERS) == (module == "verify")
    if module != "verify":
        opened = [node for node in ast.walk(TREES[module]) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "open"]
        assert all(len(node.args) == 1 and not node.keywords for node in opened)


def test_one_summary_writer():
    """summary.json is assembled and written in verify.write_summary alone,
    which verify.emit_report and the report subcommand both call."""
    callers = {(m, owner) for m in MODULES
               for owner, names in reads_by_definition(m).items()
               if "write_summary" in names and owner != "write_summary"}
    assert callers == {("verify", "emit_report"), ("cli", "_cmd_report")}
    readers = {owner for owner, names in reads_by_definition("verify").items()
               if names & WRITERS}
    assert readers == {"canonical_json", "write_json", "write_csv"}


def test_domains_alone_parse_the_claim_inputs():
    """A checker reads its arguments as domains parsed them, so verify
    converts no size to a Block and no index set to points: it reads no
    lattice._as_points, and no function of it tells a Block by isinstance."""
    reads = reads_by_definition("verify")
    assert not [owner for owner, names in reads.items() if "_as_points" in names]
    assert not [owner for owner, names in reads.items() if {"isinstance", "Block"} <= names]


def test_one_scheme_builder():
    """Only coupling calls build_scheme, only theory (choose_scheme) and
    coupling construct a SchemeParams, and theory imports no package module."""
    def callers(name: str) -> set[str]:
        return {m for m in MODULES for node in ast.walk(TREES[m])
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}

    assert callers("build_scheme") == {"coupling"}
    assert callers("SchemeParams") == {"theory", "coupling"}
    assert imported_modules("theory") == set()


def test_the_registry_records_the_inputs():
    """No @_claim restates a checker's arguments in a lambda: each input rule
    is a function called by parameter name.  The model is recorded by
    verify._claim alone, and by the cli for its own files."""
    from fieldlab.verify import CLAIMS

    claims = [dec for node in ast.walk(TREES["verify"]) if isinstance(node, ast.FunctionDef)
              for dec in node.decorator_list
              if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "_claim"]
    assert len(claims) == len(CLAIMS)
    assert not [dec for dec in claims if any(isinstance(n, ast.Lambda) for n in ast.walk(dec))]
    readers = {(m, owner) for m in MODULES for owner, names in reads_by_definition(m).items()
               if "_model_inputs" in names}
    assert {(m, owner) for m, owner in readers if m != "cli"} == {("verify", "_claim")}


def test_no_checker_rebuilds_its_plan():
    """What an input rule built reaches its checker through the checker's
    keyword-only parameter, so no function registered with
    @_claim(..., inputs=rule) calls its own rule; verify.plan is the one
    planner, and the require_inputs that it replaced is gone from src/."""
    from fieldlab.verify import CLAIMS

    rules = {}
    for node in TREES["verify"].body:
        for dec in getattr(node, "decorator_list", []):
            if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "_claim":
                rules.update({node.name: ast.unparse(k.value).split(".")[-1]
                              for k in dec.keywords if k.arg == "inputs"})
    assert len(rules) == sum(fn.inputs is not None for fn in CLAIMS.values())
    for name, rule in rules.items():
        (checker,) = [n for n in TREES["verify"].body if getattr(n, "name", None) == name]
        called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                  for stmt in checker.body for n in ast.walk(stmt) if isinstance(n, ast.Call)}
        assert rule not in called, f"{name} calls its input rule {rule}"
    assert not [m for m in MODULES if "require_inputs" in (SRC / f"{m}.py").read_text()]
