"""Each ``codecal`` module uses every name it imports and binds every name it exports.

Every name the package exports has a caller: its own modules, the
benchmark scripts or the README's library example use it.

Importing the package, and every command that computes nothing, loads
no numpy, and only ``split`` loads ``hashlib`` (so OpenSSL); the
subprocess tests at the end check that.

Package ``__init__.py`` files re-export names, so they are skipped by
the import check; a name listed in a module's ``__all__`` counts as
used.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codecal
from codecal.report import EvalReport

SRC = Path(codecal.__file__).resolve().parent.parent
MODULES = sorted(
    path for path in Path(codecal.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_checker_finds_unused_names():
    source = (
        "import os\nimport numpy as np\nimport os.path\n"
        "from json import dumps, loads as parse\nfrom .errors import DataError\n"
        "__all__ = ['DataError']\nprint(np.pi, parse)\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unraised_exceptions(errors_source: str, sources: list[str]) -> list[str]:
    """Exception classes ``errors_source`` defines that ``sources`` never raise.

    A class counts as raised when it, or a class derived from it, follows
    a ``raise``, called or not.
    """
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            while name in bases and name not in used:
                used.add(name)
                name = next((base for base in bases[name] if base in bases), None)
    return sorted(bases.keys() - used)


def test_checker_finds_unraised_exceptions():
    errors = (
        "class Base(Exception): ...\nclass Used(Base): ...\n"
        "class Bare(Exception): ...\nclass Unused(Base): ...\nclass Never(Unused): ...\n"
    )
    sources = ["raise Used('x') from None\n", "def f():\n    raise errors.Bare\n"]
    assert unraised_exceptions(errors, sources) == ["Never", "Unused"]


def test_every_exception_class_is_raised():
    """An error class that nothing raises is dead API, like a helper nothing calls."""
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    errors = (Path(codecal.__file__).parent / "errors.py").read_text(encoding="utf-8")
    assert unraised_exceptions(errors, sources) == []


# Where a JSON document may be decoded: the JSONL line decoder of data.py,
# which every record reader shares, and the config file's own reader.
# Anywhere else a decode sits in a ``with schema_fields(...)`` block.
JSON_DECODERS = {("data.py", "_json_lines"), ("cli.py", "_merge_config")}
# A decoder with rules of its own: built anywhere but in JSON_DECODERS, it is stray.
DECODER_HOOKS = ("parse_float", "parse_int")


def _json_call(call: ast.Call) -> str | None:
    """The name of ``json`` function ``call`` makes, or None: ``loads`` for ``json.loads(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json":
        return func.attr
    return None


def stray_json_decodes(source: str, filename: str) -> list[int]:
    """Lines of JSON decodes outside the places that may decode.

    A decode is a ``json.load``/``json.loads`` call, which a
    ``schema_fields`` block also allows, or a ``json.JSONDecoder(...)``
    or any call with a ``parse_float=``/``parse_int=`` hook, which only
    the places that may decode may make.
    """
    found = []

    def visit(node, function, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.With):
            calls = [item.context_expr for item in node.items]
            guarded = guarded or any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "schema_fields"
                for call in calls
            )
        elif isinstance(node, ast.Call) and (filename, function) not in JSON_DECODERS:
            name = _json_call(node)
            hooked = name == "JSONDecoder" or any(kw.arg in DECODER_HOOKS for kw in node.keywords)
            if hooked or (name in ("load", "loads") and not guarded):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function, guarded)

    visit(ast.parse(source), None, False)
    return found


def test_checker_finds_stray_json_decodes():
    source = (
        "import json\n"
        "def _merge_config(fh):\n    return json.load(fh)\n"
        "def other(text):\n    return json.loads(text)\n"
        "def guarded(text):\n    with schema_fields('x'):\n        return json.loads(text)\n"
        "def unguarded(text):\n    with open(text):\n        return json.load(text)\n"
        "loaded = json.loads('1')\n"
        "decode = json.JSONDecoder(parse_float=str.encode).decode\n"
        "def _json_lines(line):\n    return json.loads(line)\n"
        "def hooked(text):\n    with schema_fields('x'):\n"
        "        return json.loads(text, parse_int=str)\n"
        "def decoder():\n    return functools.partial(json.load, parse_float=bytes)\n"
    )
    assert stray_json_decodes(source, "cli.py") == [5, 11, 12, 13, 15, 18, 20]
    assert stray_json_decodes(source, "data.py") == [3, 5, 11, 12, 13, 18, 20]


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute, outside their own definitions."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def uncalled_exports(exports, sources: list[str], text: str) -> list[str]:
    """Names of ``exports`` that no ``sources`` reads and ``text`` never mentions."""
    used = set().union(*map(referenced_names, sources))
    return sorted(
        name for name in exports if name not in used and not re.search(rf"\b{name}\b", text)
    )


def test_checker_finds_uncalled_exports():
    sources = [
        "import x\nfrom y import imported\ndef f():\n    return f() + g\nclass C:\n    C.m\n",
        "print(module.attr)\n",
    ]
    exports = ["f", "g", "C", "attr", "imported", "m", "x", "shown", "hidden"]
    text = "Call `shown(1)`; hiddenly is another word."
    assert uncalled_exports(exports, sources, text) == ["C", "f", "hidden", "imported", "x"]


def test_every_exported_name_has_a_caller():
    """An exported name nothing uses is dead API, like an exception nothing raises."""
    sources = [path.read_text(encoding="utf-8") for path in (SRC / "codecal").glob("*.py")]
    sources += [path.read_text(encoding="utf-8") for path in (SRC.parent / "bench").glob("*.py")]
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert uncalled_exports(codecal.__all__, sources, library_use) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_json_decoded_only_where_decode_failures_are_caught(path):
    """A new reader goes through a shared decoder, so it inherits its decode-failure rule."""
    assert stray_json_decodes(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize(
    "module",
    ["codecal", *(f"codecal.{path.stem}" for path in MODULES)],
)
def test_exports_resolve(module):
    """Every name in a module's ``__all__`` is bound in that module."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


def run_python(code: str, *args: str, env=None) -> subprocess.CompletedProcess:
    """``python -c code args`` with this checkout of codecal importable."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


# Runs the command line as ``python -m codecal.cli`` does and ends its
# output with its exit code and whether ``module`` was loaded by then.
CLI_THEN_LOADED = """
import runpy, sys
sys.argv = ["codecal", *sys.argv[1:]]
try:
    runpy.run_module("codecal.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code or 0, {module!r} in sys.modules)
"""
CLI_THEN_NUMPY = CLI_THEN_LOADED.format(module="numpy")
CLI_THEN_HASHLIB = CLI_THEN_LOADED.format(module="hashlib")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A record file, a report and a CALIBRI-style file, written without numpy."""
    root = tmp_path_factory.mktemp("inputs")
    lines = [
        json.dumps(
            {
                "problem_id": f"p{i // 3}",
                "sample_id": f"s{i}",
                "language": "python",
                "token_logprobs": [-0.25, -0.5 - i / 100],
                "label": i % 2,
            }
        )
        for i in range(30)
    ]
    (root / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "raw.jsonl").write_text(
        json.dumps({"task_id": "t1", "lang": "python", "logprobs": [-0.5], "passed": True}) + "\n",
        encoding="utf-8",
    )
    report = EvalReport(
        n_samples=2,
        grid_m=2,
        ece=0.1,
        brier=0.2,
        brier_ref=0.25,
        bss=0.2,
        accuracy=0.5,
        base_rate=0.5,
        per_group_gasce={"g": 0.01},
        group_summary={"g": {"count": 2, "mean_conf": 0.4, "accuracy": 0.5, "degenerate": False}},
        reliability=[(1, 2, 0.4, 0.5)],
    )
    (root / "report.json").write_text(report.to_json(), encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["score", "--input", "records.jsonl", "--output", "scored.jsonl"],
        ["split", "--input", "records.jsonl", "--output-dir", "splits"],
        # The scored input's problem ids come from its column file.
        pytest.param(
            ["split", "--input", "scored.jsonl", "--output-dir", "resplit"], id="split-scored"
        ),
        ["report", "--report", "report.json", "--output-dir", "charts"],
        ["convert-calibri", "--source", "raw.jsonl", "--output", "converted.jsonl"],
        ["fit-eval", "--help"],
    ],
    ids=lambda args: "-".join(args[:2]),
)
def test_commands_that_compute_nothing_load_no_numpy(inputs, scored_splits, args, monkeypatch):
    monkeypatch.chdir(inputs)
    if args[:3] == ["split", "--input", "scored.jsonl"]:
        assert (inputs / "scored.jsonl.cols").is_file()
    assert run_python(CLI_THEN_NUMPY, *args).stdout.splitlines()[-1] == "0 False"
    if args[:3] == ["split", "--input", "scored.jsonl"]:
        assert (inputs / "resplit" / "train.jsonl.cols").is_file()


def test_text_features_are_defined_once_without_numpy():
    """groups re-exports the numpy-free definitions that score measures code texts with."""
    code = (
        "import sys\n"
        "import codecal.features as features\n"
        "assert 'numpy' not in sys.modules\n"
        "import codecal.groups as groups\n"
        "print(groups.TEXT_FEATURES is features.TEXT_FEATURES,"
        " groups.branch_count is features.branch_count,"
        " groups.text_features is features.text_features)\n"
    )
    assert run_python(code).stdout == "True True True\n"


def test_fit_eval_loads_numpy(inputs, monkeypatch):
    """The check above can see numpy: the commands that compute load it."""
    monkeypatch.chdir(inputs)
    run_python(CLI_THEN_NUMPY, "split", "--input", "records.jsonl", "--output-dir", "splits")
    splits = [f"--{name}=splits/{name}.jsonl" for name in ("train", "val", "test")]
    done = run_python(CLI_THEN_NUMPY, "fit-eval", *splits, "--output-dir", "fit")
    # Unscored splits exit 4, after numpy is loaded.
    assert done.stdout.splitlines()[-1] == "4 True"


@pytest.fixture(scope="module")
def scored_splits(inputs):
    """Options naming the fixture records, scored and then split, for fit-eval and ablate."""
    scored, splits = inputs / "scored.jsonl", inputs / "scored_splits"
    records = inputs / "records.jsonl"
    run_python(CLI_THEN_NUMPY, "score", "--input", str(records), "--output", str(scored))
    run_python(CLI_THEN_NUMPY, "split", "--input", str(scored), "--output-dir", str(splits))
    # The fixture records carry no code text, so nothing can be cut by length.
    options = [f"--{name}={splits / name}.jsonl" for name in ("train", "val", "test")]
    return [*options, "--length-metrics", "none"]


@pytest.fixture(scope="module")
def hashlib_not_preloaded():
    if run_python("import sys; print('hashlib' in sys.modules)").stdout == "True\n":
        pytest.skip("this interpreter loads hashlib before codecal is imported")


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["score", "--input", "records.jsonl", "--output", "rescored.jsonl"],
        ["report", "--report", "report.json", "--output-dir", "charts"],
        ["convert-calibri", "--source", "raw.jsonl", "--output", "converted.jsonl"],
        ["fit-eval", "--output-dir", "fit_hashless"],
        ["ablate", "--output", "ablation.csv"],
    ],
    ids=lambda args: args[0],
)
def test_commands_that_hash_nothing_load_no_openssl(
    inputs, scored_splits, hashlib_not_preloaded, args, monkeypatch
):
    """``hashlib`` loads OpenSSL's libcrypto, and only ``split`` hashes."""
    monkeypatch.chdir(inputs)
    if args[0] in ("fit-eval", "ablate"):
        args = [*args, *scored_splits]
    assert run_python(CLI_THEN_HASHLIB, *args).stdout.splitlines()[-1] == "0 False"


def test_split_loads_hashlib(inputs, monkeypatch):
    """The check above can see hashlib.

    Only ``hashlib`` is asserted: it may fall back to its builtin hashes
    without loading ``_hashlib``.
    """
    monkeypatch.chdir(inputs)
    done = run_python(
        CLI_THEN_HASHLIB, "split", "--input", "records.jsonl", "--output-dir", "hashed"
    )
    assert done.stdout.splitlines()[-1] == "0 True"


def test_package_names_resolve_without_numpy():
    code = (
        "import sys, codecal\n"
        "assert 'numpy' not in sys.modules\n"
        "print(sorted(set(codecal.__all__) - set(dir(codecal))))\n"
        "print([name for name in codecal.__all__ if getattr(codecal, name) is None])\n"
        "print(codecal.metrics.evaluate is codecal.evaluate)\n"
    )
    assert run_python(code).stdout == "[]\n[]\nTrue\n"


def test_blas_pin_set_before_numpy_loads():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    code = "import codecal, numpy, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code, env=env).stdout == "1\n"
