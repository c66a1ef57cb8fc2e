import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import tkgdiff
from tkgdiff import corpus, dpcl, engine, evaluate, gndiff, numkit
from tkgdiff.dpcl import QueryBatch

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MODULES = sorted(m.name for m in pkgutil.iter_modules(tkgdiff.__path__))

# the TrainConfig fields of each workload in bench/run.py's WORKLOADS
# (icews14, icews14-dpcl, dense-history); the bench adds seed
BENCH_CONFIGS = [
    dict(epochs_stage1=0, epochs_stage2=1),
    dict(epochs_stage1=0, epochs_stage2=1, no_gndiff=True),
    dict(d_dpcl=16, d_diff=16, epochs_stage1=2, epochs_stage2=2, steps=10),
]


def module_tree(name):
    return ast.parse(Path(tkgdiff.__path__[0], f"{name}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"tkgdiff.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), f"duplicates in tkgdiff.{name}.__all__"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"tkgdiff.{name}.__all__ names undefined {missing}"


def test_every_numkit_name_has_a_caller_in_the_package():
    # numkit is the kernel the package runs on; test tooling lives in tests/
    used = set()
    for name in MODULES:
        if name == "numkit":
            continue
        tree = module_tree(name)
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for a in node.names if a.name == "numkit"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numkit":
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                used.add(node.attr)
    unused = [attr for attr in numkit.__all__ if attr not in used]
    assert not unused, f"numkit names no other tkgdiff module uses: {unused}"


# the lower layers of the package and the only modules each imports: gndiff
# owns the token vocabulary's layout, so the denoiser needs nothing of corpus
LOWER_LAYER_IMPORTS = {"errors": set(), "corpus": {"errors"}, "geometry": {"errors"},
                       "numkit": {"errors"}, "gndiff": {"numkit", "errors"}}


@pytest.mark.parametrize("name", sorted(LOWER_LAYER_IMPORTS))
def test_a_lower_layer_imports_only_the_modules_its_table_entry_names(name):
    imported = set()
    for node in ast.walk(module_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else (a.name for a in node.names))
    assert imported == LOWER_LAYER_IMPORTS[name]


def test_only_numkit_starts_threads():
    # numkit's chunk runner is the package's one helper thread; a second
    # pool would contend with it and with BLAS for the same two cores
    importers = set()
    for name in MODULES:
        for node in ast.walk(module_tree(name)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in ("threading", "concurrent") for m in modules):
                importers.add(name)
    assert importers == {"numkit"}


# the only defaulted parameters in the package: train's optional paths
ALLOWED_DEFAULTS = {("engine", "train", "out_dir"), ("engine", "train", "resume_from")}


def test_no_function_in_the_package_defaults_a_parameter():
    # a default selects behaviour the caller did not choose: evaluate_split
    # ranked a model trained at lam = 8 with lam = 2 unless the caller said so
    found = set()
    for name in MODULES:
        tree = module_tree(name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                found.update((name, getattr(node, "name", "<lambda>"), arg.arg)
                             for arg in defaulted)
    extra = sorted(found - ALLOWED_DEFAULTS)
    assert not extra, f"defaulted parameters (module, function, parameter): {extra}"


def test_every_console_script_resolves():
    # an installed script whose target is missing crashes on every run
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"script {name} -> {target} does not resolve"


def test_the_benchmark_calls_resolve_with_their_signatures():
    # bench/run.py and bench/corpora.py call these by name and position; a
    # rename or a new required argument would crash every workload
    quads = np.array([[0, 0, 1, 0], [0, 0, 2, 1], [1, 0, 1, 2]], dtype=np.int64)
    store = corpus.QuadStore(quads, ["a", "b", "c"], ["r"], ["0", "1", "2"],
                             train_end=1, valid_end=2)
    assert evaluate._SCOPE_FOR_SPLIT["test"] == ("train", "valid", "test")
    index = corpus.build_periodic_index(store, 2.0, evaluate._SCOPE_FOR_SPLIT["test"])
    assert corpus.is_new_event(index, 0, 0, 2, 1) is True
    assert corpus.is_new_event(index, 0, 0, 1, 1) is False
    assert len(QueryBatch.from_quads(store.split("test"), index)) == 1
    assert isinstance(engine._NS_INIT, int)
    # the denoiser's work count reads its parameters and token ids by position
    assert list(inspect.signature(gndiff.denoise_x0_batch).parameters)[:2] == ["params", "xt"]
    for values in BENCH_CONFIGS:
        cfg = engine.TrainConfig(**values, seed=1)
        cfg.validate()
        # time_setup's parameter init, positional as it calls it
        init_rng = numkit.rng_for(cfg.seed, engine._NS_INIT)
        dpcl.init_params(store.n_entities, store.n_relations, cfg.d_dpcl, init_rng)
        gndiff.init_denoiser(store.n_entities, store.n_relations, cfg.d_diff, init_rng)


# bench/run.py wraps these by name to time them, and its tracer skips a name
# it cannot resolve without a word
TRACED_BY_NAME = ["dpcl.ce_loss", "dpcl.supcon_loss", "dpcl.QueryBatch.from_quads",
                  "evaluate.p_dpcl", "evaluate.evaluate_split",
                  "gndiff.denoise_x0_batch", "gndiff.batch_loss", "gndiff.p_diff_batch",
                  "numkit.adam_step", "numkit.Tensor.__init__",
                  "engine.train", "engine.save_checkpoint", "engine.load_checkpoint",
                  "corpus.build_periodic_index", "corpus.token_entropies",
                  "geometry.project_array_to_ball"]


@pytest.mark.parametrize("target", TRACED_BY_NAME)
def test_the_names_the_benchmark_traces_resolve(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"tkgdiff.{module}")
    for attr in path:
        owner = getattr(owner, attr, None)
        assert owner is not None, f"{target} does not resolve"
    assert callable(owner)
