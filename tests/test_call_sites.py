"""One momentum-SGD loop, one gradient check, one manipulation path, one network engine and one
detector definition: the package calls momentum_sgd and init_weights only inside backbone.fit,
central_difference_check only inside backbone._check_gradients, _mix only inside
manipulate.apply_manipulation, and _stretch only there and in manipulate._pitch, so every fit,
every gradient check and every stretch or noise mix runs through them. _run_layers runs every
forward pass, and detector_network builds a detector's network only where one is trained or
loaded. One parallel path: os.fork is called only in pipeline._map_in_children, and no module
builds a ThreadPoolExecutor, so every stage that uses the cores deals its work to forked shards.
One layer table: a LayerTable is built only where a trace or a feature table starts or is cut by
rows, and the pipeline never splits one back into per-layer arrays. One NSW1 API each way:
pack_tensors and read_tensor_stream are called only where a backbone or a detector is saved or
loaded, with no path-level wrapper between."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "voicetrace").glob("*.py"))
SINGLE_CALLERS = {
    "momentum_sgd": ["backbone.fit"],
    "init_weights": ["backbone.fit"],
    "central_difference_check": ["backbone._check_gradients"],
}
MANIPULATION_CALLERS = {
    "_mix": ["manipulate.apply_manipulation"],
    "_stretch": ["manipulate._pitch", "manipulate.apply_manipulation"],
}
NETWORK_CALLERS = {
    "detector_network": ["detector.train_detector", "detector.load_detector"],
    "_run_layers": ["backbone.forward_batch", "backbone._loss_and_grads", "backbone._check_gradients",
                    "detector.score_batch"],
}

NSW1_CALLERS = {
    "pack_tensors": ["backbone.save_weights", "detector.save_detector"],
    "read_tensor_stream": ["backbone.load_weights", "detector.load_detector"],
}

TABLE_BUILDERS = ["backbone.forward_batch", "coverage.acn_features", "coverage.tkan_features",
                  "pipeline._Stage", "pipeline._trace", "pipeline.cmd_calibrate"]


def _call_sites(source: str, module: str, name: str):
    """module.definition (module.<module> outside any) for each call of name in source, as a bare
    name, as an attribute, or under an alias it was imported as; a call anywhere inside a top-level
    function or class, decorators included, is counted in that function or class."""
    tree = ast.parse(source)
    callees = {name} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for alias in node.names if alias.name == name and alias.asname}
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if where == f"{module}.<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                                    ast.ClassDef)):
                inner = f"{module}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in callees:
                    sites.append(where)
            visit(child, inner)

    visit(tree, f"{module}.<module>")
    return sites


def _sites(name):
    """Every call site of name in src/, module by module."""
    return [site for path in SOURCES
            for site in _call_sites(path.read_text(encoding="utf-8"), path.stem, name)]


def test_the_walk_sees_a_call_in_every_form():
    source = (
        "from .nn import momentum_sgd as sgd\n"
        "from . import nn\n"
        "momentum_sgd(1)\n"                                          # module level
        "def a():\n    return momentum_sgd(1)\n"                     # bare name
        "def b():\n    return nn.momentum_sgd(1)\n"                  # attribute
        "def c():\n    return sgd(1)\n"                              # imported alias
        "def d():\n    return (lambda: momentum_sgd(1))()\n"         # in a lambda
        "def e():\n    return [momentum_sgd(i) for i in range(2)]\n"  # in a comprehension
        "def f():\n    def g():\n        return momentum_sgd(1)\n    return g\n"  # nested function
        "def h():\n    return print(momentum_sgd(1))\n"              # as an argument
        "class K:\n    def m(self):\n        return momentum_sgd(1)\n"  # in a method
        "async def i():\n    return momentum_sgd(1)\n"               # in a coroutine
        "@momentum_sgd(1)\ndef j():\n    pass\n"                     # in a decorator
        "def k():\n    return momentum_sgd\n"                        # a reference, not a call
    )
    assert _call_sites(source, "m", "momentum_sgd") == [
        "m.<module>", "m.a", "m.b", "m.c", "m.d", "m.e", "m.f", "m.h", "m.K", "m.i", "m.j"]


def test_every_module_is_walked():
    assert {"backbone.py", "detector.py", "manipulate.py", "nn.py", "pipeline.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("name, callers", SINGLE_CALLERS.items(), ids=SINGLE_CALLERS)
def test_each_training_and_checking_helper_has_one_call_site(name, callers):
    assert _sites(name) == callers


@pytest.mark.parametrize("name, callers", MANIPULATION_CALLERS.items(), ids=MANIPULATION_CALLERS)
def test_the_stretch_and_the_noise_mix_are_called_only_on_the_one_manipulation_path(name, callers):
    assert _sites(name) == callers


@pytest.mark.parametrize("name, callers", NETWORK_CALLERS.items(), ids=NETWORK_CALLERS)
def test_one_engine_runs_every_network_and_a_detector_network_is_built_once_per_model(name, callers):
    assert _sites(name) == callers


@pytest.mark.parametrize("name, callers", NSW1_CALLERS.items(), ids=NSW1_CALLERS)
def test_the_backbone_and_detector_files_use_the_one_bytes_level_nsw1_api(name, callers):
    assert _sites(name) == callers


def test_every_stage_uses_the_cores_through_one_fork_helper_and_no_thread_pool():
    assert _sites("fork") == ["pipeline._map_in_children"]
    assert _sites("ThreadPoolExecutor") == []


def test_a_layer_table_is_built_only_by_the_forward_pass_the_features_and_the_pipeline_s_trace_steps():
    # forward_batch per block, _trace joining the blocks' rows, cmd_calibrate taking the train rows,
    # _Stage.trace wrapping traces.csv, and the ACN and TKAN features
    assert _sites("LayerTable") == TABLE_BUILDERS


def test_the_pipeline_never_splits_a_matrix_into_per_layer_arrays():
    tree = ast.parse((SOURCES[0].parent / "pipeline.py").read_text(encoding="utf-8"))
    splits = {"split", "array_split", "hsplit"}
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in splits
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "numpy" for alias in node.names if alias.name in splits]
