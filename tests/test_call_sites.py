"""One momentum-SGD loop, one gradient check, one manipulation path, one network engine and one
detector definition: the package calls init_weights only inside backbone.fit, _loss_and_grads only
inside backbone.fit and backbone._check_gradients, _check_gradients only inside the backbone's and
the detector's gradient_check, _mix only inside manipulate.apply_manipulation, and _stretch only
there and in manipulate._pitch, so every fit, every gradient check and every stretch or noise mix
runs through them. _run_layers runs every forward pass, and detector_network builds a detector's
network only where one is trained or loaded. One parallel path: os.fork is called only in
pipeline._map_in_children, and no module builds a ThreadPoolExecutor, so every stage that uses the
cores deals its work to forked shards. One layer table: a LayerTable is built only where a trace or
a feature table starts or is cut by rows, and the pipeline never splits one back into per-layer
arrays. One NSW1 API each way: pack_tensors and read_tensor_stream are called only where a backbone
or a detector is saved or loaded, with no path-level wrapper between. One output path: in the
pipeline every writer is the write argument of a _Stage.output call, or is called in a lambda that is,
so every file a stage writes, but the corpus clips, is recorded for its audit. One failure path for a bad
input: the pipeline decodes clips only in its block decoder, noise WAVs load only as _Stage.need's loader,
and the CLI names no FormatError, so each one leaves its stage as a StageError with a _Stage.remedy."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "voicetrace").glob("*.py"))
SINGLE_CALLERS = {
    "init_weights": ["backbone.fit"],
    "_loss_and_grads": ["backbone._check_gradients", "backbone.fit"],
    "_check_gradients": ["backbone.gradient_check", "detector.gradient_check"],
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

WRITERS = ("write_report", "write_feature_csv", "save_weights", "save_detector", "save_thresholds", "save_manifest",
           "save_wav", "copyfile")

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


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _opens_to_write(node) -> bool:
    """An open() or .open() call whose mode is a literal that writes; a pipe end, opened with a mode held
    in a variable, is no file a stage writes."""
    if not (isinstance(node, ast.Call) and _name(node.func) == "open"):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def _unrecorded_writes(source: str):
    """(name, line) of each use of a writer that is not the write argument of the innermost output() call
    around it, nor inside a lambda that is. The writers are WRITERS and each top-level function that opens
    a file to write, which must be passed to output() at least once (else line 0); open() to write may
    appear only inside such a function."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    opening = {f.name for f in tree.body if isinstance(f, ast.FunctionDef) and any(map(_opens_to_write, ast.walk(f)))}

    def recorded(node):
        child = node
        while child in parent:
            up = parent[child]
            if isinstance(up, ast.Call) and _name(up.func) == "output":
                return up.args[1:2] == [child] and (child is node or isinstance(child, ast.Lambda))
            child = up
        return False

    uses = [node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
            and _name(node) in {*WRITERS, *opening}]
    bad = [(_name(node), node.lineno) for node in uses if not recorded(node)]
    bad += [(name, 0) for name in opening if name not in map(_name, uses)]
    bad += [("open", node.lineno) for f in tree.body if getattr(f, "name", None) not in opening
            for node in ast.walk(f) if _opens_to_write(node)]
    return sorted(bad)


def test_the_write_check_sees_each_way_round_the_output_path():
    source = (
        "def ok(stage, model, rows):\n"
        "    stage.output(p, write_report, rows)\n"                        # the write argument
        "    stage.output(p, lambda path: save_detector(model, path))\n"   # called in a lambda
        "    stage.output(p, _rows, rows)\n"                               # a writer of the module's own
        "def _rows(path, rows):\n"
        "    with open(path, 'w', encoding='utf-8') as fh:\n"
        "        fh.write(rows)\n"
        "def bad(stage, model, rows, end, mode):\n"
        "    save_detector(model, p)\n"                                    # 9: called outside output
        "    stage.output(p, write_report, save_weights(model, p))\n"      # 10: called for an argument
        "    stage.output(p, wrap(shutil.copyfile))\n"                     # 11: not in a lambda
        "    open(end, mode).close()\n"                                    # a mode in a variable: a pipe end
        "    return [copyfile]\n"                                          # 13: a writer handed on
        "def _unused(path):\n"
        "    Path(path).open('w')\n"                                       # an opening writer never passed
        "class K:\n"
        "    def m(self, p):\n"
        "        open(p, mode='a').close()\n"                              # 18: opened outside a writer
    )
    assert _unrecorded_writes(source) == [("_unused", 0), ("copyfile", 11), ("copyfile", 13), ("open", 18),
                                          ("save_detector", 9), ("save_weights", 10)]


def test_every_file_a_stage_writes_goes_through_its_one_output_path():
    assert _unrecorded_writes((SOURCES[0].parent / "pipeline.py").read_text(encoding="utf-8")) == []
    # the pipeline writes a file's text or bytes itself only for the audit
    assert [site for name in ("write_text", "write_bytes") for site in _sites(name)
            if site.startswith("pipeline.")] == ["pipeline._Stage"]
    # the library writes only the corpus clips itself; each other writer is called only by the pipeline
    assert _sites("save_wav") == ["corpus.generate_corpus", "pipeline.cmd_gen_data"]
    assert _sites("save_manifest") == ["pipeline.cmd_gen_data"]
    assert {site.split(".")[0] for name in WRITERS if name != "save_wav" for site in _sites(name)} == {"pipeline"}
    manipulate = ast.parse((SOURCES[0].parent / "manipulate.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(manipulate) if isinstance(node, ast.Call) and (
        _name(node.func) in {*WRITERS, "write_text", "write_bytes", "mkdir"} or _opens_to_write(node))]


def test_a_bad_clip_or_noise_wav_can_leave_a_stage_only_through_its_remedy():
    # _map_blocks gives the decoder's FormatError the manifest's remedy, and need the noise WAV's
    assert [site for site in _sites("load_wav") if site.startswith("pipeline.")] == ["pipeline._load_clips"]
    assert _sites("load_noise_bank") == []
    assert "FormatError" not in (SOURCES[0].parent / "cli.py").read_text(encoding="utf-8")
