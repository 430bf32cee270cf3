"""Only the pipeline names stages in its messages, and each producer it names is a CLI stage."""

import ast
from pathlib import Path

from voicetrace.cli import _STAGES

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "voicetrace").glob("*.py"))
PIPELINE = next(p for p in SOURCES if p.name == "pipeline.py")
STAGE_NAMES = {name for name, _, _ in _STAGES}


def _need_producers(source: str):
    """The producer of every .need(path, producer, ...) call in source; None where it is no literal."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "need":
            producer = node.args[1] if len(node.args) > 1 else None
            yield producer.value if isinstance(producer, ast.Constant) else None


def test_the_check_sees_every_need_call():
    source = 'stage.need(p, "extract")\nself.need(q, "calibrate", load, spec)\nstage.need(r, name)\n'
    assert list(_need_producers(source)) == ["extract", "calibrate", None]


def test_every_producer_passed_to_need_is_a_cli_stage():
    producers = list(_need_producers(PIPELINE.read_text(encoding="utf-8")))
    assert len(producers) >= 8
    assert set(producers) <= STAGE_NAMES, sorted(set(producers) - STAGE_NAMES)


def test_only_the_pipeline_tells_which_stage_to_run():
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        named = [phrase for phrase in ("stage first", "rerun the") if phrase in text]
        assert path == PIPELINE or not named, f"{path.name} says {named}"
