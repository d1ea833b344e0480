"""One path per job from envelope to op.

AST walks over ``src/repro`` with the helpers of
``tests/journal/test_ledger_structure.py``: a second envelope encoder, a
second copy of the actuation op loop or a second step-time sampling path
fails here by name.
"""

import ast

from tests.journal.test_ledger_structure import identifiers, modules, modules_where

GONE = {
    "_encode_update", "_UPDATE_TOKENS", "codec_stats",
    "VectorizedStepModel", "nominal_block",
}


def actuation_stage():
    (cls,) = [
        n for n in ast.walk(modules()["core/actuation.py"])
        if isinstance(n, ast.ClassDef) and n.name == "ActuationStage"
    ]
    return cls


def method_calls(func):
    """Names of the ``self.<name>(...)`` calls inside *func*."""
    return {
        n.func.attr for n in ast.walk(func)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "self"
    }


def test_no_removed_fast_path_identifier_remains():
    def names_one(node):
        # A string constant too: export tables (`__all__`, the lazy
        # `repro.api` map) spell names as strings.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in GONE
        return bool(GONE & set(identifiers(node)))

    assert modules_where(names_one) == []


def test_actuation_has_one_op_loop_and_one_failure_handler():
    nodes = list(ast.walk(actuation_stage()))
    loops = [
        n for n in nodes
        if isinstance(n, ast.For) and ast.unparse(n.iter) == "plan.ordered_ops()"
    ]
    handlers = [
        n for n in nodes
        if isinstance(n, ast.ExceptHandler) and n.type is not None
        and ast.unparse(n.type) == "(ActuationError, AllocationError, LaunchError)"
    ]
    assert len(loops) == 1 and len(handlers) == 1
    assert len([n for n in nodes if isinstance(n, (ast.For, ast.While))]) == 2  # + _compensate's


def test_execute_and_resume_plan_share_the_loop_without_calling_each_other():
    # perfbench wraps both public methods: one calling the other would
    # count core.actuation.ops twice.
    methods = {n.name: n for n in actuation_stage().body if isinstance(n, ast.FunctionDef)}
    for name in ("execute", "resume_plan"):
        calls = method_calls(methods[name])
        assert calls == {"_run_plan"}, (name, calls)
    assert not {"execute", "resume_plan"} & method_calls(methods["_run_plan"])


def test_envelopes_are_encoded_in_one_place():
    def encodes(node):
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("encode", "dumps", "iterencode")
        )

    tree = modules()["util/jsonmsg.py"]
    calls = [ast.unparse(n.func) for n in ast.walk(tree) if encodes(n)]
    assert calls == ["_ENC.encode"]
    # ... and nothing assembles JSON text by hand beside it.
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
    assert "join" not in {name for n in ast.walk(tree) for name in identifiers(n)}


def test_step_times_are_sampled_in_one_place():
    tree = modules()["apps/scaling.py"]
    owners = [
        cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "sample"
    ]
    assert owners == ["StepTimeModel"]
