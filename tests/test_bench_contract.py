"""The benchmark's view of the program: `perfbench/run.py --trace 1` wraps
functions by (owner, attribute) name and reads some of their positional
arguments. A rename or a reordered signature here would silently break a
traced run, so these tests load its `trace_targets()` and check each one.
`perfbench/workloads.py` drives the program's public API, so each of its
workloads is also set up and run once at 8 utterances per split."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from agadapt.model import ModelConfig, Seq2SeqModel, Vocabulary, build_prompt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling `tracing`
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        return run.trace_targets()


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        return module


def positional(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_every_target_resolves(targets):
    assert targets
    for owner, attribute, span, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{span}: {owner}.{attribute}"


def test_annotated_arguments_sit_where_the_annotators_read_them():
    from agadapt import training

    # args[0] is the model (self) for the two methods
    assert positional(Seq2SeqModel.greedy_decode)[3:5] == ["prompt_ids", "max_new"]
    assert positional(Seq2SeqModel.forward)[2] == "tokens"
    assert positional(training.adamw_step)[2] == "grads"


def test_decode_annotator_counts_emitted_tokens(targets):
    annotate = {span: fn for _, _, span, fn in targets}["model.greedy_decode"]
    vocab = Vocabulary.build(4, 4)
    model = Seq2SeqModel(ModelConfig(enc_layers=1, dec_layers=1, heads=2, width=8,
                                     ffn_width=16, bottleneck=2, feat_dim=6, max_len=16),
                         vocab)
    memory, col_mask = model.encode(np.random.default_rng(0).normal(size=(2, 5, 6)))
    prompt = build_prompt()
    args = (model, memory, col_mask, prompt, 3)
    hyps = model.greedy_decode(*args[1:])
    # a hypothesis shorter than the limit also emitted its <eot>
    want = sum(len(h) + (len(h) < 3) for h in hyps)
    assert annotate(args, {}, hyps) == {"emitted": want}


@pytest.mark.parametrize("name", ["pretrain", "adapt-ag", "eval-decode"])
def test_workload_unit_runs_clean(workloads, name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", {workload: dict.fromkeys(splits, 8)
                                             for workload, splits in workloads.SIZES.items()})
    inputs = workloads.setup(name, 0, tmp_path, workloads.load_prepared())
    unit = workloads.UNITS[name](inputs, 0)
    result = unit.run(unit.fresh())
    assert result.failures == []
    assert result.utterances > 0
    if name == "adapt-ag":  # layer-0 counts are 0 on the prepared backbone
        assert result.quality["heads"] == "[(1, 0), (1, 1)]"
