"""The names the benchmark's tracer hooks into still exist where it looks for them.

A traced benchmark run swaps each function in ``perfbench/spans.SITES`` for a
wrapper at its home module and at every listed import site, and reads some
arguments by name. A rename or a dropped import here would break that run.
"""

import importlib.util
import inspect
from pathlib import Path

from promptsum import decoding, model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_holds_the_home_function():
    # Among others, evaluation must import encode_source, decode_logits,
    # beam_search and rouge_score by name.
    for name, (home, attr, sites, _count) in _spans().SITES.items():
        function = home.__dict__[attr]
        for owner in sites:
            assert owner.__dict__[attr] is function, f"{name}: {owner.__name__}.{attr}"


def test_counted_arguments_keep_their_names():
    parameters = inspect.signature(model.decode_logits).parameters
    assert "config" in parameters and "tgt_prefix" in parameters


def test_generate_check_can_rescore():
    assert callable(decoding.sequence_logprob)
