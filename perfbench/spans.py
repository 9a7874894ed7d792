"""Spans around calls into the package's modules, recorded from outside.

A traced operation swaps each public function listed in ``SITES`` for a
wrapper at every import site its callers use (``training.decode_logits`` as
well as ``model.decode_logits``), so the package's own code is unchanged.
A span is ``[name, start, end, parent index, operation id, value]``; spans
stay in memory and are written out once, after the run. ``value`` carries a
count taken at the boundary (tokens, decoder positions) when one is defined.
"""

from __future__ import annotations

import inspect
import json
import statistics
from time import perf_counter

from promptsum import autodiff, cli, corpus, decoding, evaluation, model, pseudodata, rouge, training


def _n_tokens(bound, result):
    return result[1]


def _positions(bound, result):
    # Decoder rows run: the prompt block, BOS and the prefix.
    return bound.arguments["config"].effective_len_de + 1 + len(list(bound.arguments["tgt_prefix"]))


def _returned_len(bound, result):
    return len(result)


def _n_docs(bound, result):
    return len(bound.arguments["test"])


# span name -> (function's home module, attribute, other import sites, count)
SITES = {
    "training.train_step": (training, "train_step", (), None),
    "training.batch_mean_nll": (training, "batch_mean_nll", (), _n_tokens),
    "model.encode_source": (model, "encode_source", (training, decoding, evaluation), None),
    "model.decode_logits": (model, "decode_logits", (training, decoding, evaluation), _positions),
    "decoding.beam_search": (decoding, "beam_search", (evaluation,), _returned_len),
    "evaluation.evaluate": (evaluation, "evaluate", (), _n_docs),
    "evaluation.generate_predictions": (evaluation, "generate_predictions", (), None),
    "evaluation.perplexity": (evaluation, "perplexity", (), None),
    "rouge.rouge_n_f1": (rouge, "rouge_n_f1", (pseudodata, training), None),
    "rouge.rouge_score": (rouge, "rouge_score", (evaluation,), None),
    "pseudodata.gsg_scores": (pseudodata, "gsg_scores", (), None),
    "pseudodata.filter_pseudo": (pseudodata, "filter_pseudo", (cli,), None),
    "corpus.build_vocab": (corpus, "build_vocab", (cli,), None),
    "corpus.encode_document": (corpus, "encode_document", (cli,), None),
    "corpus.load_dataset": (corpus, "load_dataset", (cli,), None),
    "cli.dispatch": (cli, "dispatch", (), None),
}
# Methods of autodiff.Tensor, wrapped on the class.
BACKWARD = "autodiff.backward"
# cli.dispatch spans are named per subcommand, from argv[0].
DISPATCH = ("cli.dispatch.build-vocab", "cli.dispatch.build-pseudo")

TIMED = tuple(name for name in SITES if name != "cli.dispatch") + (BACKWARD,) + DISPATCH
# The operation id of the spans recorded during set-up, and the functions
# set-up calls, which are reported apart from the operations.
SETUP = "setup"
SETUP_TIMED = ("corpus.load_dataset", "corpus.encode_document")

NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.tensors_created: dict[object, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, count):
        signature = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            span = self._open(f"{name}.{args[0][0]}" if name == "cli.dispatch" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count:
                span[VALUE] = count(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, op_id) -> None:
        self.op_id = op_id
        for name, (home, attr, sites, count) in SITES.items():
            wrapper = self._wrap(name, getattr(home, attr), count)
            for owner in (home,) + sites:
                self._patch(owner, attr, wrapper)
        tensor = autodiff.Tensor
        self._patch(tensor, "backward", self._wrap(BACKWARD, tensor.backward, None))
        init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors_created[self.op_id] = self.tensors_created.get(self.op_id, 0) + 1
            init(obj, *args, **kwargs)

        self._patch(tensor, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.op_id = None

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, operation id, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _under(spans: list[list], index: int, name: str) -> bool:
    """Whether a span named ``name`` encloses span ``index``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(
    tracer: Tracer, op_durations: list[float], op_traced: list[bool], counts: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, keyed by metric name.

    Totals are per traced operation, so two commits compare at equal work
    however many operations fit the window. Every wrapped function reports
    ``.calls`` and ``.s`` (calls and seconds per traced operation) and
    ``.p50_s`` (median seconds per call); a function nothing called reports
    zeros. Set-up spans are left out of these and reported as ``setup.*``
    totals. Self time is a span's duration minus its direct children's. The
    tracing overhead is the median traced operation minus the median
    untraced one. ``counts`` holds metrics read from the outputs instead.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    by_name: dict[tuple[str, bool], list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
        by_name.setdefault((span[NAME], span[OP] == SETUP), []).append(i)

    def select(name: str, setup: bool = False, under: str | None = None) -> list[int]:
        found = by_name.get((name, setup), [])
        return found if under is None else [i for i in found if _under(spans, i, under)]

    def durations(name: str, setup: bool = False) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in select(name, setup)]

    def self_s(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] - child_s[i] for i in select(name))

    def value_sum(name: str, under: str | None = None) -> float:
        return sum(spans[i][VALUE] or 0 for i in select(name, under=under))

    on = [d for d, t in zip(op_durations, op_traced) if t]
    off = [d for d, t in zip(op_durations, op_traced) if not t]

    def per_op(total: float) -> float:
        return total / len(on) if on else 0.0

    out: dict[str, float] = {}
    for name in TIMED:
        d = durations(name)
        out[f"{name}.calls"] = per_op(len(d))
        out[f"{name}.s"] = per_op(sum(d))
        out[f"{name}.p50_s"] = statistics.median(d) if d else 0.0
    for name in SETUP_TIMED:
        d = durations(name, setup=True)
        out[f"setup.{name}.calls"] = len(d)
        out[f"setup.{name}.s"] = sum(d)

    tokens = value_sum("decoding.beam_search")
    beam_positions = value_sum("model.decode_logits", under="decoding.beam_search")
    docs = value_sum("evaluation.evaluate")
    tensors = tracer.tensors_created
    out["training.update.s"] = per_op(self_s("training.train_step"))
    out["training.target_tokens"] = per_op(value_sum("training.batch_mean_nll"))
    out["autodiff.tensors_created"] = per_op(sum(n for op, n in tensors.items() if op != SETUP))
    out["setup.autodiff.tensors_created"] = tensors.get(SETUP, 0)
    out["model.decoder_positions"] = per_op(value_sum("model.decode_logits"))
    out["decoding.beam_self_s"] = per_op(self_s("decoding.beam_search"))
    out["decoding.tokens_generated"] = per_op(tokens)
    out["decoding.positions_per_token"] = beam_positions / tokens if tokens else 0.0
    out["evaluation.encodes_per_doc"] = (
        len(select("model.encode_source", under="evaluation.evaluate")) / docs if docs else 0.0
    )
    out["cli.self_s"] = per_op(sum(self_s(name) for name in DISPATCH))
    out["pseudodata.kept_share"] = 0.0
    out.update(counts)

    out["trace.ops"] = len(on)
    out["trace.overhead_s"] = out["trace.overhead_share"] = 0.0
    if on and off:
        out["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
        out["trace.overhead_share"] = out["trace.overhead_s"] / statistics.median(off)
    return out
