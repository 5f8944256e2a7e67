"""Seeded inputs for the benchmark workloads, built with ``jointvec.synth``.

Everything here is input generation: it runs before any timed region and
is never part of a metric. Corpora and documents go to disk so that the
timed set-up reads them through the package's real loaders; the ``serve``
model is planted in memory and handed over as arrays.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from jointvec import synth
from jointvec.embeddings import derive_seed


@dataclass
class Inputs:
    """Files and in-memory arrays one workload run starts from."""

    languages: list
    pivot: str
    parallel: list = field(default_factory=list)  # (lang_a, lang_b, path_a, path_b)
    eval_docs: dict = field(default_factory=dict)  # lang -> path
    planted: dict = None  # lang -> (tokens, matrix, accumulators)
    align_langs: tuple = ()  # languages whose parallel text scores alignment P@1


def sentence_inputs(work_dir, seed, pairs, vocab_size, eval_docs) -> Inputs:
    """Twin en-de corpus plus per-language topic documents for CLDC."""
    tw = synth.make_twin_corpus("en", "de", pairs, seed=seed, vocab_size=vocab_size)
    paths = [os.path.join(work_dir, f"train.{lang}") for lang in ("en", "de")]
    synth.write_parallel_files(tw, *paths)
    inputs = Inputs(["de", "en"], "en", [("en", "de", *paths)], align_langs=("en", "de"))
    _write_eval_docs(inputs, work_dir, seed, eval_docs, vocab_size)
    return inputs


def document_inputs(work_dir, seed, doc_pairs, sentences_per_doc, vocab_size, eval_docs) -> Inputs:
    """Parallel en/de/fr documents (same latent seed per language); en is the pivot.

    de and fr never share a corpus, so their alignment has to travel
    through en.
    """
    paths = {}
    for lang in ("en", "de", "fr"):
        docs = synth.make_topic_documents(
            lang, doc_pairs, seed, sentences_per_doc=sentences_per_doc, vocab_size=vocab_size
        )
        paths[lang] = os.path.join(work_dir, f"train.{lang}.docs")
        synth.write_document_file(docs, paths[lang])
    parallel = [("en", other, paths["en"], paths[other]) for other in ("de", "fr")]
    inputs = Inputs(["de", "en", "fr"], "en", parallel, align_langs=("de", "fr"))
    _write_eval_docs(inputs, work_dir, seed, eval_docs, vocab_size)
    return inputs


def planted_inputs(work_dir, seed, rows, d, update_pairs, eval_docs, noise_scale) -> Inputs:
    """A 3-language model whose translations share one latent row.

    Row i of every language is latent row i plus small per-language noise,
    so the single-language nearest neighbour of ``en{i}`` is ``de{i}`` and
    ``fr{i}``. Latent rows carry their synth topic's centre, so documents
    classify across languages. The accumulators are those of a model that
    has already seen many updates. The small pivot corpus over the same
    latent vocabulary feeds the update-training step.
    """
    rng = np.random.default_rng([seed, 0x5E])
    langs = ["de", "en", "fr"]
    block = rows // synth.DEFAULT_TOPICS
    topic = np.minimum(np.arange(rows) // block, synth.DEFAULT_TOPICS - 1)
    scale = math.sqrt(0.1)
    centres = rng.normal(0.0, scale, size=(synth.DEFAULT_TOPICS, d))
    latent = centres[topic] + rng.normal(0.0, scale, size=(rows, d))
    planted = {}
    for lang in langs:
        tokens = [synth.surface_token(lang, i) for i in range(rows)]
        matrix = latent + rng.normal(0.0, noise_scale * scale, size=(rows, d))
        acc = rng.gamma(2.0, 50.0, size=(rows, d))
        planted[lang] = (tokens, matrix, acc)

    corpora = synth.make_pivot_corpora(
        "en", ("de", "fr"), update_pairs, seed=derive_seed(seed, 1), vocab_size=rows
    )
    parallel = []
    for other, tw in corpora.items():
        paths = [os.path.join(work_dir, f"update.en-{other}.{lang}") for lang in ("en", other)]
        synth.write_parallel_files(tw, *paths)
        parallel.append(("en", other, *paths))
    inputs = Inputs(langs, "en", parallel, planted=planted, align_langs=("en", "de"))
    _write_eval_docs(inputs, work_dir, seed, eval_docs, rows)
    return inputs


def _write_eval_docs(inputs: Inputs, work_dir, seed, n_docs, vocab_size) -> None:
    """Independent (non-parallel) topic documents per language for CLDC."""
    for li, lang in enumerate(inputs.languages):
        docs = synth.make_topic_documents(
            lang, n_docs, derive_seed(seed, 100 + li), sentences_per_doc=4, vocab_size=vocab_size
        )
        path = os.path.join(work_dir, f"eval.{lang}.docs")
        synth.write_document_file(docs, path)
        inputs.eval_docs[lang] = path
