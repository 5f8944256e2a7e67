"""Synthetic multilingual corpora for end-to-end checks and demos.

A latent vocabulary is split into equal per-topic blocks. Sentences draw
most tokens from their topic's block and the rest uniformly, so topic
identity is recoverable from word usage. Each language renders a latent
word id as its own surface string, which makes translation pairs exact
by construction and lets the same latent sentence serve as parallel text
in any number of languages.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import SENTENCE_SEP, writing

DEFAULT_LATENT_VOCAB = 200
DEFAULT_TOPICS = 4


@dataclass
class TwinCorpus:
    """Word-for-word parallel corpus over two surface vocabularies."""

    lang_a: str
    lang_b: str
    sents_a: list[list[str]]
    sents_b: list[list[str]]
    topics: list[int]


@dataclass
class SynthDocument:
    doc_id: str
    lang: str
    label: str
    sentences: list[list[str]]


def surface_token(lang: str, latent_id: int) -> str:
    return f"{lang}{latent_id:03d}"


def _draw_sentence(rng, topic, n_topics, vocab_size, in_topic, length):
    block = vocab_size // n_topics
    lo, hi = length
    n = int(rng.integers(lo, hi + 1))
    ids = []
    for _ in range(n):
        if rng.random() < in_topic:
            ids.append(int(rng.integers(topic * block, (topic + 1) * block)))
        else:
            ids.append(int(rng.integers(0, vocab_size)))
    return ids


def latent_topic_sentences(
    n_sentences: int,
    seed: int,
    n_topics: int = DEFAULT_TOPICS,
    vocab_size: int = DEFAULT_LATENT_VOCAB,
    in_topic: float = 0.8,
    length: tuple[int, int] = (4, 10),
) -> tuple[list[list[int]], list[int]]:
    """Draw latent sentences with topics cycling so classes stay balanced."""
    rng = np.random.default_rng(seed)
    sents, topics = [], []
    for i in range(n_sentences):
        t = i % n_topics
        sents.append(_draw_sentence(rng, t, n_topics, vocab_size, in_topic, length))
        topics.append(t)
    return sents, topics


def render(latent_sents: list[list[int]], lang: str) -> list[list[str]]:
    return [[surface_token(lang, i) for i in s] for s in latent_sents]


def make_twin_corpus(
    lang_a: str,
    lang_b: str,
    n_sentences: int = 500,
    seed: int = 0,
    **dist,
) -> TwinCorpus:
    """Parallel corpus of two languages realizing the same latent sentences."""
    latent, topics = latent_topic_sentences(n_sentences, seed, **dist)
    return TwinCorpus(lang_a, lang_b, render(latent, lang_a), render(latent, lang_b), topics)


def make_pivot_corpora(
    pivot: str,
    others: tuple[str, ...],
    n_sentences: int = 500,
    seed: int = 0,
    **dist,
) -> dict[str, TwinCorpus]:
    """One pivot-X corpus per non-pivot language, all sharing latent sentences.

    The non-pivot languages never appear in the same corpus, so any
    alignment between them has to travel through the pivot.
    """
    latent, topics = latent_topic_sentences(n_sentences, seed, **dist)
    pivot_side = render(latent, pivot)
    return {
        lang: TwinCorpus(pivot, lang, pivot_side, render(latent, lang), topics)
        for lang in others
    }


def make_topic_documents(
    lang: str,
    n_docs: int,
    seed: int,
    sentences_per_doc: int = 5,
    n_topics: int = DEFAULT_TOPICS,
    vocab_size: int = DEFAULT_LATENT_VOCAB,
    in_topic: float = 0.8,
    length: tuple[int, int] = (4, 10),
) -> list[SynthDocument]:
    """Single-label documents whose sentences follow the doc's topic."""
    rng = np.random.default_rng(seed)
    docs = []
    for j in range(n_docs):
        t = j % n_topics
        latent = [
            _draw_sentence(rng, t, n_topics, vocab_size, in_topic, length)
            for _ in range(sentences_per_doc)
        ]
        docs.append(SynthDocument(f"{lang}-doc{j:04d}", lang, f"t{t}", render(latent, lang)))
    return docs


def write_parallel_files(corpus: TwinCorpus, path_a, path_b) -> None:
    for path, sents in ((path_a, corpus.sents_a), (path_b, corpus.sents_b)):
        with writing(path) as fh:
            for s in sents:
                fh.write(" ".join(s) + "\n")


def write_document_file(docs: list[SynthDocument], path) -> None:
    with writing(path) as fh:
        for d in docs:
            body = SENTENCE_SEP.join(" ".join(s) for s in d.sentences)
            fh.write(f"{d.doc_id}\t{d.lang}\t{d.label}\t{body}\n")
