"""Text data pipeline: tokenizer, corpus format, sentence pairs, masking.

The corpus format is UTF-8 plain text with blank-line-separated documents and
one sentence per line.  Tokenization is whitespace splitting with lowercasing
over a frequency-capped vocabulary; five special tokens hold the fixed low
ids.  Pair construction and masking follow the usual two-task pretraining
recipe: balanced consecutive/cross-document sentence pairs, and 15% token
selection with an 80/10/10 mask/keep/randomize split.

Also hosts the synthetic data used by the smoke suites: a topic-clustered
corpus whose sentences mostly walk a per-topic word ring (so masked tokens
are predictable from neighbors, and cross-document pairs are detectable by
topic), and a marker-counting classification task over the same word
inventory: ``(text, label)`` pairs whose text carries ``label + 1`` markers.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import substream

Array = np.ndarray

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
N_SPECIALS = len(SPECIAL_TOKENS)

IGNORE_LABEL = -100

MASK_FRACTION = 0.15
MASK_TO_MASK = 0.80
MASK_TO_RANDOM = 0.10


class DataError(ValueError):
    """Corpus or dataset violates a data-pipeline contract."""


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens; empty input gives an empty list."""
    return text.lower().split()


class Vocab:
    """Frequency-capped word vocabulary with fixed special-token ids."""

    def __init__(self, content_tokens: Sequence[str]):
        self.tokens: list[str] = list(SPECIAL_TOKENS) + list(content_tokens)
        self.ids: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, texts: Iterable[str], max_size: int = 4096) -> "Vocab":
        """Count words over ``texts`` and keep the most frequent ones.

        Ties break lexicographically so builds are reproducible regardless of
        input order.  ``max_size`` bounds the total size including specials.
        """
        if max_size <= N_SPECIALS:
            raise DataError(f"max_size must exceed {N_SPECIALS} to fit the special tokens")
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(tokenize(text))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([tok for tok, _ in ranked[: max_size - N_SPECIALS]])

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        return [self.ids.get(tok, UNK_ID) for tok in tokenize(text)]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


@dataclass
class Corpus:
    """Documents as lists of token-id sentences plus the vocabulary."""

    documents: list[list[list[int]]]
    vocab: Vocab


def parse_corpus(text: str, vocab: Vocab | None = None, max_vocab: int = 4096) -> Corpus:
    """Parse blank-line-separated documents of newline-separated sentences.

    Lines that tokenize to nothing are dropped, so every stored sentence is
    non-empty; documents left without sentences are dropped entirely.  When
    no vocabulary is supplied one is built from the text itself.
    """
    raw_docs: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            raw_docs[-1].append(line)
        elif raw_docs[-1]:
            raw_docs.append([])
    if vocab is None:
        vocab = Vocab.build((line for doc in raw_docs for line in doc), max_size=max_vocab)
    documents = []
    for doc in raw_docs:
        sentences = [ids for line in doc if (ids := vocab.encode(line))]
        if sentences:
            documents.append(sentences)
    return Corpus(documents=documents, vocab=vocab)


# --------------------------------------------------------------------------
# sentence pairs
# --------------------------------------------------------------------------


def _truncate_pair(a: list[int], b: list[int], budget: int) -> tuple[list[int], list[int]]:
    """Trim the longer side from its end until the pair fits the budget."""
    a, b = list(a), list(b)
    while len(a) + len(b) > budget:
        longer = a if len(a) >= len(b) else b
        if len(longer) <= 1:
            raise DataError(f"cannot fit a sentence pair into a budget of {budget} tokens")
        longer.pop()
    return a, b


def make_nsp_pairs(
    corpus: Corpus, rng: np.random.Generator, max_seq: int
) -> Iterator[tuple[list[int], list[int], int]]:
    """Endless stream of (first segment, second segment, is-consecutive).

    Positives take two consecutive sentences from one document; negatives
    take the second sentence from a different document.  Labels are balanced
    by a fair coin.  Segments are trimmed so that the assembled sequence
    (leading classifier token, two separators) fits ``max_seq``.
    """
    if len(corpus.documents) < 2:
        raise DataError("pair construction needs at least two documents for negatives")
    multi = [d for d in corpus.documents if len(d) >= 2]
    if not multi:
        raise DataError("pair construction needs a document with at least two sentences")
    budget = max_seq - 3
    if budget < 2:
        raise DataError(f"max_seq={max_seq} cannot hold a pair with its framing tokens")
    n_docs = len(corpus.documents)
    while True:
        positive = rng.random() < 0.5
        if positive:
            doc = multi[int(rng.integers(len(multi)))]
            i = int(rng.integers(len(doc) - 1))
            a, b = doc[i], doc[i + 1]
        else:
            di = int(rng.integers(n_docs))
            dj = int(rng.integers(n_docs - 1))
            if dj >= di:
                dj += 1
            doc_a, doc_b = corpus.documents[di], corpus.documents[dj]
            a = doc_a[int(rng.integers(len(doc_a)))]
            b = doc_b[int(rng.integers(len(doc_b)))]
        a, b = _truncate_pair(a, b, budget)
        yield a, b, int(positive)


def assemble_pair(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Frame two segments as one classifier-ready sequence with segment ids."""
    tokens = [CLS_ID, *a, SEP_ID, *b, SEP_ID]
    segments = [0] * (len(a) + 2) + [1] * (len(b) + 1)
    return tokens, segments


@dataclass
class TokenBatch:
    """One training batch: inputs, labels, and the real-position mask."""

    token_ids: Array
    segment_ids: Array
    mlm_labels: Array
    nsp_labels: Array
    pad_mask: Array


def assemble_nsp_batch(pairs: Sequence[tuple[Sequence[int], Sequence[int], int]]) -> TokenBatch:
    """Stack assembled pairs into rectangular arrays, padding to the longest."""
    rows = [assemble_pair(a, b) for a, b, _ in pairs]
    width = max(len(tokens) for tokens, _ in rows)
    n = len(rows)
    token_ids = np.full((n, width), PAD_ID, dtype=np.int64)
    segment_ids = np.zeros((n, width), dtype=np.int64)
    pad_mask = np.zeros((n, width), dtype=bool)
    for i, (tokens, segments) in enumerate(rows):
        token_ids[i, : len(tokens)] = tokens
        segment_ids[i, : len(segments)] = segments
        pad_mask[i, : len(tokens)] = True
    return TokenBatch(
        token_ids=token_ids,
        segment_ids=segment_ids,
        mlm_labels=np.full((n, width), IGNORE_LABEL, dtype=np.int64),
        nsp_labels=np.array([label for _, _, label in pairs], dtype=np.int64),
        pad_mask=pad_mask,
    )


def mask_tokens(batch: TokenBatch, vocab_size: int, rng: np.random.Generator) -> TokenBatch:
    """Select 15% of maskable tokens; corrupt them 80/10/10; label the rest ignore.

    Maskable means a real (non-padding) position holding a non-special token.
    Of the selected positions 80% become the mask token, 10% are replaced by a
    uniformly random content token, and 10% stay unchanged; labels carry the
    original token exactly at selected positions.  Sequences without a single
    maskable token are dropped with a warning; an entirely unmaskable batch is
    an error.
    """
    if vocab_size <= N_SPECIALS:
        raise DataError("vocab has no content tokens to substitute during masking")
    maskable = batch.pad_mask & (batch.token_ids >= N_SPECIALS)
    alive = maskable.any(axis=1)
    if not alive.all():
        warnings.warn(
            f"dropped {int((~alive).sum())} sequence(s) with no maskable tokens",
            stacklevel=2,
        )
    if not alive.any():
        raise DataError("no sequence in the batch has a maskable token")
    token_ids = batch.token_ids[alive].copy()
    maskable = maskable[alive]

    selected = (rng.random(token_ids.shape) < MASK_FRACTION) & maskable
    action = rng.random(token_ids.shape)
    replacements = rng.integers(N_SPECIALS, vocab_size, size=token_ids.shape)

    labels = np.where(selected, token_ids, IGNORE_LABEL)
    token_ids[selected & (action < MASK_TO_MASK)] = MASK_ID
    randomize = selected & (action >= MASK_TO_MASK) & (action < MASK_TO_MASK + MASK_TO_RANDOM)
    token_ids[randomize] = replacements[randomize]
    return TokenBatch(
        token_ids=token_ids,
        segment_ids=batch.segment_ids[alive],
        mlm_labels=labels,
        nsp_labels=batch.nsp_labels[alive],
        pad_mask=batch.pad_mask[alive],
    )


# --------------------------------------------------------------------------
# synthetic corpus and task
# --------------------------------------------------------------------------

TOY_TOPICS = 4
TOY_WORDS_PER_TOPIC = 12
TOY_MARKER = "mark"
TOY_MARKER_PAIR_RATE = 0.3
_RING_FOLLOW = 0.85


def _topic_words(topic: int, words_per_topic: int) -> list[str]:
    return [f"t{topic}w{j:02d}" for j in range(words_per_topic)]


def _ring_walk(rng: np.random.Generator, ring: Sequence[str], length: int) -> list[str]:
    """Mostly-sequential walk over a topic's word ring with occasional jumps."""
    j = int(rng.integers(len(ring)))
    words = [ring[j]]
    for _ in range(length - 1):
        if rng.random() < _RING_FOLLOW:
            j = (j + 1) % len(ring)
        else:
            j = int(rng.integers(len(ring)))
        words.append(ring[j])
    return words


def _insert_markers(rng: np.random.Generator, words: list[str], count: int) -> None:
    """Insert ``count`` marker words in place, at distinct random slots."""
    slots = rng.choice(len(words) + 1, size=count, replace=False)
    for pos in sorted((int(s) for s in slots), reverse=True):
        words.insert(pos, TOY_MARKER)


def generate_toy_corpus(
    seed: int = 0,
    docs: int = 40,
    sentences_per_doc: int = 12,
    topics: int = TOY_TOPICS,
    words_per_topic: int = TOY_WORDS_PER_TOPIC,
    min_len: int = 5,
    max_len: int = 9,
) -> str:
    """Topic-clustered corpus whose sentences mostly walk a per-topic word ring.

    Each document belongs to one topic; a sentence starts at a random word of
    the topic and usually steps to the next word on the ring, occasionally
    jumping.  A fraction of sentences additionally carry a marker word —
    always exactly twice.  The all-or-two pattern gives masked-token training
    a second kind of structure beyond the ring bigrams: a visible lone marker
    means the mask hiding its partner is probably a marker too.
    """
    rng = substream(seed, "toy-corpus")
    rings = [_topic_words(t, words_per_topic) for t in range(topics)]
    blocks = []
    for d in range(docs):
        ring = rings[d % topics]
        lines = []
        for _ in range(sentences_per_doc):
            length = int(rng.integers(min_len, max_len + 1))
            words = _ring_walk(rng, ring, length)
            if rng.random() < TOY_MARKER_PAIR_RATE:
                _insert_markers(rng, words, 2)
            lines.append(" ".join(words))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def generate_toy_task(
    seed: int = 0,
    count: int = 200,
    min_len: int = 5,
    max_len: int = 9,
) -> list[tuple[str, int]]:
    """Marker-counting classification task: ``(text, label)`` pairs.

    Each example's label is a fair coin; its text is a ring walk over a
    uniformly drawn topic, in the toy corpus's sentence shape, carrying
    ``label + 1`` marker words at distinct random slots.  Telling one marker
    from two means counting a token anywhere in the sentence, the structure
    the corpus's paired markers put into pretraining.
    """
    rng = substream(seed, "toy-task")
    rings = [_topic_words(t, TOY_WORDS_PER_TOPIC) for t in range(TOY_TOPICS)]
    examples = []
    for _ in range(count):
        label = int(rng.integers(2))
        ring = rings[int(rng.integers(TOY_TOPICS))]
        length = int(rng.integers(min_len, max_len + 1))
        words = _ring_walk(rng, ring, length)
        _insert_markers(rng, words, label + 1)
        examples.append((" ".join(words), label))
    return examples


def encode_classification(vocab: Vocab, text: str, max_seq: int) -> tuple[list[int], list[int]]:
    """Frame one sentence for classification: leading classifier token, one separator."""
    ids = vocab.encode(text)[: max_seq - 2]
    tokens = [CLS_ID, *ids, SEP_ID]
    return tokens, [0] * len(tokens)
