"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from the definitions, not from the
package code: straightforward, slow, and structure-free, so that agreement
with the package is evidence rather than tautology.  The exceptions are code
the package replaced or never needed, kept verbatim as references:
``scan_train_bpe``, ``ExpressionAdam`` (Adam as one numpy expression per
moment, allocating its temporaries), ``greedy`` (argmax decoding, which
stops at the first eos, unlike ``beam_search`` at beam 1) and
``read_attention_dump``.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from amr2text.bpe import (
    BpeModel,
    EmptyCorpus,
    _adjacent_pairs,
    _word_symbols,
    special_tokens,
)
from amr2text.generation import Hypothesis, _log_softmax, check_max_len
from amr2text.graph import AmrGraph
from amr2text.langs import DEFAULT_LANGUAGES
from amr2text.model import DecoderState, EncoderInput, ModelParams, decode_step, encode
from amr2text.tensor import Tensor, no_grad
from amr2text.training import ADAM_BETAS, ADAM_EPS

ROLES = (":ARG0", ":ARG1", ":ARG2", ":mod", ":time", ":op1", ":manner")
CONCEPTS = (
    "want-01", "go-02", "boy", "girl", "city", "name", "say-01", "fast",
    "believe-01", "dog", "country", "run-02", "person", "new", "house",
)
ATTR_VALUES = ('"New York"', '"hello world"', "-", "42", "3.14", "imperative", "2002")


def random_graph(
    rng: np.random.Generator,
    max_nodes: int = 12,
    p_reentrant: float = 0.3,
    p_attr: float = 0.5,
) -> AmrGraph:
    """A random rooted DAG: tree backbone plus forward re-entrant edges.

    Edges only point from lower to higher node index, so the graph is
    acyclic by construction; every node hangs off the root through its
    tree parent, so it is connected.
    """
    n = int(rng.integers(1, max_nodes + 1))
    nodes = {f"v{i}": str(rng.choice(CONCEPTS)) for i in range(n)}
    names = list(nodes)
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((names[parent], str(rng.choice(ROLES)), names[i]))
    for i in range(2, n):
        if rng.random() < p_reentrant:
            src = int(rng.integers(0, i))
            if (names[src], names[i]) not in [(s, t) for s, _, t in edges]:
                edges.append((names[src], str(rng.choice(ROLES)), names[i]))
    attributes = []
    for i in range(n):
        if rng.random() < p_attr:
            attributes.append(
                (names[i], str(rng.choice(ROLES)), str(rng.choice(ATTR_VALUES)))
            )
    return AmrGraph(
        root=names[0], nodes=nodes, edges=tuple(edges), attributes=tuple(attributes)
    )


def oracle_depth(g: AmrGraph) -> dict[str, int]:
    """Layer-by-layer BFS from the root over directed edges."""
    children: dict[str, list[str]] = {v: [] for v in g.nodes}
    for src, _, tgt in g.edges:
        children[src].append(tgt)
    depth = {}
    layer = [g.root]
    d = 0
    while layer:
        nxt = []
        for v in layer:
            if v in depth:
                continue
            depth[v] = d
            nxt.extend(children[v])
        layer = nxt
        d += 1
    return depth


def oracle_subgraph(g: AmrGraph) -> dict[str, int]:
    """1 + index of the first root child (edge order) that reaches the node."""

    def reachable(start: str) -> set[str]:
        seen = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(t for s, _, t in g.edges if s == v)
        return seen

    root_children = [t for s, _, t in g.edges if s == g.root]
    sets = [reachable(c) for c in root_children]
    out = {g.root: 0}
    for v in g.nodes:
        if v == g.root:
            continue
        for k, cover in enumerate(sets):
            if v in cover:
                out[v] = k + 1
                break
    return out


def oracle_alignment(g: AmrGraph) -> tuple[list[str], list[str]]:
    """Linearization tokens and the node governing each one.

    DFS pre-order: "(" and the concept at node entry, then per outgoing item
    the role and the child (a subtree on first visit, the bare concept on a
    re-entrant mention, the literal's words for an attribute), ")" at exit.
    Parens and concepts belong to their node, a re-entrant mention to the
    node it names, roles and literal words to the source node.
    """
    outgoing = g.outgoing()
    tokens: list[str] = []
    alignment: list[str] = []
    visited: set[str] = set()

    def walk(node: str) -> None:
        visited.add(node)
        tokens.extend(["(", g.nodes[node]])
        alignment.extend([node, node])
        for role, value, child in outgoing[node]:
            tokens.append(role)
            alignment.append(node)
            if child is None:
                words = value.split()
                tokens.extend(words)
                alignment.extend([node] * len(words))
            elif child in visited:
                tokens.append(g.nodes[child])
                alignment.append(child)
            else:
                walk(child)
        tokens.append(")")
        alignment.append(node)

    walk(g.root)
    return tokens, alignment


def bleu_precision_counts(
    hyp_tokens: list[str], ref_tokens: list[str], n: int
) -> tuple[int, int]:
    """(clipped matches, total) of hypothesis n-grams against one reference."""
    hyp = Counter(tuple(hyp_tokens[i : i + n]) for i in range(len(hyp_tokens) - n + 1))
    ref = Counter(tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1))
    total = sum(hyp.values())
    correct = sum(min(c, ref[g]) for g, c in hyp.items())
    return correct, total


def brute_force_bleu(hyp_corpus: list[list[str]], ref_corpus: list[list[str]]) -> float:
    """Corpus BLEU from the definition: clipped precisions, exp brevity penalty."""
    import math

    correct = [0] * 4
    total = [0] * 4
    hyp_len = sum(len(h) for h in hyp_corpus)
    ref_len = sum(len(r) for r in ref_corpus)
    for h, r in zip(hyp_corpus, ref_corpus):
        for n in range(1, 5):
            c, t = bleu_precision_counts(h, r, n)
            correct[n - 1] += c
            total[n - 1] += t
    precisions = []
    for n in range(4):
        if total[n] == 0 or correct[n] == 0:
            return 0.0
        precisions.append(correct[n] / total[n])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / 4.0) * 100.0


@dataclass
class FdCheck:
    name: str
    max_rel_err: float
    max_abs_err: float


def finite_difference_grads(
    loss_fn, tensors: dict, epsilon: float = 1e-5, probes_per_tensor: int | None = None,
    rng: np.random.Generator | None = None, floor: float = 1e-8,
) -> list[FdCheck]:
    """Central-difference gradients versus stored .grad for named tensors.

    loss_fn() must rebuild the graph and return a float; tensor .grad must
    already hold the analytic gradients for the same loss.  When
    probes_per_tensor is given, only that many randomly chosen entries per
    tensor are probed (the relative error is then over those entries).
    ``floor`` bounds the relative-error denominator from below; raise it for
    parameters whose true gradient is exactly zero (the FD value there is
    pure rounding noise, around machine_eps * |loss| / (2 * epsilon)).
    """
    out = []
    for name, t in tensors.items():
        grad = t.grad
        flat = t.data.reshape(-1)
        idx = np.arange(flat.size)
        if probes_per_tensor is not None and flat.size > probes_per_tensor:
            idx = rng.choice(flat.size, size=probes_per_tensor, replace=False)
        num = np.zeros(idx.size)
        for j, k in enumerate(idx):
            orig = flat[k]
            flat[k] = orig + epsilon
            up = loss_fn()
            flat[k] = orig - epsilon
            down = loss_fn()
            flat[k] = orig
            num[j] = (up - down) / (2.0 * epsilon)
        ana = grad.reshape(-1)[idx]
        denom = np.maximum(np.abs(num) + np.abs(ana), floor)
        rel = np.abs(num - ana) / denom
        out.append(FdCheck(name, float(rel.max()), float(np.abs(num - ana).max())))
    return out


def exhaustive_best_sequence(
    step_logprobs, bos_id: int, eos_id: int, vocab: int, max_len: int, alpha: float
):
    """Best-scoring eos-terminated sequence by full enumeration.

    step_logprobs(prefix) must return the next-token log distribution for a
    bos-led prefix.  Scoring matches the package: logprob summed over
    generated tokens (eos included), normalized by ((5+n)/6)^alpha with
    n = sequence length minus the bos.  At the length budget the sequence
    must end with eos.
    """
    best = None

    def walk(prefix: tuple[int, ...], lp: float):
        nonlocal best
        n_generated = len(prefix) - 1
        logp = step_logprobs(prefix)
        for token in range(vocab):
            total = lp + float(logp[token])
            if token == eos_id:
                n = n_generated + 1
                score = total / (((5.0 + n) / 6.0) ** alpha)
                cand = (prefix + (token,), total, score)
                if best is None or score > best[2] or (
                    score == best[2] and cand[0] < best[0]
                ):
                    best = cand
            elif n_generated + 1 < max_len:
                walk(prefix + (token,), total)

    walk((bos_id,), 0.0)
    return best


class ExpressionAdam:
    """The expression-form Adam that ``training.Adam`` replaced, kept verbatim."""

    def __init__(self, params: list[Tensor]):
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            mhat = self.m[i] / bias1
            vhat = self.v[i] / bias2
            p.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)


def scan_train_bpe(
    corpus: Iterable[str],
    num_merges: int,
    languages: frozenset[str] = DEFAULT_LANGUAGES,
    protect_roles: bool = False,
) -> BpeModel:
    """The full-scan BPE trainer ``bpe.train_bpe`` replaced, kept verbatim.

    Learn merges greedily by pair frequency, ties to the smallest piece.

    Exactly min(num_merges, achievable) merges are made; training stops
    early when no adjacent pair remains.  Pair counts are maintained
    incrementally so each merge touches only the words containing it.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    specials = set(special_tokens(languages))
    protected: set[str] = set()
    word_freqs: Counter[str] = Counter()
    for line in corpus:
        for token in line.split():
            if token in specials:
                continue
            if protect_roles and token.startswith(":"):
                protected.add(token)
                continue
            word_freqs[token] += 1
    if not word_freqs:
        raise EmptyCorpus("no trainable tokens in corpus")

    words: list[list[str]] = [list(_word_symbols(w)) for w in word_freqs]
    freqs: list[int] = list(word_freqs.values())
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_to_words: dict[tuple[str, str], set[int]] = {}
    for wi, symbols in enumerate(words):
        for pair in _adjacent_pairs(symbols):
            pair_counts[pair] += freqs[wi]
            pair_to_words.setdefault(pair, set()).add(wi)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        best = min(
            (p for p, c in pair_counts.items() if c == best_count),
            key=lambda p: p[0] + p[1],
        )
        merges.append(best)
        new_symbol = best[0] + best[1]
        for wi in sorted(pair_to_words.get(best, ())):
            old = words[wi]
            f = freqs[wi]
            for pair in _adjacent_pairs(old):
                pair_counts[pair] -= f
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                members = pair_to_words.get(pair)
                if members is not None:
                    members.discard(wi)
                    if not members:
                        del pair_to_words[pair]
            merged: list[str] = []
            i = 0
            while i < len(old):
                if i + 1 < len(old) and old[i] == best[0] and old[i + 1] == best[1]:
                    merged.append(new_symbol)
                    i += 2
                else:
                    merged.append(old[i])
                    i += 1
            words[wi] = merged
            for pair in _adjacent_pairs(merged):
                pair_counts[pair] += f
                pair_to_words.setdefault(pair, set()).add(wi)

    base_symbols = sorted({s for w in word_freqs for s in _word_symbols(w)})
    vocab: dict[str, int] = {}
    for tok in special_tokens(languages):
        vocab[tok] = len(vocab)
    for tok in sorted(protected):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    for sym in base_symbols:
        if sym not in vocab:
            vocab[sym] = len(vocab)
    for left, right in merges:
        piece = left + right
        if piece not in vocab:
            vocab[piece] = len(vocab)
    specials_map = {tok: vocab[tok] for tok in special_tokens(languages)}
    return BpeModel(
        merges=tuple(merges),
        vocab=vocab,
        specials=specials_map,
        protected=frozenset(protected),
    )


def greedy(
    params: ModelParams,
    enc_input: EncoderInput,
    max_len: int,
    bos_id: int,
    eos_id: int,
) -> Hypothesis:
    """Argmax decoding; the score is the raw logprob (alpha 0)."""
    check_max_len(params, max_len)
    with no_grad():
        memory, memory_mask = encode(params, enc_input)
        state = DecoderState(params, memory, memory_mask, bos_id)
        ids: tuple[int, ...] = (bos_id,)
        logprob = 0.0
        for _ in range(max_len):
            logp = _log_softmax(decode_step(params, state, [ids[-1]]))[0]
            if len(ids) - 1 + 1 >= max_len:
                token = eos_id
            else:
                token = int(logp.argmax())
            logprob += float(logp[token])
            ids = ids + (token,)
            if token == eos_id:
                break
    return Hypothesis(ids=ids, logprob=logprob, score=logprob)


def read_attention_dump(path) -> tuple[list[str], list[str], np.ndarray]:
    """Inverse of attention_dump: (column labels, row labels, matrix)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    columns = lines[0].split("\t")[1:]
    rows: list[str] = []
    values: list[list[float]] = []
    for line in lines[1:]:
        fields = line.split("\t")
        rows.append(fields[0])
        values.append([float(v) for v in fields[1:]])
    return columns, rows, np.asarray(values)
