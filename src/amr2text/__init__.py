"""Multilingual AMR-to-text: graphs in, sentences out, all on one CPU.

The package walks the whole pipeline: PENMAN parsing (graph),
linearization with per-token structural features (linearize), subword
modeling (bpe), corpus building (corpus), a small autodiff tensor core
(tensor), a transformer encoder-decoder with graph-feature embeddings and
language-token conditioning (model), denoising and LM pretraining
(pretraining), fine-tuning (training), beam-search generation
(generation), and evaluation (evaluation).
"""

__version__ = "0.1.0"
