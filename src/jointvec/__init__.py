"""Joint-space multilingual word embeddings from sentence-aligned parallel text.

Word vectors compose into sentence (and document) representations; training
pushes aligned representations together and sampled noise apart with a
margin hinge over squared Euclidean distance, optimized by minibatch
AdaGrad. Evaluation covers cross-lingual document classification and
nearest-neighbor queries.
"""
