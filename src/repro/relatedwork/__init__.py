"""Related-work baselines (paper §2.2), kept apart from the live stack.

Differential serialization / deserialization and the Chiu et al. tag
trie reduce per-message CPU; SPI reduces the number of messages.  Only
:func:`repro.bench.figures.relatedwork_ablation` and
``benchmarks/test_relatedwork_ablation.py`` measure them — nothing on
the request path imports this package.
"""
