"""The repo's benchmark: four gated workloads and one diagnostic, end-to-end metrics, a per-layer ladder.

See ``perf/README.md``.  Nothing under ``src/`` imports this package, and this
package imports ``repro`` only through its stable facades (end-to-end run) or
by name at run time (layer probes), so ``src/`` can be restructured without
editing the benchmark.
"""
