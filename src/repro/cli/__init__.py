"""Command-line interface (paper Table II).

Commands: ``deploy create|list|shutdown``, ``collect``, ``plot``,
``advice``, ``gui`` — the same surface as the real tool's CLI execution
mode, driving the simulated cloud.
"""
