"""Browser GUI.

The paper's tool "can be used in the browser or Command Line Interface";
its Fig. 7 shows the operations on the left (deploy, collect, plot, advice)
and the active step's panel on the right.  This reproduction renders the
same views — deployments, collected datasets, SVG plots, and the advice
table — as HTML pages (:mod:`repro.gui.pages`) that the advisor
service's router serves next to its JSON API, so ``gui`` and ``serve``
answer one routing table from one standard-library HTTP server.
"""

from repro.gui.pages import render_index, render_deployment

__all__ = ["render_index", "render_deployment"]
