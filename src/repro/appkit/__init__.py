"""Application kit: the paper's user-facing application contract.

A user of HPCAdvisor supplies a bash script with two functions —
``hpcadvisor_setup`` and ``hpcadvisor_run`` (paper Listing 2) — which see
the environment variables of Table I and communicate metrics back by
printing ``HPCADVISORVAR name=value`` lines.  This package reproduces that
contract: plugins implement setup/run against an :class:`AppRunContext`,
can render themselves as Listing-2-style bash for documentation, and their
stdout is mined for HPCADVISORVAR values exactly like the real tool.
"""

from repro.appkit.envvars import TABLE1_VARS, build_task_env
from repro.appkit.metricvars import extract_vars, format_var, MARKER
from repro.appkit.context import AppRunContext
from repro.appkit.script import AppScript, parse_bash_script

__all__ = [
    "TABLE1_VARS",
    "build_task_env",
    "extract_vars",
    "format_var",
    "MARKER",
    "AppRunContext",
    "AppScript",
    "parse_bash_script",
]
