"""Run context handed to application plugins.

Wraps the Batch task context with the conveniences the paper's bash scripts
get for free from the shell: a current working directory on the shared
filesystem, a parent directory where the setup phase staged input data,
stdout accumulation, environment lookup, and an ``mpirun`` that launches
the simulated application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.appkit.metricvars import format_var
from repro.cluster.filesystem import SharedFilesystem
from repro.cluster.host import Host
from repro.cluster.mpi import MpiLauncher, MpiRunResult
from repro.errors import AppScriptError

if False:  # pragma: no cover - typing only
    from repro.perf.noise import NoiseModel


@dataclass
class AppRunContext:
    """What a plugin's setup/run functions can do."""

    hosts: List[Host]
    filesystem: SharedFilesystem
    env: Dict[str, str]
    workdir: str
    shared_dir: str
    noise: Optional["NoiseModel"] = None
    _stdout: List[str] = field(default_factory=list)
    _extra_walltime_s: float = 0.0
    last_run: Optional[MpiRunResult] = None

    # -- shell-like helpers -------------------------------------------------------

    def echo(self, line: str) -> None:
        """Append a line to the task's stdout."""
        self._stdout.append(line)

    def emit_var(self, name: str, value: object) -> None:
        """Print an ``HPCADVISORVAR name=value`` line."""
        self.echo(format_var(name, value))

    def getenv(self, name: str, default: Optional[str] = None) -> str:
        value = self.env.get(name, default)
        if value is None:
            raise AppScriptError(
                f"required environment variable {name!r} is not set"
            )
        return value

    def sleep(self, seconds: float) -> None:
        """Model time spent outside mpirun (downloads, compilation)."""
        if seconds < 0:
            raise ValueError(f"negative sleep: {seconds}")
        self._extra_walltime_s += seconds

    # -- filesystem helpers -----------------------------------------------------------

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"

    def shared_path(self, name: str) -> str:
        return f"{self.shared_dir}/{name}"

    def write_file(self, name: str, content: str) -> None:
        self.filesystem.write_text(self.path(name), content)

    def read_file(self, name: str) -> str:
        return self.filesystem.read_text(self.path(name))

    def file_exists(self, name: str) -> bool:
        return self.filesystem.isfile(self.path(name))

    def copy_from_shared(self, name: str) -> None:
        """``cp ../$inputfile .`` from the paper's Listing 2."""
        content = self.filesystem.read_text(self.shared_path(name))
        self.write_file(name, content)

    # -- process launch --------------------------------------------------------------

    def mpirun(
        self,
        app: str,
        inputs: Mapping[str, str],
        np: Optional[int] = None,
    ) -> MpiRunResult:
        """Launch the application across this task's hosts.

        ``ppn`` comes from the PPN environment variable (Table I), and the
        np cross-check mirrors ``NP=$(($NNODES * $PPN))``.
        """
        ppn = int(self.getenv("PPN"))
        launcher = MpiLauncher(hosts=self.hosts, noise=self.noise)
        result = launcher.run(app, inputs, ppn=ppn, np=np)
        self.last_run = result
        return result

    # -- results ----------------------------------------------------------------------

    @property
    def stdout(self) -> str:
        return "\n".join(self._stdout) + ("\n" if self._stdout else "")

    @property
    def wall_time_s(self) -> float:
        run_time = self.last_run.exec_time_s if (
            self.last_run and self.last_run.succeeded
        ) else 0.0
        return run_time + self._extra_walltime_s

    @classmethod
    def from_task_context_like(
        cls,
        hosts: List[Host],
        filesystem: SharedFilesystem,
        env: Mapping[str, str],
        workdir: str,
        shared_dir: str,
        noise: Optional["NoiseModel"] = None,
    ) -> "AppRunContext":
        """Build a context from loose parts, creating the directories."""
        ctx = cls(
            hosts=list(hosts),
            filesystem=filesystem,
            env=dict(env),
            workdir=workdir,
            shared_dir=shared_dir,
            noise=noise,
        )
        filesystem.mkdir(workdir)
        filesystem.mkdir(shared_dir)
        return ctx
