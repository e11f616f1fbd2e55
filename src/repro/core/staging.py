"""Local-storage staging of binaries, libraries and data.

"JETS can cache libraries and tools (such as the MPICH2 proxy binary) and
even user data on node-local storage, which boosts startup performance and
thus utilization for ensembles of short jobs.  In practice, the files to be
stored in this way are simply provided to the JETS start-up script as a
simple list." (Section 5, feature 2; deployed in the Fig. 9 runs.)

Staging reads each file once from the shared filesystem per node (a real,
contended read) and registers it in the node's RAM FS; subsequent process
launches then load from local storage.
"""

from __future__ import annotations

from typing import Generator, Iterable

from ..cluster.node import Node
from ..oslayer.process import ExecutableImage
from ..simkernel import Environment

__all__ = ["StagingManager", "StagingError"]


class StagingError(Exception):
    """Staging I/O failed on a node (injected or real shared-FS fault)."""


class StagingManager:
    """Stages a file list onto worker nodes at pilot start-up."""

    def __init__(self, env: Environment, files: Iterable[ExecutableImage] = ()):
        self.env = env
        self.files: list[ExecutableImage] = list(files)
        #: Per-node staging wall time, for reports.
        self.staging_times: dict[int, float] = {}
        #: Nodes whose staging I/O currently fails (chaos engine toggles
        #: membership for the duration of an injected staging fault).
        self.fail_nodes: set[int] = set()

    def add(self, image: ExecutableImage) -> None:
        """Append a file (and transitively its libraries) to the stage list."""
        self.files.append(image)

    def flatten(self) -> list[ExecutableImage]:
        """The stage list with library dependencies expanded (pre-order)."""
        out: list[ExecutableImage] = []
        stack = self.files[::-1]
        while stack:
            img = stack.pop()
            out.append(img)
            stack.extend(reversed(img.libraries))
        return out

    def stage_to(self, node: Node) -> Generator:
        """Sim generator: pull every listed file onto ``node``'s RAM FS.

        Raises :class:`StagingError` while ``node`` is marked failed.
        """
        if node.node_id in self.fail_nodes:
            raise StagingError(f"staging I/O failure on node {node.node_id}")
        t0 = self.env.now
        for img in self.flatten():
            if node.ramfs.has(img.name):
                continue
            if node.shared_fs is not None:
                yield from node.shared_fs.read(img.nbytes)
            node.ramfs.store(img.name, img.nbytes)
        self.staging_times[node.node_id] = self.env.now - t0
