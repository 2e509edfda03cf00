"""Loading ckstab from the checkout, issuing one CLI call in-process, and
the set-up of a workload."""

from __future__ import annotations

import contextlib
import io
import os
import sys

import workloads

WORK_DIR = ".bench_work"


class NoProgram(Exception):
    """The checkout holds no ckstab sources to benchmark."""


def source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ckstab", "cli.py")):
        raise NoProgram(f"no ckstab sources under {src}")
    return src


def import_ckstab(root: str):
    """Import ckstab from ``<root>/src`` and nowhere else."""
    src = source_dir(root)
    if src not in sys.path:
        sys.path.insert(0, src)
    from ckstab import cli
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise NoProgram(f"ckstab was imported from {where}, not from {src}")
    return cli


def call(cli, argv: list[str]):
    """Run one ``ckstab`` invocation in-process, as a shell caller would,
    returning (exit code or None if it raised, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed call, not a benchmark crash
            code = None
    return code, out.getvalue()


def prepare_environment(root: str) -> str:
    """Point CKS_FIXTURES at the generated-model directory."""
    models_dir = os.path.join(root, WORK_DIR, "models")
    os.environ["CKS_FIXTURES"] = models_dir
    return models_dir


def setup(root: str, workload: str, seed: int):
    """Import ckstab, generate the inputs and load every model once.

    Returns (cli module, round stream)."""
    models_dir = prepare_environment(root)
    cli = import_ckstab(root)
    from ckstab.serialize import load_model
    workloads.write_rank3_models(models_dir)
    stream = workloads.rounds(workload, seed)
    for name in workloads.models(workload):
        load_model(cli.resolve_model_path(name))
    return cli, stream
