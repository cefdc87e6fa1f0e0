"""Benchmark fixtures: synthetic worlds and trained serving models.

Fixture work is set-up, not measurement: world generation and model
training happen once per checkout in a child process and are cached as a
pickle under ``perfbench/.cache``.  The cache key hashes every source file
under ``src/repro``, so a checkout with different code never reads a stale
fixture.  Building in a child process keeps the training peak out of the
serving process's peak RSS.

Fixtures use fixed seeds; the ``--seed`` of a run only drives the traffic,
the held-out sessions and the drift of that run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"

#: Bump when a fixture recipe below changes.
RECIPE_VERSION = 1
FIXTURE_SEED = 29


def source_digest() -> str:
    """SHA-256 over every file under ``src/repro`` (path + content)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _build_small() -> Dict[str, Any]:
    """``WorldConfig.small()`` world with a converged AW-MoE ``small`` ranker."""
    import numpy as np

    from repro.core import ModelConfig, TrainConfig, build_model, train_model
    from repro.data import WorldConfig, make_search_datasets

    world, train, _ = make_search_datasets(WorldConfig.small(), 3000, 100, seed=FIXTURE_SEED)
    model = build_model("aw_moe", ModelConfig.small(), train.meta, np.random.default_rng(1))
    train_model(model, train, TrainConfig(epochs=2, batch_size=256, learning_rate=1.5e-3), seed=77)
    model.eval()
    return {"world": world, "model": model, "meta": train.meta}


def _build_refresh() -> Dict[str, Any]:
    """Small world with a deliberately light seed model the loop must improve
    (the offline seed of ``benchmarks/test_online_loop.py``)."""
    import numpy as np

    from repro.core import ModelConfig, TrainConfig, build_model, train_model
    from repro.data import WorldConfig, make_search_datasets

    world, warmup, _ = make_search_datasets(WorldConfig.small(), 600, 100, seed=FIXTURE_SEED)
    model = build_model("aw_moe", ModelConfig.small(), warmup.meta, np.random.default_rng(2))
    train_model(model, warmup, TrainConfig(epochs=1, batch_size=128, learning_rate=1.5e-3), seed=77)
    model.eval()
    return {"world": world, "model": model, "meta": warmup.meta}


def _build_catalog() -> Dict[str, Any]:
    """120k-item catalog with the converged ranker of
    ``benchmarks/test_retrieval_cascade.py``."""
    from repro.core import ModelConfig, TrainConfig, build_model, train_model
    from repro.data import WorldConfig
    from repro.data.synthetic import build_train_dataset, generate_world, simulate_search_log
    from repro.utils import SeedBank

    bank = SeedBank(FIXTURE_SEED)
    world = generate_world(WorldConfig.large_catalog(120_000, 12), bank.child("world"))
    log = simulate_search_log(world, 8000, bank.child("sessions"))
    train = build_train_dataset(log, bank.child("negatives"))
    model = build_model("aw_moe", ModelConfig.unit(), train.meta, bank.child("model"))
    train_model(model, train, TrainConfig(epochs=4, batch_size=256, learning_rate=2e-3), seed=7)
    model.eval()
    return {"world": world, "model": model, "meta": train.meta}


BUILDERS = {"small": _build_small, "refresh": _build_refresh, "catalog": _build_catalog}


def _path(name: str) -> Path:
    key = hashlib.sha256(f"{RECIPE_VERSION}:{name}:{source_digest()}".encode()).hexdigest()
    return CACHE_DIR / f"{name}-{key[:16]}.pkl"


def build_into_cache(name: str) -> None:
    """Child-process entry point: build fixture ``name`` and write it atomically."""
    path = _path(name)
    CACHE_DIR.mkdir(exist_ok=True)
    payload = pickle.dumps(BUILDERS[name](), protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def load(name: str, timeout_s: float = 600.0) -> Dict[str, Any]:
    """Fixture ``name``, building it in a child process on a cache miss."""
    path = _path(name)
    if not path.exists():
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--build-fixture", name],
            cwd=str(ROOT),
            check=True,
            timeout=timeout_s,
        )
    return pickle.loads(path.read_bytes())
