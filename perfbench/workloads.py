"""The fit cells the benchmark times, their set-up and their checks.

Every :class:`~repro.core.engine.EngineConfig` is spelled out here, so
no environment variable and no profile default can change a workload:
``eval_workers`` is pinned to 2, fidelity is off and no evaluation
deadline is set.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, replace

#: Pool size for every config; the benchmark host has two cores.
EVAL_WORKERS = 2

#: Hyperparameters of the quick bench profile (``repro.bench.harness``).
QUICK = dict(
    n_epochs=3,
    stage1_epochs=2,
    transforms_per_agent=3,
    n_splits=3,
    n_estimators=5,
    max_agents=6,
)

#: Pinned FPE pre-training: the model every paper benchmark shares.
PRETRAIN = dict(n_train=6, n_validation=2, scale=0.25, seed=0)


@dataclass(frozen=True)
class FitCell:
    """One timed fit configuration and the engine seed it is fitted with.

    Every fit of a run repeats the same work, so a run's median is a
    median of like samples.  Engine seeds drawn from the workload seed
    cannot be steady: on ``fit-clf-cold`` one fit pays 11 to 33 real CV
    fits depending on its seed (wall time CV about 30% over 28 seeds).
    The workload seed picks the served rows.
    """

    name: str
    why: str
    dataset: str
    load: dict
    config: dict
    engine_seed: int
    fresh_store: bool  # a new SQLite score store for every fit
    replay: bool  # re-fit against a store warmed in set-up


WORKLOADS = {
    cell.name: cell
    for cell in (
        FitCell(
            name="fit-clf-cold",
            why="ROADMAP baseline cell: serial RF-classifier CV dominates; fills an in-memory cache",
            dataset="PimaIndian",
            load={},
            config=dict(QUICK, n_epochs=4, eval_backend="serial"),
            engine_seed=0,
            fresh_store=False,
            replay=False,
        ),
        FitCell(
            name="fit-reg-wide-pool",
            why="accepting regression cell on the 2-worker pool: speculation, re-issue, SQLite writes",
            dataset="Openml 586",
            load={"max_samples": 200, "max_features": 25},
            config=dict(QUICK, n_epochs=2, max_agents=16, eval_backend="pool"),
            engine_seed=0,
            fresh_store=True,
            replay=False,
        ),
        FitCell(
            name="fit-clf-warm-replay",
            why="resume from a warmed SQLite store: zero CV fits, so hashing, lookups and the controller carry the time",
            dataset="PimaIndian",
            load={},
            config=dict(QUICK, n_epochs=4, eval_backend="serial"),
            engine_seed=0,
            fresh_store=False,
            replay=True,
        ),
    )
}


def engine_config(cell: FitCell, seed: int, store_path: str | None):
    from repro import EngineConfig

    return EngineConfig(
        **cell.config,
        seed=seed,
        eval_workers=EVAL_WORKERS,
        eval_cache=True,
        eval_speculation=True,
        eval_fidelity="off",
        eval_timeout=None,
        eval_store_path=store_path,
    )


def config_record(cell: FitCell, config) -> dict:
    """The effective config with the per-fit fields shown generically."""
    record = asdict(config)
    if cell.fresh_store:
        record["eval_store_path"] = "fresh SQLite file per fit"
    elif cell.replay:
        record["eval_store_path"] = "SQLite file warmed in set-up"
    return record


def remove_sqlite(path: str) -> None:
    """Delete a SQLite file with its write-ahead log and shared memory."""
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def digest(result) -> dict:
    """What must repeat exactly between equal fits (no clock fields)."""
    return {
        "base_score": result.base_score,
        "best_score": result.best_score,
        "epoch_scores": [record.best_score for record in result.history],
        "selected_features": list(result.selected_features),
    }


@dataclass
class Setup:
    fpe: object
    task: object
    pretrain_s: float
    store_path: str | None = None
    warm: object = None  # AFEResult of the fit that warmed the store


def set_up(cell: FitCell, workdir: str) -> Setup:
    """FPE pre-training, data load and (for the replay) the store warm-up."""
    from repro import EAFE, pretrain_fpe
    from repro.datasets import load

    started = time.perf_counter()
    fpe = pretrain_fpe(**PRETRAIN)
    pretrain_s = time.perf_counter() - started
    setup = Setup(fpe=fpe, task=load(cell.dataset, **cell.load), pretrain_s=pretrain_s)
    if cell.replay:
        os.makedirs(workdir, exist_ok=True)
        setup.store_path = os.path.join(workdir, "replay.sqlite")
        remove_sqlite(setup.store_path)
        config = engine_config(cell, cell.engine_seed, setup.store_path)
        setup.warm = EAFE(fpe, config).fit(setup.task)
    return setup


class FitRunner:
    """Runs the timed fits of one cell and checks each one."""

    def __init__(self, cell: FitCell, setup: Setup, workdir: str) -> None:
        self.cell = cell
        self.setup = setup
        self.workdir = workdir
        self.failures: list[str] = []

    def config_for(self, index: int):
        store = self.setup.store_path
        if self.cell.fresh_store:
            store = os.path.join(self.workdir, f"store-{index}.sqlite")
        return engine_config(self.cell, self.cell.engine_seed, store)

    def warm_up(self) -> None:
        """One untimed fit, so that first-use costs stay out of the timed ones.

        The first fit of a process is about 15% slower than the next
        (imports, allocator and cache warm-up).  A fit cell warms up
        with a one-epoch fit of its own config; the replay with a
        replay, which leaves its warmed store as it was.
        """
        from repro import EAFE

        if self.cell.replay:
            config = self.config_for(0)
        else:
            config = replace(self.config_for(-1), n_epochs=1)
        engine = EAFE(self.setup.fpe, config)
        try:
            engine.fit(self.setup.task)
        finally:
            engine.eval_cache.close()
            self.cleanup(-1)

    def fit(self, index: int) -> dict:
        """One timed ``fit()``; returns its record (result under ``"result"``)."""
        import resource

        from repro import EAFE

        config = self.config_for(index)
        engine = EAFE(self.setup.fpe, config)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            result = engine.fit(self.setup.task)
        except Exception as error:  # a failed fit is counted, not fatal
            self.failures.append(f"fit {index}: {type(error).__name__}: {error}")
            return {"index": index, "ok": False}
        finally:
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            engine.eval_cache.close()
        cpu += (after.ru_utime - children.ru_utime) + (after.ru_stime - children.ru_stime)
        ok = result.n_backend_fallbacks == 0 and result.n_timeouts == 0
        if not ok:
            self.failures.append(
                f"fit {index}: {result.n_backend_fallbacks} backend fallbacks, "
                f"{result.n_timeouts} timeouts"
            )
        return {
            "index": index,
            "ok": ok,
            "seed": config.seed,
            "wall_s": wall,
            "cpu_s": cpu,
            "downstream_evals": result.n_downstream_evaluations,
            "score_gain": result.best_score - result.base_score,
            "result": result,
        }

    def cleanup(self, index: int) -> None:
        if self.cell.fresh_store:
            remove_sqlite(os.path.join(self.workdir, f"store-{index}.sqlite"))

    def check(self, record: dict) -> list[str]:
        """Correctness of one fit, outside the timed section."""
        from repro.core.evaluation import DownstreamEvaluator

        result = record["result"]
        problems = []
        if self.cell.replay:
            if result.n_downstream_evaluations != 0:
                problems.append(
                    f"replay {record['index']} paid {result.n_downstream_evaluations} fits"
                )
            if digest(result) != digest(self.setup.warm):
                problems.append(f"replay {record['index']} digest differs from the warm fit")
            return problems
        config = self.config_for(record["index"])
        evaluator = DownstreamEvaluator(
            task=self.setup.task.task,
            model_kind=config.model_kind,
            n_splits=config.n_splits,
            n_estimators=config.n_estimators,
            seed=config.seed,
        )
        rescored = evaluator.evaluate(result.selected_matrix, self.setup.task.y)
        if rescored != result.best_score:
            problems.append(
                f"fit {record['index']}: re-scored {rescored!r} != best {result.best_score!r}"
            )
        return problems
