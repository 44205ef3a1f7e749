"""Output checks and deterministic work counters.

The checks are written to survive a correct optimisation of the engine:
invariants that any exact simulation satisfies, and comparisons against
stored references at a relative tolerance instead of byte equality, since
a vectorised engine may round the last bits differently.
"""

import math

import numpy as np

REL_TOL = 1.0e-9   # stored references; numpy-vs-libm rounding stays far below this
SUM_TOL = 1.0e-12  # an episode total against the sum of its own task times


def episode_problems(rec, p):
    """Invariant violations of one EpisodeRecord, as a list of messages."""
    problems = []
    times = [t.t_complete for t in rec.tasks]
    if not all(math.isfinite(v) for v in (rec.total_time, *times, *rec.rewards)):
        problems.append("non-finite episode total, task time or reward")
    elif not np.isfinite(np.asarray(rec.states, dtype=np.float64)).all():
        problems.append("non-finite state")
    elif not math.isclose(rec.total_time, math.fsum(times), rel_tol=SUM_TOL, abs_tol=0.0):
        problems.append(f"episode total {rec.total_time!r} != sum of task times {math.fsum(times)!r}")
    for t in rec.tasks:
        if not t.feasible:
            continue
        if not t.receipt_log or not math.isclose(
            t.t_complete, t.receipt_log[-1][2], rel_tol=SUM_TOL, abs_tol=0.0
        ):
            problems.append(f"task {t.index}: completion is not the last kept arrival")
        rows = sum(r for _, r, _ in t.receipt_log)
        if rows < p or rows != t.rows_received_at_completion:
            problems.append(
                f"task {t.index}: kept rows {rows} (recorded {t.rows_received_at_completion}) "
                f"do not reach p={p}"
            )
    return problems


def mismatches(name, got, want, rel_tol=REL_TOL):
    """Entries where got and want differ beyond rel_tol, as (index, message).

    The index is None when got is shorter than the reference.
    """
    got = [float(v) for v in got]
    want = [float(v) for v in want]
    if len(got) < len(want):
        return [(None, f"{name}: {len(got)} values, reference has {len(want)}")]
    return [
        (i, f"{name}[{i}]: {g!r} vs reference {w!r}")
        for i, (g, w) in enumerate(zip(got, want))
        if not math.isclose(g, w, rel_tol=rel_tol, abs_tol=0.0)
    ]


class WorkCounters:
    """Deterministic counts of simulated work, from returned records and call args.

    A batch or row is useful when it arrived by the task's completion; the
    rest was simulated after the result was already decodable.
    """

    FIELDS = (
        "tasks", "infeasible_tasks",
        "batches_simulated", "batches_useful",
        "rows_simulated", "rows_useful",
    )

    def __init__(self):
        for f in self.FIELDS:
            setattr(self, f, 0)

    def add_episode(self, rec, batch_size):
        """batch_size is the one run_episode used; None means one batch per worker."""
        for t in rec.tasks:
            self.tasks += 1
            self.infeasible_tasks += not t.feasible
            self.batches_simulated += sum(
                -(-l // (l if batch_size is None else min(batch_size, l)))
                for l in t.loads if l > 0
            )
            self.batches_useful += len(t.receipt_log)
            self.rows_simulated += sum(t.loads)
            self.rows_useful += t.rows_received_at_completion

    def as_dict(self):
        out = {f: getattr(self, f) for f in self.FIELDS}
        out["useful_batch_ratio"] = _ratio(self.batches_useful, self.batches_simulated)
        out["useful_row_ratio"] = _ratio(self.rows_useful, self.rows_simulated)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
