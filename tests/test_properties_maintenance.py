"""Property-based test: arbitrary insert/delete streams keep the
maintained skyline equal to the oracle's."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skyline import skyline_indices_oracle
from repro.maintenance import SkylineMaintainer
from repro.serving.snapshot import Snapshot
from repro.zorder.encoding import ZGridCodec


@st.composite
def update_stream(draw):
    """A short stream of insert/delete operations on a 3-D grid."""
    ops = []
    next_id = 0
    alive = []
    n_ops = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n_ops):
        if alive and draw(st.booleans()):
            count = draw(st.integers(1, len(alive)))
            positions = draw(
                st.lists(
                    st.integers(0, len(alive) - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            doomed = [alive[p] for p in positions]
            ops.append(("delete", doomed))
            alive = [a for a in alive if a not in set(doomed)]
        else:
            n = draw(st.integers(1, 12))
            rows = draw(
                st.lists(
                    st.lists(st.integers(0, 15), min_size=3, max_size=3),
                    min_size=n,
                    max_size=n,
                )
            )
            ids = list(range(next_id, next_id + n))
            ops.append(("insert", (rows, ids)))
            alive.extend(ids)
            next_id += n
    return ops


@given(update_stream())
@settings(max_examples=40, deadline=None)
def test_stream_always_matches_oracle(ops):
    codec = ZGridCodec.grid_identity(3, bits_per_dim=4)
    maintainer = SkylineMaintainer(codec)
    for kind, payload in ops:
        if kind == "insert":
            rows, ids = payload
            maintainer.insert_block(
                np.asarray(rows, dtype=float),
                np.asarray(ids, dtype=np.int64),
            )
        else:
            maintainer.delete(payload)
        maintainer.verify()


#: ids come from a small pool so deleted ids are re-inserted
_ID_POOL = 24


@st.composite
def churn_stream(draw):
    """Insert/delete churn on a tie-heavy 3-D grid ({0..3} per
    coordinate, so duplicates are common), long enough that the
    archive grows and compacts, re-inserting previously deleted ids."""
    ops = []
    alive = []
    for _ in range(draw(st.integers(12, 40))):
        free = [pid for pid in range(_ID_POOL) if pid not in alive]
        if alive and (not free or draw(st.integers(0, 2)) == 0):
            doomed = draw(
                st.lists(
                    st.sampled_from(alive), min_size=1, max_size=len(alive),
                    unique=True,
                )
            )
            ops.append(("delete", doomed))
            alive = [pid for pid in alive if pid not in doomed]
        else:
            ids = draw(
                st.lists(
                    st.sampled_from(free), min_size=1,
                    max_size=min(8, len(free)), unique=True,
                )
            )
            rows = draw(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=3, max_size=3),
                    min_size=len(ids), max_size=len(ids),
                )
            )
            ops.append(("insert", (rows, ids)))
            alive.extend(ids)
    pin = draw(st.integers(0, len(ops) - 1))
    return ops, pin


def _frozen_state(snapshot):
    return (
        snapshot.points.tobytes(), snapshot.ids.tobytes(),
        snapshot.sky_points.tobytes(), snapshot.sky_ids.tobytes(),
        snapshot.state_digest(),
    )


@given(churn_stream())
@settings(max_examples=60, deadline=None)
def test_columnar_archive_matches_dict_model(stream):
    """After every op the skyline equals the oracle's, and ``alive()``
    equals an insertion-ordered dict model (a re-inserted id moves to
    the end); a snapshot taken mid-stream never changes afterwards."""
    ops, pin = stream
    codec = ZGridCodec.grid_identity(3, bits_per_dim=2)
    maintainer = SkylineMaintainer(codec)
    model = {}
    pinned = None
    for step, (kind, payload) in enumerate(ops):
        if kind == "insert":
            rows, ids = payload
            maintainer.insert_block(
                np.asarray(rows, dtype=float),
                np.asarray(ids, dtype=np.int64),
            )
            model.update(zip(ids, map(tuple, rows)))
        else:
            maintainer.delete(payload)
            for pid in payload:
                del model[pid]
        points, ids = maintainer.alive()
        assert ids.tolist() == list(model)
        want = np.array(list(model.values()), dtype=float).reshape(-1, 3)
        assert np.array_equal(points, want)
        sky = {ids[i] for i in skyline_indices_oracle(points).tolist()}
        assert maintainer.skyline_id_set() == sky
        assert maintainer.size == len(model)
        if step == pin:
            sky_points, sky_ids = maintainer.skyline()
            pinned = Snapshot.build(
                "churn", step + 1, codec, points, ids, sky_points, sky_ids
            )
            pinned_state = _frozen_state(pinned)
    assert _frozen_state(pinned) == pinned_state
