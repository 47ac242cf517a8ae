"""Byte-level shard comparison shared by the shard-format tests."""

from fedmm.data import Shard


def shards_equal(a: Shard, b: Shard) -> bool:
    return (
        a.modality_id == b.modality_id
        and a.task_kind == b.task_kind
        and a.geo_keys.tobytes() == b.geo_keys.tobytes()
        and a.features.tobytes() == b.features.tobytes()
        and a.labels.tobytes() == b.labels.tobytes()
    )
