"""The one-vector layout of a global model, checked by the model and engine tests."""

import numpy as np

from fedmm.models import GlobalModelSet, flatten_params


def assert_one_vector(model: GlobalModelSet) -> None:
    """Each part's ``params`` is its consecutive slice of ``model.params``,
    encoders in modality order and the head last, and flattening the model
    copies that vector. The model's parameters are left as they were."""
    assert flatten_params(model).tobytes() == model.params.tobytes()
    saved = model.params.copy()
    model.params[...] = np.arange(model.params.size)
    cursor = 0
    for part in model.encoders + [model.head]:
        expected = np.arange(cursor, cursor + part.params.size, dtype=np.float64)
        assert part.params.tobytes() == expected.tobytes()
        cursor += part.params.size
    assert cursor == model.params.size
    assert model.head.layer.bias[-1] == cursor - 1  # layers see the writes too
    model.params[...] = saved
