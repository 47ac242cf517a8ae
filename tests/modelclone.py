"""Deep model copies for the tests that train or probe a twin of a model."""

from fedmm.models import GlobalModelSet, flatten_params, unflatten_params


def clone_model(model: GlobalModelSet) -> GlobalModelSet:
    return unflatten_params(flatten_params(model), model)
