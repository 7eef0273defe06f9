"""The package's public names."""

import steinbn
import steinbn.nn


def test_every_public_name_resolves():
    # a name moved between modules must not leave a stale export behind
    missing = [name for name in steinbn.__all__ if not hasattr(steinbn, name)]
    assert missing == []
    assert len(set(steinbn.__all__)) == len(steinbn.__all__)


def test_batchnorm_is_the_layer_class():
    assert steinbn.BatchNorm is steinbn.nn.BatchNorm
