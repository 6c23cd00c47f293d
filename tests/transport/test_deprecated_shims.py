"""The boolean compression shims are gone; the profile API stays silent.

A stream's codec is chosen only by a :class:`repro.core.StreamProfile`
(the paper's per-socket ToS byte).  The retired boolean keywords must
fail loudly instead of silently picking a stream.
"""

import warnings

import numpy as np
import pytest

from repro.core import RAW_STREAM, inceptionn_profile
from repro.transport import ClusterComm, ClusterConfig


def test_cluster_config_without_compression_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = ClusterConfig(num_nodes=2)
    assert config.default_profile() == RAW_STREAM


def test_cluster_config_compression_keyword_is_rejected():
    with pytest.raises(TypeError):
        ClusterConfig(num_nodes=2, **{"compression": True})


def _isend_with(keywords):
    comm = ClusterComm(ClusterConfig(num_nodes=2))
    sent = np.zeros(100, dtype=np.float32)
    return comm.endpoints[0].isend(1, sent, **keywords)


def test_compressible_true_keyword_is_rejected():
    with pytest.raises(TypeError):
        _isend_with({"compressible": True})


def test_compressible_false_keyword_is_rejected():
    with pytest.raises(TypeError):
        _isend_with({"compressible": False})


def test_profile_api_does_not_warn():
    stream = inceptionn_profile()
    comm = ClusterComm(ClusterConfig(num_nodes=2, profile=stream))
    sent = np.zeros(100, dtype=np.float32)

    def sender():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            event = comm.endpoints[0].isend(1, sent, profile=stream)
        yield event

    def receiver():
        yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    assert comm.transfers[0].compressed
