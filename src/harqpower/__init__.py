"""Learned power allocation for latency-optimal HARQ over correlated fading.

Every public name lives in its module (`harqpower.training.train`,
`harqpower.types.ChannelParams`, ...); importing the package itself loads
no submodule and no numpy.
"""

__version__ = "0.1.0"
