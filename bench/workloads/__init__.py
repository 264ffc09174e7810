"""The five workloads; names are fixed, later issues cite them."""

from bench.workloads.cluster_rebalance import ClusterRebalance
from bench.workloads.frontend_rates import FrontendRates
from bench.workloads.host_stacks import HostStacks
from bench.workloads.kv import KvGcWrites, KvMixed

#: name -> class; ``cls(seed, factor)`` then ``setup`` / ``run`` / ``finish``.
WORKLOADS = {
    cls.name: cls
    for cls in (KvMixed, KvGcWrites, HostStacks, FrontendRates, ClusterRebalance)
}
