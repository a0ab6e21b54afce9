"""Simulated cluster network: transports, hosts, fabric."""

from .fabric import Fabric, Host
from .transports import (
    ETHERNET_10G,
    IPOIB,
    RDMA_FDR,
    TRANSPORTS,
    TransportSpec,
)

__all__ = [
    "Fabric",
    "Host",
    "TransportSpec",
    "RDMA_FDR",
    "IPOIB",
    "ETHERNET_10G",
    "TRANSPORTS",
]
