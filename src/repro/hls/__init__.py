"""High-level synthesis substrate (OSCAR-style)."""

from .dfg import Dfg, DfgOp, HlsError
from .expand import expand_node
from .schedule import (HlsSchedule, alap_schedule, asap_schedule,
                       force_directed_schedule, list_schedule_ops)
from .allocation import allocate_for_latency, allocate_minimal
from .binding import Binding, bind
from .rtl import RtlDatapath, RtlFu, build_rtl
from .area import controller_area_clbs, datapath_area_clbs
from .driver import (HlsResult, SharedDatapathResult, share_datapath,
                     synthesize_node, synthesize_resource)

__all__ = [
    "Dfg", "DfgOp", "HlsError", "expand_node", "HlsSchedule",
    "alap_schedule", "asap_schedule", "force_directed_schedule",
    "list_schedule_ops", "allocate_for_latency", "allocate_minimal",
    "Binding", "bind", "RtlDatapath", "RtlFu", "build_rtl",
    "controller_area_clbs", "datapath_area_clbs", "HlsResult",
    "SharedDatapathResult", "synthesize_node", "synthesize_resource",
    "share_datapath",
]
