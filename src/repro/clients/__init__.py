"""Client models: traffic generators, processors, DNN accelerators."""

from repro.clients.traffic_generator import JobRecord, TrafficGenerator
from repro.clients.processor import ProcessorClient
from repro.clients.accelerator import AcceleratorClient, dnn_inference_task

__all__ = [
    "JobRecord",
    "TrafficGenerator",
    "ProcessorClient",
    "AcceleratorClient",
    "dnn_inference_task",
]
