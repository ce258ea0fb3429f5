"""Actor-dyad conflict escalation forecasting pipeline.

Stages: ingest -> fit-trends -> label -> index -> digest -> forecast ->
evaluate. Each stage is a module of plain functions over in-memory
collections and the files they save; seeds are explicit arguments.
"""

__version__ = "0.1.0"
