"""Cell-throughput benchmark for the figure simulator.

Runs fixed mixes of campaign cells (``repro.campaign.runners.run_cell``)
serially in one process as a closed loop, checks every cell's simulated
cycles against ``reference_cycles.json``, and in a separate traced run
attributes wall time to the simulator's layers.  Entry point:
``python3 cellbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.
"""
