"""The repository benchmark: workloads from the CU-emulator kernel to the
wire.  Run ``python3 perfbench/run.py --help``; see README.md."""
