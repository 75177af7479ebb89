"""Repository benchmark: embedded TPC-H shapes, an open-loop progress
service and P=2 partitioned runs. See ``perfbench/README.md``."""
