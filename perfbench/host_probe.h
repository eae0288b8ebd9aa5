#ifndef BLOCKOPTR_PERFBENCH_HOST_PROBE_H_
#define BLOCKOPTR_PERFBENCH_HOST_PROBE_H_

/// Runs a fixed, deterministic mix of sorting, hashing and string work that
/// uses none of the program's code and returns its wall time in seconds.
/// The benchmark runs it after each iteration's timed workload: its time
/// moves only with the speed of the host, so run.py can tell a slower host
/// from a slower program.
double HostProbeSeconds();

#endif  // BLOCKOPTR_PERFBENCH_HOST_PROBE_H_
