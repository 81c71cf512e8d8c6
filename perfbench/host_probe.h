#ifndef CPGAN_PERFBENCH_HOST_PROBE_H_
#define CPGAN_PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cpgan::perfbench {

/// A fixed piece of work owned by the benchmark, timed between the
/// program's operations to read how fast the host runs at that moment.
///
/// The reference host (4 vCPUs of a shared machine) changes speed by up to
/// 1.5x within seconds and drifts by about 30% over minutes, so a raw time
/// says as much about the host as about the program. The probe shares no
/// code with the program: a change to the program cannot move it, and a
/// time divided by the probe time measured next to it follows the program
/// alone. Its three parts mirror the kinds of work the program does: float
/// multiply-adds on cache-resident data (kernels), faulting in, writing and
/// reading fresh pages (allocation-heavy graph and CSR building), and branchy
/// parsing of ASCII integers (edge-list and protocol parsing).
class HostProbe {
 public:
  HostProbe();

  /// Runs the probe once; returns its wall time in milliseconds.
  double Measure();

  /// The time of the last Measure() (measuring first if there was none).
  double last_ms() { return last_ms_ > 0.0 ? last_ms_ : Measure(); }

 private:
  std::vector<float> a_, b_, c_;
  std::string text_;
  uint64_t sink_ = 0;
  double last_ms_ = 0.0;
};

}  // namespace cpgan::perfbench

#endif  // CPGAN_PERFBENCH_HOST_PROBE_H_
