// The benchmark's three workloads: sweep_x5, sweep_x20 and daemon_mix.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// What one measured phase produced.
struct Measured {
  /// One verified operation: a sweep point, a daemon miss or a daemon hit.
  struct Op {
    double done_s = 0.0;  ///< completion time, s since the phase started
    double ms = 0.0;      ///< wall latency
    bool hit = false;
  };
  std::vector<Op> ops;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double seconds = 0.0;  ///< wall time of the phase
  std::string first_failure;

  void fail(const std::string& why);
  void merge(const Measured& other);
  /// Latencies of the misses / points (hit = false) or of the hits.
  std::vector<double> latencies(bool hit) const;
  /// The operations split by completion time into ten consecutive groups of
  /// equal size, and each group's rate. Their median is a rate over the whole
  /// phase that a stall shorter than half the phase cannot move.
  std::vector<double> group_rates() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up pass: builds the inputs, solves the reference set and
  /// compares it with the recorded answers (the daemon workload also starts
  /// a fresh daemon and checks its answers). Returns "" or the first failure.
  virtual std::string setup() = 0;
  /// Untraced closed-loop measurement for `seconds`.
  virtual Measured run(double seconds) = 0;
  /// Traced measurement: spans around every public call into a layer, and
  /// the per-layer metrics derived from them added to `layers`.
  virtual Measured run_traced(double seconds, SpanLog& spans,
                              std::map<std::string, double>& layers) = 0;
};

/// "sweep_x5", "sweep_x20" or "daemon_mix"; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& reference_path);

/// Empty when a daemon solve response is a verified answer at buffer `x`:
/// ok, the expected cached flag, WaitP_FG and Comp_BG in [0, 1],
/// 0 <= QLEN_BG <= X, and a converged solve whose R residual is at most
/// 10 x tolerance_used. Otherwise the first violation.
std::string check_response(const perfbg::obs::JsonValue& response, bool expect_cached, int x);

}  // namespace perfbench
