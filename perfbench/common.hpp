// Shared declarations of the perfbench benchmark (see NOTES.md).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Quantile with linear interpolation between order statistics; 0 on empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Seeded source of uniform doubles in [0, 1).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return static_cast<double>(engine_() >> 11) * 0x1p-53; }
  std::uint64_t next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

// ---------------------------------------------------------------------------
// Model points

/// One model to solve: workload (0 email, 1 softdev, 2 useraccounts),
/// foreground utilization rho, spawn probability p and BG buffer X.
struct Point {
  int workload = 0;
  double rho = 0.0;
  double p = 0.0;
  int x = 5;
};

const char* workload_name(int workload);
/// Solver parameters of a point, built the way perfbg_cli builds them.
perfbg::core::FgBgParams make_params(const Point& point);

/// Draws points over {email, softdev, useraccounts} x p in [0.1, 0.9] x
/// rho in [0.05, 0.95], quantized to 1e-4. Points come in stratified batches
/// of kBatch (every workload once in each of kStrata rho strata) so that the
/// mix of cheap and expensive points is the same for every seed. Inside its
/// stratum a slot's n-th point sits at frac(u + n a) of the rho range and
/// frac(v + n b) of the p range, with u, v drawn from the seed and a, b
/// irrational: the points of a run cover each stratum evenly, so that the
/// latency quantiles hang on the code and the machine, not on the draw.
class PointSource {
 public:
  /// Seven strata keep the median and the 90th percentile of point latency
  /// inside a stratum rather than on the edge between two (with ten, p90
  /// would fall exactly between the cheapest top-stratum point and the
  /// dearest of the rest, and jump between them from run to run).
  static constexpr int kStrata = 7;
  static constexpr int kBatch = 3 * kStrata;

  PointSource(std::uint64_t seed, int x);
  /// The next batch, in shuffled order.
  std::vector<Point> next_batch();
  /// The next point of stratum slot `slot` (0 .. kBatch - 1).
  Point draw(int slot);

 private:
  Rng rng_;
  int x_;
  std::array<double, kBatch> rho_start_{};
  std::array<double, kBatch> p_start_{};
  std::array<std::uint64_t, kBatch> drawn_{};
};

// ---------------------------------------------------------------------------
// Correctness gate (checks.cpp)

/// The answer to one point as the gate sees it.
struct Answer {
  double fg_queue_length = 0.0;  ///< QLEN_FG
  double fg_delayed = 0.0;       ///< WaitP_FG
  double bg_completion = 0.0;    ///< Comp_BG
  double bg_queue_length = 0.0;  ///< QLEN_BG
  double total_mass = 1.0;
  double residual = 0.0;         ///< ||A0 + R A1 + R^2 A2||_inf, recomputed
  double tolerance_used = 0.0;   ///< RSolverStats::tolerance_used
  int x = 0;
};

/// Extracts the answer of a solved model; recomputes the R residual.
Answer answer_of(const perfbg::core::FgBgModel& model,
                 const perfbg::core::FgBgSolution& solution);

/// Empty when the answer passes every invariant, else the first violation:
/// |mass - 1| <= 1e-9, residual <= 10 tolerance_used, WaitP_FG and Comp_BG in
/// [0, 1], 0 <= QLEN_BG <= X, all finite.
std::string check_invariants(const Answer& answer);

/// Recorded answer of one reference point.
struct Reference {
  Point point;
  double fg_queue_length = 0.0;
  double fg_delayed = 0.0;
  double bg_completion = 0.0;
  double bg_queue_length = 0.0;
};

/// Empty when the four paper quantities match the recorded ones within a
/// relative 1e-7 (absolute 1e-12 near zero), else the first mismatch.
std::string check_reference(const Answer& answer, const Reference& ref);

/// The Figs. 5-8 grid (E-mail and Software Dev. load axes x p in
/// {0, .1, .3, .6, .9}) at X = 5, and a 6-point subset of it at X = 20.
std::vector<Point> reference_points(int x);

/// Reads the committed reference file (CSV written by write_reference).
std::vector<Reference> load_reference(const std::string& path, int x);
void write_reference(const std::string& path);

// ---------------------------------------------------------------------------
// Allocation counting (alloc_count.cpp): the benchmark's global operator
// new/delete count requested bytes per thread while armed.
namespace alloc {
void arm(bool on);

/// Counts the calling thread's allocations from construction on.
class Region {
 public:
  Region();
  std::int64_t allocated() const;  ///< bytes requested since construction
  std::int64_t peak_live() const;  ///< peak of live bytes above the start level

 private:
  std::int64_t allocated_start_;
  std::int64_t live_start_;
};
}  // namespace alloc

// ---------------------------------------------------------------------------
// Spans (spans.cpp): in-memory span log written out at exit.

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t trace_id = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// Opens a span and returns its id; `parent` -1 for a root span.
  /// Thread-safe, like close().
  std::int64_t open(const char* name, std::uint64_t trace_id, std::int64_t parent);
  /// Closes a span and returns its duration in ms.
  double close(std::int64_t id);
  /// Chrome trace-event JSON; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Kernel probe (kernels.cpp)

/// linalg::multiply and LuDecomposition + inverse at n = 22 and n = 82 on
/// seeded dense inputs. Adds GFLOP/s, ms and the computed flop and byte
/// counts to `metrics`.
void probe_kernels(std::uint64_t seed, std::map<std::string, double>& metrics);

}  // namespace perfbench
