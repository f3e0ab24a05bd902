// Kernel probe: linalg::multiply and LuDecomposition + inverse at the two
// level sizes of the paper's chain, n = 22 (X = 5, below the GEMM tile
// threshold: the naive loop) and n = 82 (X = 20: the tiled kernel). Flop and
// byte counts are computed from the shapes, not measured; no roofline ratio is
// given because peak rate and bandwidth are not measured here.
#include <string>

#include "common.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lu.hpp"

namespace perfbench {

namespace {

using perfbg::linalg::Matrix;

// Stored to, so the probed calls cannot be removed as dead code.
volatile double g_sink = 0.0;

Matrix random_matrix(Rng& rng, std::size_t n, double diagonal) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform() + (i == j ? diagonal : 0.0);
  return m;
}

/// Median over 15 blocks of the per-call time in ms, each block sized to run
/// ~4 ms; `sink` keeps the results observable.
template <typename Fn>
double median_call_ms(Fn&& fn, double& sink) {
  int reps = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) sink += fn();
    if (ms_since(t0) >= 4.0 || reps >= (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int block = 0; block < 15; ++block) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) sink += fn();
    per_call.push_back(ms_since(t0) / reps);
  }
  return quantile(per_call, 0.5);
}

}  // namespace

void probe_kernels(std::uint64_t seed, std::map<std::string, double>& metrics) {
  Rng rng(seed ^ 0x6b65726e656c73ull);
  double sink = 0.0;
  for (const std::size_t n : {std::size_t{22}, std::size_t{82}}) {
    const std::string tag = "_n" + std::to_string(n);
    const double dn = static_cast<double>(n);
    const Matrix a = random_matrix(rng, n, 0.0);
    const Matrix b = random_matrix(rng, n, 0.0);
    const double gemm_ms =
        median_call_ms([&] { return perfbg::linalg::multiply(a, b)(n - 1, n - 1); }, sink);
    const double gemm_flops = 2.0 * dn * dn * dn;
    metrics["linalg.gemm.gflops" + tag] = gemm_flops / (gemm_ms * 1e6);
    metrics["linalg.gemm.flops" + tag + "_computed"] = gemm_flops;
    metrics["linalg.gemm.bytes" + tag + "_computed"] = 3.0 * dn * dn * sizeof(double);

    // Diagonally dominant, so the factorization never meets a tiny pivot.
    const Matrix m = random_matrix(rng, n, dn);
    const double lu_ms = median_call_ms(
        [&] { return perfbg::linalg::LuDecomposition(m).inverse()(0, n - 1); }, sink);
    // LU factor 2n^3/3 plus inverse by n forward and n back solves, 2n^3.
    const double lu_flops = 8.0 / 3.0 * dn * dn * dn;
    metrics["linalg.lu.ms" + tag] = lu_ms;
    metrics["linalg.lu.flops" + tag + "_computed"] = lu_flops;
  }
  g_sink = sink;
}

}  // namespace perfbench
