// perfbench: the repository benchmark (see NOTES.md).
//
//   perfbench --workload <sweep_x5|sweep_x20|daemon_mix> --seed <n>
//             --seconds <s> --trace <0|1> --reference <reference.csv>
//             [--out-dir <dir>]
//   perfbench --selftest --reference <reference.csv>
//   perfbench --write-reference <reference.csv>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "qbd/rmatrix.hpp"
#include "server/protocol.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Taken during static initialization, before main(): set-up time counts the
// process start.
const Clock::time_point g_process_start = Clock::now();

constexpr int kSetupReps = 9;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"}, {"solve_ms_p50", "ms"}, {"solve_ms_p90", "ms"}};

// Every per-layer metric of every workload. A layer that is not on a
// workload's path reports 0 there (NOTES.md lists which).
const std::vector<MetricDef> kPerLayer = {
    {"core.build.ms_p50", "ms"},
    {"core.build.alloc_bytes", "B"},
    {"core.metrics.ms_p50", "ms"},
    {"qbd.preflight.ms_p50", "ms"},
    {"qbd.solve_r.ms_p50", "ms"},
    {"qbd.solve_r.ms_p90", "ms"},
    {"qbd.solve_r.iterations_mean", "count"},
    {"qbd.solve_r.fallback_frac", "fraction"},
    {"qbd.solve.rest_ms_p50", "ms"},
    {"qbd.solve.peak_live_bytes", "B"},
    {"linalg.gemm.gflops_n22", "GFLOP/s"},
    {"linalg.gemm.gflops_n82", "GFLOP/s"},
    {"linalg.gemm.flops_n22_computed", "flop"},
    {"linalg.gemm.flops_n82_computed", "flop"},
    {"linalg.gemm.bytes_n22_computed", "B"},
    {"linalg.gemm.bytes_n82_computed", "B"},
    {"linalg.lu.ms_n22", "ms"},
    {"linalg.lu.ms_n82", "ms"},
    {"linalg.lu.flops_n22_computed", "flop"},
    {"linalg.lu.flops_n82_computed", "flop"},
    {"runner.overhead_frac", "fraction"},
    {"runner.points_per_s", "1/s"},
    {"server.requests_per_s", "1/s"},
    {"server.miss_ms_p50", "ms"},
    {"server.miss_ms_p90", "ms"},
    {"server.miss_overhead_ms_p50", "ms"},
    {"server.queue_ms_p50", "ms"},
    {"server.solves_per_miss", "count"},
    {"server.shed_frac", "fraction"},
    {"server.hit_ms_p50", "ms"},
    {"server.hit_ms_p90", "ms"},
    {"obs.trace_overhead_frac", "fraction"},
    {"trace.unexplained_frac", "fraction"},
    {"process.peak_rss_mb", "MB"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string out_dir = ".";
  bool selftest = false;
  std::string write_reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <sweep_x5|sweep_x20|daemon_mix> --seed <n>"
               " --seconds <s> --trace <0|1> --reference <csv> [--out-dir <dir>]\n"
               "       perfbench --selftest --reference <csv>\n"
               "       perfbench --write-reference <csv>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--reference") a.reference = value;
      else if (flag == "--out-dir") a.out_dir = value;
      else if (flag == "--write-reference") a.write_reference = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The run record: machine, build and run identity, and the outcome.
std::string run_record(const Args& args, const Measured& m) {
  std::string r = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                  std::to_string(args.seed) + ",\"trace\":" + (args.trace ? "1" : "0") +
                  ",\"seconds\":" + json_number(args.seconds) +
                  ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                  ",\"compiler\":\"" + kCompiler + "\",\"build_type\":\"" +
                  PERFBENCH_BUILD_TYPE + "\",\"l2_bytes\":" +
                  std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE)) +
                  ",\"llc_bytes\":" + std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)) +
                  ",\"attempted\":" + std::to_string(m.attempted) +
                  ",\"failed\":" + std::to_string(m.failed) + "}";
  return r;
}

/// The gate must accept a real answer and reject each perturbed copy of it.
int selftest(const std::string& reference_path) {
  const std::vector<Reference> refs = load_reference(reference_path, 5);
  const Reference* ref = &refs.front();
  for (const Reference& r : refs)
    if (r.point.p == 0.3 && r.point.rho == 0.14) ref = &r;
  const perfbg::core::FgBgModel model(make_params(ref->point));
  const perfbg::core::FgBgSolution solution = model.solve();
  const Answer base = answer_of(model, solution);
  const auto gate = [&](const Answer& a) {
    const std::string bad = check_invariants(a);
    return bad.empty() ? check_reference(a, *ref) : bad;
  };
  const auto perturbed = [&](const std::function<void(Answer&)>& change) {
    Answer a = base;
    change(a);
    return gate(a);
  };
  perfbg::linalg::Matrix r = solution.qbd().r_matrix();
  r(0, 0) += 1e-9;
  const perfbg::qbd::QbdProcess& proc = model.process();
  const double bad_residual = perfbg::qbd::r_equation_residual(r, proc.a0, proc.a1, proc.a2);

  const perfbg::obs::JsonValue response = perfbg::server::make_result_response(
      "selftest", perfbg::server::metrics_payload(solution.metrics()),
      solution.health().to_json(), false, false, 1.0);
  const auto tampered = [&](const char* section, const char* field, double value) {
    perfbg::obs::JsonValue resp = response;
    perfbg::obs::JsonValue inner = resp.at(section);
    inner.set(field, perfbg::obs::JsonValue(value));
    resp.set(section, inner);
    return check_response(resp, false, 5);
  };

  const std::vector<std::pair<const char*, std::string>> rejected = {
      {"QLEN_FG x (1 + 1e-6)", perturbed([](Answer& a) { a.fg_queue_length *= 1 + 1e-6; })},
      {"WaitP_FG x (1 + 1e-6)", perturbed([](Answer& a) { a.fg_delayed *= 1 + 1e-6; })},
      {"Comp_BG x (1 - 1e-6)", perturbed([](Answer& a) { a.bg_completion *= 1 - 1e-6; })},
      {"QLEN_BG x (1 + 1e-6)", perturbed([](Answer& a) { a.bg_queue_length *= 1 + 1e-6; })},
      {"total mass + 1e-8", perturbed([](Answer& a) { a.total_mass += 1e-8; })},
      {"R(0,0) + 1e-9", perturbed([&](Answer& a) { a.residual = bad_residual; })},
      {"WaitP_FG = 1.01", perturbed([](Answer& a) { a.fg_delayed = 1.01; })},
      {"QLEN_BG = X + 0.01", perturbed([](Answer& a) { a.bg_queue_length = a.x + 0.01; })},
      {"response Comp_BG = 1.5", tampered("result", "bg_completion", 1.5)},
      {"response QLEN_BG = -0.1", tampered("result", "bg_queue_length", -0.1)},
      {"response residual = 1e-6", tampered("health", "final_residual", 1e-6)},
      {"hit answered without the cache", check_response(response, true, 5)},
  };
  int failures = 0;
  const std::string accepted = gate(base) + check_response(response, false, 5);
  std::cout << "selftest: unperturbed answer: "
            << (accepted.empty() ? "accepted" : "REJECTED: " + accepted) << "\n";
  failures += !accepted.empty();
  for (const auto& [name, verdict] : rejected) {
    std::cout << "selftest: " << name << ": "
              << (verdict.empty() ? "ACCEPTED" : "rejected (" + verdict + ")") << "\n";
    failures += verdict.empty();
  }
  std::cout << (failures == 0 ? "selftest: passed\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (!args.write_reference.empty()) {
      write_reference(args.write_reference);
      return 0;
    }
    if (args.reference.empty()) usage("--reference is required");
    if (args.selftest) return selftest(args.reference);
    if (args.seconds <= 0.0) usage("--seconds must be positive");

    // The first set-up runs from process start and yields the workload that
    // is measured. Untraced runs set up kSetupReps - 1 more times, spread
    // between equal slices of the measurement, each on a workload of its own,
    // so that the median set-up time does not hang on one moment's load.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, args.reference);
    if (!workload) usage("unknown workload '" + args.workload + "'");
    std::string gate_failure = workload->setup();
    setup_s.push_back(ms_since(g_process_start) / 1000.0);

    std::map<std::string, double> metrics;
    Measured m;  // the untraced measurement
    Measured all;
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    if (!args.trace) {
      for (int rep = 1; rep < kSetupReps; ++rep) {
        Measured slice = workload->run(args.seconds / (kSetupReps - 1));
        for (Measured::Op& op : slice.ops) op.done_s += m.seconds;
        m.merge(slice);
        m.seconds += slice.seconds;

        const Clock::time_point start = Clock::now();
        std::unique_ptr<Workload> extra =
            make_workload(args.workload, args.seed, args.reference);
        const std::string bad = extra->setup();
        setup_s.push_back(ms_since(start) / 1000.0);
        if (gate_failure.empty()) gate_failure = bad;
      }
      all = m;
      metrics["setup_s"] = quantile(setup_s, 0.5);
      metrics["solve_ms_p50"] = quantile(m.latencies(false), 0.5);
      metrics["solve_ms_p90"] = quantile(m.latencies(false), 0.9);
    } else {
      // The untraced measurement, then the traced one, which yields the
      // per-layer metrics; the trace overhead is the difference between the
      // two. sweep_x5 also drives the daemon for the server layer, with the
      // daemon_mix traffic (see NOTES.md).
      const bool probe = args.workload == "sweep_x5";
      const double share = probe ? 0.35 : 0.5;
      m = workload->run(args.seconds * share);
      SpanLog spans;
      alloc::arm(true);
      const Measured traced = workload->run_traced(args.seconds * share, spans, metrics);
      alloc::arm(false);
      all = m;
      all.merge(traced);
      if (probe) {
        std::map<std::string, double> server;
        const std::unique_ptr<Workload> daemon =
            make_workload("daemon_mix", args.seed, args.reference);
        all.merge(daemon->run_traced(args.seconds * (1 - 2 * share), spans, server));
        for (const auto& [name, value] : server)
          if (name.rfind("server.", 0) == 0) metrics[name] = value;
      }
      probe_kernels(args.seed, metrics);
      if (args.workload != "daemon_mix")
        metrics["runner.points_per_s"] = quantile(m.group_rates(), 0.5);
      metrics["obs.trace_overhead_frac"] =
          quantile(traced.latencies(false), 0.5) / quantile(m.latencies(false), 0.5) - 1.0;
      metrics["process.peak_rss_mb"] = peak_rss_mb();
      if (!spans.write(stem + ".spans.json"))
        std::cerr << "perfbench: cannot write " << stem << ".spans.json\n";
    }

    // Human-readable lines first, under per-workload names, from the
    // untraced phase.
    const auto list = [](const std::vector<double>& v) {
      std::string out;
      char buf[32];
      for (const double x : v) {
        std::snprintf(buf, sizeof buf, " %.4g", x);
        out += buf;
      }
      return out;
    };
    const bool daemon = args.workload == "daemon_mix";
    const char* op = daemon ? "miss" : "point";
    const std::vector<double> op_ms = m.latencies(false);
    std::cout << "# run " << run_record(args, all) << "\n"
              << "# setup_s, " << setup_s.size() << " set-ups:" << list(setup_s) << "\n"
              << "# rates of ten groups of operations:" << list(m.group_rates()) << "\n"
              << "# " << (daemon ? "requests_per_s" : "points_per_s") << " = "
              << quantile(m.group_rates(), 0.5) << " 1/s\n"
              << "# " << op << "_ms_p50 = " << quantile(op_ms, 0.5) << " ms, " << op
              << "_ms_p90 = " << quantile(op_ms, 0.9) << " ms (n = " << op_ms.size() << ")\n";
    if (daemon) {
      const std::vector<double> hit_ms = m.latencies(true);
      std::cout << "# hit_ms_p50 = " << quantile(hit_ms, 0.5) << " ms, hit_ms_p90 = "
                << quantile(hit_ms, 0.9) << " ms (n = " << hit_ms.size() << ")\n";
    }
    if (!gate_failure.empty()) std::cout << "# GATE FAILED: " << gate_failure << "\n";
    if (!all.first_failure.empty())
      std::cout << "# first failed operation: " << all.first_failure << "\n";
    std::ofstream(stem + ".record.json") << run_record(args, all) << "\n";

    const bool correct = gate_failure.empty() && all.failed == 0 && all.attempted > 0;
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, all.attempted)) +
                      ", \"failed\": " + std::to_string(all.failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : args.trace ? kPerLayer : kEndToEnd) {
      const auto it = metrics.find(def.name);
      out += std::string(first ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
             json_number(it == metrics.end() ? 0.0 : it->second) + ", \"unit\": \"" +
             def.unit + "\"}";
      first = false;
    }
    std::cout << out << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
