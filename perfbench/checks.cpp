// Correctness gate: invariants every timed answer must pass, and the recorded
// reference answers the set-up pass compares against.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "qbd/rmatrix.hpp"

namespace perfbench {

Answer answer_of(const perfbg::core::FgBgModel& model,
                 const perfbg::core::FgBgSolution& solution) {
  const perfbg::core::FgBgMetrics& m = solution.metrics();
  const perfbg::qbd::QbdProcess& proc = model.process();
  Answer a;
  a.fg_queue_length = m.fg_queue_length;
  a.fg_delayed = m.fg_delayed;
  a.bg_completion = m.bg_completion;
  a.bg_queue_length = m.bg_queue_length;
  a.total_mass = solution.qbd().total_mass();
  a.residual = perfbg::qbd::r_equation_residual(solution.qbd().r_matrix(), proc.a0,
                                                proc.a1, proc.a2);
  a.tolerance_used = solution.qbd().solver_stats().tolerance_used;
  a.x = model.params().bg_buffer;
  return a;
}

namespace {

std::string describe(const char* what, double value) {
  std::ostringstream os;
  os.precision(17);
  os << what << " = " << value;
  return os.str();
}

bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

std::string check_invariants(const Answer& a) {
  if (!std::isfinite(a.fg_queue_length)) return describe("non-finite QLEN_FG", a.fg_queue_length);
  if (!(std::fabs(a.total_mass - 1.0) <= 1e-9)) return describe("total mass", a.total_mass);
  if (!(a.residual <= 10.0 * a.tolerance_used))
    return describe("R residual", a.residual) + describe(" > 10 x tolerance_used", a.tolerance_used);
  if (!in_unit_interval(a.fg_delayed)) return describe("WaitP_FG outside [0, 1]", a.fg_delayed);
  if (!in_unit_interval(a.bg_completion))
    return describe("Comp_BG outside [0, 1]", a.bg_completion);
  if (!(a.bg_queue_length >= 0.0 && a.bg_queue_length <= a.x))
    return describe("QLEN_BG outside [0, X]", a.bg_queue_length);
  return "";
}

std::string check_reference(const Answer& a, const Reference& ref) {
  const auto close = [](double got, double want) {
    return std::fabs(got - want) <= std::max(1e-7 * std::fabs(want), 1e-12);
  };
  std::ostringstream os;
  os.precision(17);
  if (!close(a.fg_queue_length, ref.fg_queue_length))
    os << "QLEN_FG " << a.fg_queue_length << " != " << ref.fg_queue_length;
  else if (!close(a.fg_delayed, ref.fg_delayed))
    os << "WaitP_FG " << a.fg_delayed << " != " << ref.fg_delayed;
  else if (!close(a.bg_completion, ref.bg_completion))
    os << "Comp_BG " << a.bg_completion << " != " << ref.bg_completion;
  else if (!close(a.bg_queue_length, ref.bg_queue_length))
    os << "QLEN_BG " << a.bg_queue_length << " != " << ref.bg_queue_length;
  return os.str();
}

std::vector<Point> reference_points(int x) {
  // The load axes and p values of bench_fig05..08: E-mail (High ACF) on its
  // short axis, Software Dev. (Low ACF) on the long one.
  const std::vector<double> email_loads{0.02, 0.04, 0.06, 0.08, 0.10, 0.12,
                                        0.14, 0.16, 0.19, 0.22, 0.25};
  const std::vector<double> softdev_loads{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35,
                                          0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
  const std::vector<double> ps{0.0, 0.1, 0.3, 0.6, 0.9};
  std::vector<Point> points;
  if (x == 5) {
    for (const double p : ps)
      for (const double rho : email_loads) points.push_back({0, rho, p, x});
    for (const double p : ps)
      for (const double rho : softdev_loads) points.push_back({1, rho, p, x});
  } else {
    // X = 20 points cost tens of ms each: a few corners and the knee.
    points = {{0, 0.08, 0.3, x}, {0, 0.25, 0.9, x}, {1, 0.20, 0.3, x},
              {1, 0.50, 0.6, x}, {1, 0.90, 0.1, x}, {1, 0.90, 0.9, x}};
  }
  return points;
}

std::vector<Reference> load_reference(const std::string& path, int x) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::vector<Reference> refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Reference r;
    char name[32] = {};
    if (std::sscanf(line.c_str(), "%d,%31[a-z],%lf,%lf,%lf,%lf,%lf,%lf", &r.point.x, name,
                    &r.point.rho, &r.point.p, &r.fg_queue_length, &r.fg_delayed,
                    &r.bg_completion, &r.bg_queue_length) != 8)
      throw std::runtime_error("malformed reference line: " + line);
    r.point.workload = -1;
    for (int w = 0; w < 3; ++w)
      if (std::string(name) == workload_name(w)) r.point.workload = w;
    if (r.point.workload < 0) throw std::runtime_error("unknown workload in: " + line);
    if (r.point.x == x) refs.push_back(r);
  }
  if (refs.size() != reference_points(x).size())
    throw std::runtime_error("reference file " + path + " lacks the X = " +
                             std::to_string(x) + " points");
  return refs;
}

void write_reference(const std::string& path) {
  std::ofstream out(path);
  out << "# X,workload,rho,p,QLEN_FG,WaitP_FG,Comp_BG,QLEN_BG\n";
  char buf[512];
  for (const int x : {5, 20})
    for (const Point& pt : reference_points(x)) {
      const perfbg::core::FgBgModel model(make_params(pt));
      const perfbg::core::FgBgSolution sol = model.solve();
      const Answer a = answer_of(model, sol);
      const std::string bad = check_invariants(a);
      if (!bad.empty()) throw std::runtime_error("reference point fails the gate: " + bad);
      std::snprintf(buf, sizeof buf, "%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n", x,
                    workload_name(pt.workload), pt.rho, pt.p, a.fg_queue_length,
                    a.fg_delayed, a.bg_completion, a.bg_queue_length);
      out << buf;
    }
  if (!out.flush()) throw std::runtime_error("cannot write reference file " + path);
}

}  // namespace perfbench
