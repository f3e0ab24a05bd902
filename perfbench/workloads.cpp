// The three workloads. Every timed operation is verified by the gate in
// checks.cpp; the traced runs time each public call into core, qbd, runner
// and server from here, never from inside the program.
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "obs/report.hpp"
#include "obs/span.hpp"
#include "qbd/preflight.hpp"
#include "qbd/rmatrix.hpp"
#include "qbd/solution.hpp"
#include "runner/sweep_runner.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "workloads/presets.hpp"

namespace perfbench {

namespace core = perfbg::core;
namespace obs = perfbg::obs;
namespace qbd = perfbg::qbd;
namespace runner = perfbg::runner;
namespace server = perfbg::server;

// ---------------------------------------------------------------------------
// Points

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

const char* workload_name(int workload) {
  static const char* const kNames[] = {"email", "softdev", "useraccounts"};
  return kNames[workload];
}

core::FgBgParams make_params(const Point& point) {
  static const perfbg::traffic::MarkovianArrivalProcess kArrivals[] = {
      perfbg::workloads::email(), perfbg::workloads::software_dev(),
      perfbg::workloads::user_accounts()};
  core::FgBgParams params{kArrivals[point.workload].scaled_to_utilization(
      point.rho, perfbg::workloads::kMeanServiceTimeMs)};
  params.mean_service_time = perfbg::workloads::kMeanServiceTimeMs;
  params.bg_probability = point.p;
  params.bg_buffer = point.x;
  return params;
}

namespace {

constexpr int kBatch = PointSource::kBatch;
constexpr double kGrid = 1e-4;

int grid_index(double lo, double width, double u) {
  return static_cast<int>(std::floor((lo + width * u) / kGrid + 0.5));
}

}  // namespace

PointSource::PointSource(std::uint64_t seed, int x) : rng_(seed), x_(x) {
  for (int slot = 0; slot < kBatch; ++slot) {
    rho_start_[slot] = rng_.uniform();
    p_start_[slot] = rng_.uniform();
  }
}

Point PointSource::draw(int slot) {
  constexpr double kGolden = 0.6180339887498949;  // frac of the golden ratio
  constexpr double kSilver = 0.4142135623730950;  // frac of sqrt(2)
  const double n = static_cast<double>(drawn_[slot]++);
  const double u = rho_start_[slot] + n * kGolden;
  const double v = p_start_[slot] + n * kSilver;
  constexpr double kWidth = 0.9 / kStrata;
  Point pt;
  pt.workload = slot % 3;
  pt.rho = grid_index(0.05 + kWidth * (slot / 3), kWidth, u - std::floor(u)) * kGrid;
  pt.p = grid_index(0.1, 0.8, v - std::floor(v)) * kGrid;
  pt.x = x_;
  return pt;
}

std::vector<Point> PointSource::next_batch() {
  std::vector<Point> batch;
  for (int slot = 0; slot < kBatch; ++slot) batch.push_back(draw(slot));
  for (std::size_t i = batch.size() - 1; i > 0; --i)
    std::swap(batch[i], batch[rng_.next() % (i + 1)]);
  return batch;
}

// ---------------------------------------------------------------------------
// Measurements

void Measured::fail(const std::string& why) {
  ++failed;
  if (first_failure.empty()) first_failure = why;
}

void Measured::merge(const Measured& other) {
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  attempted += other.attempted;
  failed += other.failed;
  if (first_failure.empty()) first_failure = other.first_failure;
}

std::vector<double> Measured::latencies(bool hit) const {
  std::vector<double> out;
  for (const Op& op : ops)
    if (op.hit == hit) out.push_back(op.ms);
  return out;
}

std::vector<double> Measured::group_rates() const {
  constexpr std::size_t kGroups = 10;
  std::vector<double> done;
  for (const Op& op : ops) done.push_back(op.done_s);
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  if (done.size() < kGroups) return rates;
  double group_start = 0.0;
  for (std::size_t g = 1; g <= kGroups; ++g) {
    const std::size_t first = (g - 1) * done.size() / kGroups;
    const std::size_t last = g * done.size() / kGroups;
    rates.push_back(static_cast<double>(last - first) / (done[last - 1] - group_start));
    group_start = done[last - 1];
  }
  return rates;
}

namespace {

/// Per-layer samples of traced points. Times cover every traced point; the
/// counts cover the first kBatch points only, so that they repeat exactly for
/// a seed however many points the time window holds.
struct LayerSamples {
  std::size_t points = 0;
  std::vector<double> build, metrics, preflight, solve_r, rest;
  double covered_ms = 0.0;
  double point_total_ms = 0.0;
  std::vector<double> iterations, fallback, build_alloc, peak_live;

  void emit(std::map<std::string, double>& out) const {
    out["core.build.ms_p50"] = quantile(build, 0.5);
    out["core.build.alloc_bytes"] = mean(build_alloc);
    out["core.metrics.ms_p50"] = quantile(metrics, 0.5);
    out["qbd.preflight.ms_p50"] = quantile(preflight, 0.5);
    out["qbd.solve_r.ms_p50"] = quantile(solve_r, 0.5);
    out["qbd.solve_r.ms_p90"] = quantile(solve_r, 0.9);
    out["qbd.solve_r.iterations_mean"] = mean(iterations);
    out["qbd.solve_r.fallback_frac"] = mean(fallback);
    out["qbd.solve.rest_ms_p50"] = quantile(rest, 0.5);
    out["qbd.solve.peak_live_bytes"] =
        peak_live.empty() ? 0.0 : *std::max_element(peak_live.begin(), peak_live.end());
    out["trace.unexplained_frac"] =
        point_total_ms > 0.0 ? 1.0 - covered_ms / point_total_ms : 0.0;
  }
};

/// Solves one point the way FgBgModel::solve() does — chain build, QbdSolution,
/// FgBgSolution — with a span and a timer around each public call, inside a
/// root span that is the point's wall time. Afterwards it probes
/// qbd::preflight and qbd::solve_r on the same process, outside the point's
/// wall time, so that the QbdSolution time splits into preflight, R and the
/// rest. Returns "" or the gate's verdict; `point_ms` gets the wall time.
std::string traced_point(const core::FgBgParams& params, std::uint64_t trace_id,
                         const perfbg::CancellationToken* cancel, SpanLog& spans,
                         LayerSamples& s, double& point_ms) {
  qbd::RSolverOptions opts;
  opts.cancel = cancel;
  const bool counted = s.points++ < static_cast<std::size_t>(kBatch);

  const std::int64_t root = spans.open("point", trace_id, -1);
  std::int64_t span = spans.open("core.build", trace_id, root);
  std::unique_ptr<core::FgBgModel> model;
  {
    const alloc::Region region;
    model = std::make_unique<core::FgBgModel>(params);
    if (counted) s.build_alloc.push_back(static_cast<double>(region.allocated()));
  }
  const double build_ms = spans.close(span);

  span = spans.open("qbd.solve", trace_id, root);
  std::unique_ptr<qbd::QbdSolution> q;
  {
    const alloc::Region region;
    q = std::make_unique<qbd::QbdSolution>(model->process(), opts);
    if (counted) s.peak_live.push_back(static_cast<double>(region.peak_live()));
  }
  const double qbd_ms = spans.close(span);
  if (counted) {
    s.iterations.push_back(q->solver_stats().iterations);
    s.fallback.push_back(q->solver_stats().outcome.fallback_used() ? 1.0 : 0.0);
  }

  span = spans.open("core.metrics", trace_id, root);
  const core::FgBgSolution solution(model->params(), model->layout(), std::move(*q));
  const double metrics_ms = spans.close(span);

  const std::string verdict = check_invariants(answer_of(*model, solution));
  point_ms = spans.close(root);

  const std::int64_t probe = spans.open("probe", trace_id, -1);
  span = spans.open("qbd.preflight", trace_id, probe);
  qbd::preflight(model->process());
  const double preflight_ms = spans.close(span);
  span = spans.open("qbd.solve_r", trace_id, probe);
  const qbd::QbdProcess& proc = model->process();
  qbd::solve_r(proc.a0, proc.a1, proc.a2, opts);
  const double r_ms = spans.close(span);
  spans.close(probe);

  s.build.push_back(build_ms);
  s.metrics.push_back(metrics_ms);
  s.preflight.push_back(preflight_ms);
  s.solve_r.push_back(r_ms);
  s.rest.push_back(qbd_ms - preflight_ms - r_ms);
  s.covered_ms += build_ms + qbd_ms + metrics_ms;
  s.point_total_ms += point_ms;
  return verdict;
}

/// Solves the reference set in process and compares it with the recording.
std::string check_reference_set(const std::vector<Reference>& refs) {
  for (const Reference& ref : refs) {
    const core::FgBgModel model(make_params(ref.point));
    const core::FgBgSolution solution = model.solve();
    const Answer a = answer_of(model, solution);
    std::string bad = check_invariants(a);
    if (bad.empty()) bad = check_reference(a, ref);
    if (!bad.empty())
      return std::string("reference ") + workload_name(ref.point.workload) +
             " rho=" + std::to_string(ref.point.rho) + " p=" + std::to_string(ref.point.p) +
             " X=" + std::to_string(ref.point.x) + ": " + bad;
  }
  return "";
}

// ---------------------------------------------------------------------------
// sweep_x5 / sweep_x20

/// Points are solved one at a time through runner::SweepRunner with jobs=1,
/// one stratified batch per sweep, as `perfbg_cli --sweep-util` solves a
/// list. A run measures whole batches only, so its stratum mix is exact.
class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, int x, std::string reference_path)
      : seed_(seed), x_(x), reference_path_(std::move(reference_path)), source_(seed, x) {}

  std::string setup() override {
    std::string bad = check_reference_set(load_reference(reference_path_, 20));
    if (bad.empty() && x_ != 20) bad = check_reference_set(load_reference(reference_path_, x_));
    return bad;
  }

  Measured run(double seconds) override {
    Measured m;
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < seconds * 1000.0) {
      const std::vector<Point> chunk = source_.next_batch();
      std::vector<Measured::Op> done(chunk.size());
      std::vector<std::string> verdicts(chunk.size());
      runner::SweepRunner sweep(runner::RunnerOptions{});
      for (std::size_t i = 0; i < chunk.size(); ++i)
        sweep.add(std::to_string(i), [&, i](runner::PointContext& ctx) {
          const Clock::time_point t0 = Clock::now();
          qbd::RSolverOptions opts;
          opts.cancel = &ctx.token();
          opts.start_rung = ctx.attempt() - 1;
          const core::FgBgModel model(make_params(chunk[i]));
          const core::FgBgSolution solution = model.solve(opts);
          verdicts[i] = check_invariants(answer_of(model, solution));
          const Clock::time_point t1 = Clock::now();
          done[i].ms = ms_since(t0, t1);
          done[i].done_s = ms_since(start, t1) / 1000.0;
          return obs::JsonValue();
        });
      record(sweep.run(), chunk, done, verdicts, m);
    }
    m.seconds = ms_since(start) / 1000.0;
    return m;
  }

  Measured run_traced(double seconds, SpanLog& spans,
                      std::map<std::string, double>& layers) override {
    // Its own point stream, so the counted first batch is the same for a
    // seed whatever the untraced phase consumed.
    PointSource source(seed_ ^ 0x7472616365ull, x_);
    LayerSamples samples;
    Measured m;
    double batch_ms = 0.0;
    double fn_ms = 0.0;
    std::uint64_t trace_id = 0;
    const Clock::time_point start = Clock::now();
    while (ms_since(start) < seconds * 1000.0) {
      const std::vector<Point> chunk = source.next_batch();
      std::vector<Measured::Op> done(chunk.size());
      std::vector<std::string> verdicts(chunk.size());
      const Clock::time_point batch_start = Clock::now();
      const std::int64_t sweep_span = spans.open("runner.sweep", ++trace_id << 32, -1);
      runner::SweepRunner sweep(runner::RunnerOptions{});
      for (std::size_t i = 0; i < chunk.size(); ++i)
        sweep.add(std::to_string(i), [&, i](runner::PointContext& ctx) {
          const Clock::time_point t0 = Clock::now();
          verdicts[i] = traced_point(make_params(chunk[i]), (trace_id << 32) | (i + 1),
                                     &ctx.token(), spans, samples, done[i].ms);
          const Clock::time_point t1 = Clock::now();
          fn_ms += ms_since(t0, t1);
          done[i].done_s = ms_since(start, t1) / 1000.0;
          return obs::JsonValue();
        });
      const runner::SweepResult result = sweep.run();
      spans.close(sweep_span);
      batch_ms += ms_since(batch_start);
      record(result, chunk, done, verdicts, m);
    }
    m.seconds = ms_since(start) / 1000.0;
    samples.emit(layers);
    layers["runner.overhead_frac"] = batch_ms > 0.0 ? (batch_ms - fn_ms) / batch_ms : 0.0;
    return m;
  }

 private:
  static void record(const runner::SweepResult& result, const std::vector<Point>& chunk,
                     const std::vector<Measured::Op>& done,
                     const std::vector<std::string>& verdicts, Measured& m) {
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      ++m.attempted;
      const runner::PointOutcome& out = result.outcomes[i];
      if (out.ok() && verdicts[i].empty()) {
        m.ops.push_back(done[i]);
        continue;
      }
      m.fail(std::string(workload_name(chunk[i].workload)) + " rho=" +
             std::to_string(chunk[i].rho) + " p=" + std::to_string(chunk[i].p) + " X=" +
             std::to_string(chunk[i].x) + ": " +
             (out.ok() ? verdicts[i] : out.error_code + " " + out.error_message));
    }
  }

  std::uint64_t seed_;
  int x_;
  std::string reference_path_;
  PointSource source_;
};

// ---------------------------------------------------------------------------
// daemon_mix

/// In-process server::Daemon with its run() loop on a thread: one worker, no
/// journal, no report snapshots, no recorder dumps.
class DaemonHost {
 public:
  explicit DaemonHost(const std::string& socket_path) : report_("perfbench") {
    server::DaemonOptions options;
    options.socket_path = socket_path;
    options.workers = 1;
    daemon_ = std::make_unique<server::Daemon>(std::move(options), report_);
    daemon_->start();
    thread_ = std::thread([this] { daemon_->run(); });
  }
  ~DaemonHost() {
    daemon_->begin_drain();
    thread_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  const std::string& socket() const { return daemon_->socket_path(); }

 private:
  obs::RunReport report_;
  std::unique_ptr<server::Daemon> daemon_;
  std::thread thread_;
};

/// One answered miss, kept for later hits and the in-process cross-check.
struct Miss {
  Point point;
  std::uint64_t trace_id = 0;
  double ms = 0.0;
  std::string result;  ///< the response's "result" object, dumped
};

/// One client connection's record. Answers are kept only for the last
/// kRecent misses (for hits) and for a fixed sample (for the cross-check), so
/// the client's memory does not grow with the daemon's speed.
struct Connection {
  static constexpr std::size_t kRecent = 256;
  std::size_t misses = 0;
  std::vector<Miss> recent;  ///< ring: miss i sits at i % kRecent
  std::vector<Miss> sample;  ///< misses i < kBatch and every 32nd after
  Measured m;

  void add(Miss miss) {
    if (misses < static_cast<std::size_t>(kBatch) || misses % 32 == 0) sample.push_back(miss);
    if (recent.size() < kRecent)
      recent.push_back(std::move(miss));
    else
      recent[misses % kRecent] = std::move(miss);
    ++misses;
  }
};

obs::JsonValue request_frame(const Point& pt, const std::string& id, std::uint64_t trace_id) {
  obs::JsonValue frame = server::solve_request(id, workload_name(pt.workload), pt.rho, pt.p, pt.x);
  frame.set("trace_id", obs::JsonValue(obs::trace_id_hex(trace_id)));
  return frame;
}

/// Two closed-loop clients share one daemon. Three requests in four carry a
/// key never sent before (a miss: admission, queue, worker, solve, cache
/// insert); the fourth repeats one of the connection's last 256 answered keys
/// (a hit: protocol and cache read), well inside the LRU capacity.
class DaemonWorkload : public Workload {
 public:
  DaemonWorkload(std::uint64_t seed, std::string reference_path)
      : seed_(seed), reference_path_(std::move(reference_path)), keys_(key_streams(seed)) {}

  std::string setup() override {
    const std::vector<Reference> refs = load_reference(reference_path_, kX);
    for (const Reference& r : refs) keys_[0].used.insert(key_of(r.point));
    std::string bad = check_reference_set(refs);
    if (!bad.empty()) return bad;
    daemon_ = start_daemon();
    server::Client client(daemon_->socket());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const obs::JsonValue resp =
          client.request(request_frame(refs[i].point, "ref/" + std::to_string(i), i + 1));
      bad = check_response(resp, false, kX);
      if (bad.empty()) bad = check_reference(answer_of_response(resp), refs[i]);
      if (!bad.empty()) return "daemon reference " + std::to_string(i) + ": " + bad;
    }
    return "";
  }

  Measured run(double seconds) override {
    std::vector<Connection> conns = drive(*daemon_, seconds, nullptr, keys_);
    Measured m = collect(conns, seconds);
    // Cross-check the sampled misses against in-process solves of the same
    // request: this is where the total-mass invariant, which the wire
    // response does not carry, is checked for daemon answers.
    for (const Connection& c : conns)
      for (const Miss& miss : c.sample) {
        const core::FgBgModel model(make_params(miss.point));
        const core::FgBgSolution solution = model.solve();
        const std::string bad = compare(miss, model, solution);
        if (!bad.empty()) m.fail(bad);
      }
    return m;
  }

  Measured run_traced(double seconds, SpanLog& spans,
                      std::map<std::string, double>& layers) override {
    // A fresh daemon, like every measured run.
    const std::unique_ptr<DaemonHost> host = start_daemon();
    // Key streams of its own, so that connection 0's first misses are the
    // same for a seed however much the untraced measurement drew.
    std::vector<KeyStream> keys = key_streams(seed_ ^ 0x7472616365ull);
    std::vector<Connection> conns = drive(*host, seconds, &spans, keys);
    Measured m = collect(conns, seconds);

    server::Client control(host->socket());
    const obs::JsonValue tracez = control.request(server::control_request("tz", "tracez"));
    const obs::JsonValue statusz = control.request(server::control_request("sz", "statusz"));
    std::vector<double> queue_ms;
    for (const obs::JsonValue& e : tracez.at("result").at("recorder").at("entries").as_array())
      if (const obs::JsonValue* q = e.find("queue_ms")) queue_ms.push_back(q->as_double());
    const obs::JsonValue& counters = statusz.at("result").at("counters");
    const auto counter = [&](const char* name) {
      const obs::JsonValue* v = counters.find(name);
      return v ? v->as_double() : 0.0;
    };
    double misses = 0.0;
    for (const Connection& c : conns) misses += static_cast<double>(c.misses);
    layers["server.queue_ms_p50"] = quantile(queue_ms, 0.5);
    layers["server.solves_per_miss"] = misses > 0.0 ? counter("server.solve.executed") / misses : 0.0;
    const double requests = counter("server.requests.total");
    layers["server.shed_frac"] = requests > 0.0 ? counter("server.queue.shed") / requests : 0.0;
    layers["server.requests_per_s"] = quantile(m.group_rates(), 0.5);
    layers["server.miss_ms_p50"] = quantile(m.latencies(false), 0.5);
    layers["server.miss_ms_p90"] = quantile(m.latencies(false), 0.9);
    layers["server.hit_ms_p50"] = quantile(m.latencies(true), 0.5);
    layers["server.hit_ms_p90"] = quantile(m.latencies(true), 0.9);

    // Re-solve the sampled misses in process with the traced pipeline,
    // connection 0 first: its first kBatch misses are a fixed set for the
    // seed, so the counts repeat exactly.
    LayerSamples samples;
    std::vector<double> overhead;
    for (const Connection& c : conns)
      for (const Miss& miss : c.sample) {
        double point_ms = 0.0;
        const std::string bad = traced_point(make_params(miss.point), miss.trace_id, nullptr,
                                             spans, samples, point_ms);
        if (!bad.empty()) m.fail(bad);
        overhead.push_back(miss.ms - point_ms);
      }
    samples.emit(layers);
    layers["server.miss_overhead_ms_p50"] = quantile(overhead, 0.5);
    layers["runner.overhead_frac"] = 0.0;
    return m;
  }

 private:
  static constexpr int kX = 5;

  /// A connection's source of fresh keys, kept across measurement slices so
  /// that no key is ever sent twice as a miss.
  struct KeyStream {
    Rng rng;
    PointSource source;
    std::unordered_set<std::uint64_t> used;
  };

  static std::vector<KeyStream> key_streams(std::uint64_t seed) {
    std::vector<KeyStream> keys;
    for (std::uint64_t c = 0; c < 2; ++c) {
      Rng rng(seed * 0x9e3779b97f4a7c15ull + c + 1);
      const std::uint64_t source_seed = rng.next();
      keys.push_back(KeyStream{rng, PointSource(source_seed, kX), {}});
    }
    return keys;
  }

  static std::uint64_t key_of(const Point& pt) {
    return (static_cast<std::uint64_t>(pt.workload) << 40) |
           (static_cast<std::uint64_t>(std::lround(pt.rho / kGrid)) << 20) |
           static_cast<std::uint64_t>(std::lround(pt.p / kGrid));
  }

  std::unique_ptr<DaemonHost> start_daemon() {
    static std::atomic<int> counter{0};
    return std::make_unique<DaemonHost>("perfbench-" + std::to_string(::getpid()) + "-" +
                                        std::to_string(counter.fetch_add(1)) + ".sock");
  }

  static Answer answer_of_response(const obs::JsonValue& resp) {
    const obs::JsonValue& r = resp.at("result");
    Answer a;
    a.fg_queue_length = r.at("fg_queue_length").as_double();
    a.fg_delayed = r.at("fg_delayed").as_double();
    a.bg_completion = r.at("bg_completion").as_double();
    a.bg_queue_length = r.at("bg_queue_length").as_double();
    return a;
  }

  /// Empty when the daemon's answer to `miss` equals the in-process solve and
  /// that solve passes every invariant.
  static std::string compare(const Miss& miss, const core::FgBgModel& model,
                             const core::FgBgSolution& solution) {
    const Answer local = answer_of(model, solution);
    std::string bad = check_invariants(local);
    if (!bad.empty()) return "in-process re-solve: " + bad;
    Reference want;
    want.fg_queue_length = local.fg_queue_length;
    want.fg_delayed = local.fg_delayed;
    want.bg_completion = local.bg_completion;
    want.bg_queue_length = local.bg_queue_length;
    obs::JsonValue resp = obs::JsonValue::object();
    resp.set("result", obs::parse_json(miss.result));
    bad = check_reference(answer_of_response(resp), want);
    return bad.empty() ? "" : "daemon answer differs from in-process solve: " + bad;
  }

  /// Runs both closed-loop clients for `seconds`. With `spans`, every
  /// request is a client.request span carrying the request's trace id.
  std::vector<Connection> drive(const DaemonHost& host, double seconds, SpanLog* spans,
                                std::vector<KeyStream>& keys) {
    std::vector<Connection> conns(2);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c)
      threads.emplace_back([&, c] {
        try {
          client_loop(host, c, start, end, spans, keys[static_cast<std::size_t>(c)],
                      conns[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          conns[static_cast<std::size_t>(c)].m.fail(std::string("client: ") + e.what());
        }
      });
    for (std::thread& t : threads) t.join();
    return conns;
  }

  void client_loop(const DaemonHost& host, int c, Clock::time_point start,
                   Clock::time_point end, SpanLog* spans, KeyStream& keys, Connection& conn) {
    // Each connection draws fresh keys from its own half of the p grid, so
    // the two never send each other's keys.
    PointSource& source = keys.source;
    std::unordered_set<std::uint64_t>& used = keys.used;
    Rng& rng = keys.rng;
    server::Client client(host.socket());
    std::uint64_t fresh = 0;
    for (std::uint64_t i = 0; Clock::now() < end; ++i) {
      const bool hit = i % 4 == 3 && conn.misses > 0;
      const Miss* prior = nullptr;
      Point pt;
      if (hit) {
        prior = &conn.recent[rng.next() % conn.recent.size()];
        pt = prior->point;
      } else {
        do {
          pt = source.draw(static_cast<int>(fresh % kBatch));
          long k = std::lround(pt.p / kGrid);  // 1000..9000
          k = k - k % 2 + c;
          if (k > 9000) k -= 2;
          pt.p = static_cast<double>(k) * kGrid;
        } while (!used.insert(key_of(pt)).second);
        ++fresh;
      }
      const std::uint64_t trace_id = (static_cast<std::uint64_t>(c + 1) << 40) | (i + 1);
      const obs::JsonValue frame =
          request_frame(pt, "c" + std::to_string(c) + "/" + std::to_string(i), trace_id);
      const std::int64_t span = spans ? spans->open("client.request", trace_id, -1) : -1;
      const Clock::time_point t0 = Clock::now();
      const obs::JsonValue resp = client.request(frame);
      const Clock::time_point t1 = Clock::now();
      const double ms = ms_since(t0, t1);
      if (spans) spans->close(span);

      ++conn.m.attempted;
      std::string bad = check_response(resp, hit, kX);
      if (bad.empty() && hit && resp.at("result").dump() != prior->result)
        bad = "hit answer differs from the miss that cached it";
      if (!bad.empty()) {
        conn.m.fail(std::string(hit ? "hit " : "miss ") + frame.dump() + ": " + bad);
      } else if (hit) {
        conn.m.ops.push_back({ms_since(start, t1) / 1000.0, ms, true});
      } else {
        conn.m.ops.push_back({ms_since(start, t1) / 1000.0, ms, false});
        conn.add(Miss{pt, trace_id, ms, resp.at("result").dump()});
      }
    }
  }

  static Measured collect(const std::vector<Connection>& conns, double seconds) {
    Measured m;
    for (const Connection& c : conns) m.merge(c.m);
    m.seconds = seconds;
    return m;
  }

  std::uint64_t seed_;
  std::string reference_path_;
  std::vector<KeyStream> keys_;
  std::unique_ptr<DaemonHost> daemon_;
};

}  // namespace

std::string check_response(const obs::JsonValue& resp, bool expect_cached, int x) {
  if (!resp.at("ok").as_bool()) return "error response " + resp.dump();
  if (resp.at("cached").as_bool() != expect_cached)
    return expect_cached ? "repeated key was not served from the cache"
                         : "fresh key was served from the cache";
  const obs::JsonValue& r = resp.at("result");
  const double waitp = r.at("fg_delayed").as_double();
  const double comp = r.at("bg_completion").as_double();
  const double qbg = r.at("bg_queue_length").as_double();
  if (!(waitp >= 0.0 && waitp <= 1.0)) return "WaitP_FG outside [0, 1]";
  if (!(comp >= 0.0 && comp <= 1.0)) return "Comp_BG outside [0, 1]";
  if (!(qbg >= 0.0 && qbg <= x)) return "QLEN_BG outside [0, X]";
  if (!std::isfinite(r.at("fg_queue_length").as_double())) return "non-finite QLEN_FG";
  const obs::JsonValue& h = resp.at("health");
  const std::string status = h.at("status").as_string();
  if (status != "converged" && status != "fallback") return "solve status " + status;
  if (!(h.at("final_residual").as_double() <= 10.0 * h.at("tolerance_used").as_double()))
    return "R residual above 10 x tolerance_used";
  return "";
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& reference_path) {
  if (name == "sweep_x5") return std::make_unique<SweepWorkload>(seed, 5, reference_path);
  if (name == "sweep_x20") return std::make_unique<SweepWorkload>(seed, 20, reference_path);
  if (name == "daemon_mix") return std::make_unique<DaemonWorkload>(seed, reference_path);
  return nullptr;
}

}  // namespace perfbench
