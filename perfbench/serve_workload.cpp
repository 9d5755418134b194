// Set-up and serve phases. Set-up is the cold start a user pays before
// the first answer; serving is an in-process anbd core (serve::Server with
// default ServeOptions, so coalescing on) answering an open-loop stream of
// scalar queries from independent searchers.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/obs/trace.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/serve/client.hpp"
#include "anb/serve/protocol.hpp"
#include "anb/serve/server.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"
#include "common.hpp"
#include "summary.hpp"

namespace perfbench {
namespace {

/// Latency limit of a ladder rung, on its p50 (rung_meets_limit).
constexpr double kP50LimitUs = 2000.0;
constexpr std::size_t kMaxWindows = 5;  ///< percentile windows per rung
constexpr std::size_t kConnections = 4;
/// Rate at which serve_p50_us and the tail (serve.p90_us, serve.p99_us)
/// are measured, in bursts long enough for one p99 window (kP99Samples
/// requests).
constexpr double kReferenceRate = 4000;
constexpr double kBurstSeconds = 0.3;
/// Scheduled request rates of the ladder (req/s), ascending; each rung runs
/// kRungSeconds, long enough for one p99 window. Above 16k the rates step
/// by about 8%, so the knee a pass finds moves in small steps with the
/// host.
constexpr double kLadder[] = {
    8000,  12000, 16000, 17500, 19000, 20500, 22000, 24000, 26000, 28000, 30000,
    32500, 35000, 38000, 41000, 44000, 47500, 51000, 55000, 59500, 64000,
};
constexpr double kRungSeconds = 0.2;

/// One scheduled request of the open-loop stream.
struct Request {
  std::uint64_t arch = 0;
  bool accuracy = true;
  anb::MetricKey key;
  double expected = 0.0;  ///< direct in-process answer
  double sent = -1.0;     ///< written by the connection's thread, like `outcome`
  Outcome outcome;        ///< `outcome.due` is set by the schedule
};

/// Poisson arrivals at `rate` over `duration`, split round-robin into
/// `kConnections` independent searchers; half accuracy queries, half perf
/// queries spread over every installed target.
std::vector<std::vector<Request>> make_schedule(const anb::AccelNASBench& reference,
                                                double rate, double duration,
                                                std::uint64_t seed) {
  anb::Rng rng(anb::hash_combine(seed, static_cast<std::uint64_t>(rate)));
  const std::vector<anb::MetricKey> targets = reference.perf_targets();
  const anb::SearchSpace& space = anb::MnasSpace::instance();
  std::vector<std::vector<Request>> schedule(kConnections);
  const double per_conn = rate / static_cast<double>(kConnections);
  for (auto& conn : schedule) {
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / per_conn;
      if (t >= duration) break;
      Request r;
      r.outcome.due = t;
      r.arch = space.to_index(space.sample(rng));
      r.accuracy = rng.uniform() < 0.5;
      r.key = targets[rng.uniform_index(targets.size())];
      conn.push_back(r);
    }
  }
  // Expected answers, one cache-off batched query per target.
  for (std::size_t k = 0; k <= targets.size(); ++k) {
    std::vector<anb::Arch> archs;
    std::vector<Request*> owners;
    for (auto& conn : schedule) {
      for (Request& r : conn) {
        const bool mine = k == targets.size() ? r.accuracy : (!r.accuracy && r.key == targets[k]);
        if (!mine) continue;
        archs.push_back(space.from_index(r.arch));
        owners.push_back(&r);
      }
    }
    const std::vector<double> values = k == targets.size()
                                           ? reference.query_accuracy_batch(archs)
                                           : reference.query_perf_batch(archs, targets[k]);
    for (std::size_t i = 0; i < owners.size(); ++i) owners[i]->expected = values[i];
  }
  return schedule;
}

/// One client connection of the load generator. The benchmark needs a
/// single thread to both send on a schedule and read replies, so unlike
/// serve::Client it waits on the socket with a timeout (ppoll) and never
/// blocks in send.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    ANB_CHECK(fd_ >= 0, "perfbench: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const bool fits = path.size() < sizeof(addr.sun_path);
    if (fits) std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (!fits || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw anb::Error("perfbench: cannot connect to " + path);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Wait up to `timeout_s` until the socket is readable or, when `out`
  /// holds unsent bytes, writable. Moves what it can: sent bytes leave the
  /// front of `out`, received bytes are appended to `in`. Returns false once
  /// the server has closed the connection.
  bool pump(double timeout_s, std::vector<char>& out, std::vector<char>& in) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const double clamped = std::max(0.0, timeout_s);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(clamped);
    timeout.tv_nsec = static_cast<long>((clamped - static_cast<double>(timeout.tv_sec)) * 1e9);
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    if ((pfd.revents & POLLOUT) != 0) {
      const ssize_t n = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) out.erase(out.begin(), out.begin() + n);
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) return false;
      if (n > 0) in.insert(in.end(), chunk, chunk + n);
    }
    return true;
  }

 private:
  int fd_;
};

/// Drive one connection from one thread: write every request that is due
/// (several in one write when the generator runs late) and match replies
/// by request id. Unanswered requests, once kTimeoutS has passed after the
/// last one was due, count as failed. Returns the count of answers that
/// differ from the direct query.
std::size_t drive_connection(const std::string& socket_path, std::vector<Request>& requests,
                             double start) {
  Connection conn(socket_path);
  std::vector<char> out, in;
  std::size_t next = 0, answered = 0, mismatches = 0;
  const double deadline = requests.empty() ? 0.0 : requests.back().outcome.due + kTimeoutS;
  while (answered < requests.size()) {
    double now = now_s() - start;
    while (next < requests.size() && requests[next].outcome.due <= now) {
      const Request& r = requests[next];
      const std::uint64_t id = next + 1;
      const std::vector<char> frame = r.accuracy
                                          ? anb::serve::encode_query_accuracy(id, r.arch)
                                          : anb::serve::encode_query_perf(id, r.key, r.arch);
      out.insert(out.end(), frame.begin(), frame.end());
      requests[next++].sent = now;
    }
    if (next == requests.size() && now > deadline) break;
    const double wake = next < requests.size() ? requests[next].outcome.due : deadline;
    if (!conn.pump(wake - now, out, in)) break;

    now = now_s() - start;
    std::size_t consumed = 0;
    while (true) {
      const anb::serve::Decoded frame =
          anb::serve::decode_frame(std::span<const char>(in).subspan(consumed));
      if (frame.status != anb::serve::DecodeStatus::kFrame) break;
      consumed += frame.consumed;
      const anb::serve::Reply reply = anb::serve::parse_reply(frame);
      if (reply.request_id == 0 || reply.request_id > requests.size()) continue;
      Request& r = requests[reply.request_id - 1];
      if (r.outcome.done >= 0.0) continue;
      r.outcome.done = now;
      ++answered;
      if (reply.type == anb::serve::MsgType::kValue) {
        if (reply.value != r.expected) ++mismatches;
      } else {
        r.outcome.failed = true;  // kRetryLater or kError
      }
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  for (Request& r : requests) {
    if (r.outcome.done < 0.0) r.outcome.failed = true;
  }
  return mismatches;
}

struct RungRun {
  Rung rung;
  std::vector<Request> requests;  ///< all connections, in due order
};

RungRun run_rung(const anb::AccelNASBench& reference, const std::string& socket_path,
                 double rate, double duration, std::uint64_t seed, Report& report) {
  std::vector<std::vector<Request>> schedule = make_schedule(reference, rate, duration, seed);
  std::vector<std::size_t> mismatches(kConnections, 0);
  std::vector<std::exception_ptr> errors(kConnections);
  const double start = now_s() + 0.01;
  std::vector<std::thread> load;
  for (std::size_t c = 0; c < kConnections; ++c) {
    load.emplace_back([&, c] {
      try {
        mismatches[c] = drive_connection(socket_path, schedule[c], start);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : load) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  RungRun run;
  for (auto& conn : schedule) run.requests.insert(run.requests.end(), conn.begin(), conn.end());
  std::sort(run.requests.begin(), run.requests.end(), [](const Request& a, const Request& b) {
    return a.outcome.due < b.outcome.due;
  });
  std::size_t wrong = 0;
  for (std::size_t m : mismatches) wrong += m;
  report.check(wrong == 0, "serve: " + std::to_string(wrong) +
                               " response(s) differ from direct queries at " +
                               std::to_string(static_cast<int>(rate)) + " req/s");

  std::vector<Outcome> outcomes;
  for (const Request& r : run.requests) outcomes.push_back(r.outcome);
  run.rung = summarize_rung(rate, duration, outcomes, kP50LimitUs, kMaxWindows);
  return run;
}

}  // namespace

// ---- set-up -------------------------------------------------------------

SetupPhase::SetupPhase(const RunConfig& config, const std::string& artifact)
    : config_(config), artifact_(artifact) {}

void SetupPhase::run_once(Report& report) {
  anb::Rng rng(anb::hash_combine(config_.seed, 0x5E7 + probes_++));
  const anb::Arch probe = anb::MnasSpace::instance().sample(rng);
  ++count_.sent;
  const double start = now_s();
  const anb::AccelNASBench bench = anb::AccelNASBench::open(artifact_, anb::io::MapMode::kMap);
  const double opened = now_s();
  const double direct = bench.query_accuracy(probe);
  anb::serve::ServeOptions options;
  options.socket_path = scratch_path(config_, "setup.sock");
  anb::serve::Server server(bench, options);
  server.start();
  anb::serve::Client client(server.socket_path());
  const double served = client.query_accuracy(anb::MnasSpace::instance().to_index(probe));
  const double end = now_s();
  server.stop();
  report.check(served == direct, "setup: served answer differs from the direct query");
  ++count_.ok;
  setup_s_.push_back(end - start);
  open_ms_.push_back(1e3 * (opened - start));
  if (config_.trace) anb::obs::clear_trace_events();
}

void SetupPhase::finish(Report& report) {
  report.end_to_end.set("setup_s", setup_s_, "s");
  report.phases.push_back(count_);
  if (config_.trace) report.per_layer.set("anb.open_ms", open_ms_, "ms");
}

// ---- serving ------------------------------------------------------------

struct ServePhase::State {
  State(const RunConfig& run_config, const std::string& artifact)
      : config(run_config),
        bench(anb::AccelNASBench::open(artifact, anb::io::MapMode::kMap)),
        reference(anb::AccelNASBench::open(artifact, anb::io::MapMode::kMap)) {
    reference.set_cache_enabled(false);
    anb::serve::ServeOptions options;
    options.socket_path = scratch_path(config, "serve.sock");
    server = std::make_unique<anb::serve::Server>(bench, options);
    server->start();
  }

  /// One measured rung: counted per rate, printed, and its cache traffic
  /// added to `cache`.
  RungRun serve(double rate, double seconds, std::uint64_t seed, Report& report) {
    if (!warm) {
      // Unmeasured warm-up at the reference rate: connections, scheduler
      // workers and the artifact's pages are hot before the first rung.
      run_rung(reference, server->socket_path(), kReferenceRate, 0.25, seed + 1, report);
      warm = true;
    }
    const anb::QueryCacheStats before = bench.cache_stats();
    RungRun run = run_rung(reference, server->socket_path(), rate, seconds, seed, report);
    const anb::QueryCacheStats after = bench.cache_stats();
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    rungs.push_back(run.rung);
    PhaseCount& count = counts[static_cast<int>(rate)];
    count.sent += run.rung.sent;
    count.ok += run.rung.ok;
    count.failed += run.rung.failed;
    std::printf(
        "serve %6.0f req/s: sent %zu ok %zu failed %zu p50 %.1f us p90 %.1f us p99 %.1f us%s\n",
        rate, run.rung.sent, run.rung.ok, run.rung.failed, run.rung.p50_us, run.rung.p90_us,
        run.rung.p99_us, run.rung.backlog_growing ? " backlog growing" : "");
    return run;
  }

  const RunConfig& config;
  const anb::AccelNASBench bench;  ///< served; must outlive `server`
  anb::AccelNASBench reference;    ///< cache off: direct answers
  std::unique_ptr<anb::serve::Server> server;
  bool warm = false;
  int bursts = 0;
  int passes = 0;
  std::vector<double> p50_us;  ///< one per burst
  /// Every reference-rate window of every burst.
  std::vector<double> window_p90s, window_p99s;
  std::vector<Rung> rungs;  ///< every measured rung: bursts and ladder passes
  std::map<int, PhaseCount> counts;   ///< by rate, summed over bursts and passes
  std::vector<Request> at_reference;  ///< every reference-rate request
  /// Cache hits and misses of the served instance while it served (its
  /// cache_stats() read process-wide counters that the nas phase also
  /// moves).
  anb::QueryCacheStats cache;
};

ServePhase::ServePhase(const RunConfig& config, const std::string& artifact)
    : state_(std::make_unique<State>(config, artifact)) {}

ServePhase::~ServePhase() { state_->server->stop(); }

void ServePhase::run_reference(Report& report) {
  State& st = *state_;
  const std::uint64_t seed = anb::hash_combine(st.config.seed, 0xB0257 + st.bursts++);
  const RungRun run = st.serve(kReferenceRate, kBurstSeconds, seed, report);
  st.p50_us.push_back(run.rung.p50_us);
  st.window_p90s.insert(st.window_p90s.end(), run.rung.window_p90s.begin(),
                        run.rung.window_p90s.end());
  st.window_p99s.insert(st.window_p99s.end(), run.rung.window_p99s.begin(),
                        run.rung.window_p99s.end());
  st.at_reference.insert(st.at_reference.end(), run.requests.begin(), run.requests.end());
}

void ServePhase::run_ladder(Report& report) {
  State& st = *state_;
  const std::uint64_t seed = anb::hash_combine(st.config.seed, 0x5E4E + st.passes++);
  std::vector<Rung> ladder;
  for (const double rate : kLadder) {
    ladder.push_back(st.serve(rate, kRungSeconds, seed, report).rung);
    if (ladder_done(ladder, kP50LimitUs)) break;
  }
}

void ServePhase::finish(Report& report) {
  State& st = *state_;
  st.server->stop();
  report.end_to_end.set("serve_p50_us", st.p50_us, "us");
  report.end_to_end.set("serve_max_qps", max_passing_rate(st.rungs, kP50LimitUs), "1/s");
  for (const auto& [rate, count] : st.counts) {
    report.phases.push_back(count);
    report.phases.back().name = "serve@" + std::to_string(rate);
  }
  if (!st.config.trace) return;
  anb::obs::clear_trace_events();
  const anb::serve::ServeReport served = st.server->report();
  report.per_layer.set("serve.p90_us", st.window_p90s, "us");
  report.per_layer.set("serve.p99_us", st.window_p99s, "us");
  report.per_layer.set("serve.rows_per_batch",
                       static_cast<double>(served.rows) / static_cast<double>(served.batches),
                       "rows");
  report.per_layer.set("serve.retry_later", static_cast<double>(served.retry_later), "count");
  report.per_layer.set("serve.errors", static_cast<double>(served.responses_error), "count");
  report.per_layer.set("serve.dropped", static_cast<double>(served.dropped), "count");
  report.per_layer.set("serve.cache_hit_ratio",
                       static_cast<double>(st.cache.hits) /
                           static_cast<double>(st.cache.hits + st.cache.misses),
                       "ratio");
  // Served latency minus the direct in-process latency of the same
  // request, and how late the generator sent, at the reference rate.
  const anb::SearchSpace& space = anb::MnasSpace::instance();
  std::vector<double> overhead_us, lag_us;
  for (const Request& r : st.at_reference) {
    if (r.sent >= 0.0) lag_us.push_back(1e6 * (r.sent - r.outcome.due));
    if (r.outcome.failed) continue;
    const anb::Arch arch = space.from_index(r.arch);
    const double start = now_s();
    const double value =
        r.accuracy ? st.reference.query_accuracy(arch) : st.reference.query_perf(arch, r.key);
    const double direct_us = 1e6 * (now_s() - start);
    report.check(value == r.expected, "serve: direct query is not repeatable");
    overhead_us.push_back(1e6 * (r.outcome.done - r.outcome.due) - direct_us);
  }
  report.per_layer.set("serve.overhead_us_p50", percentile(overhead_us, 50), "us");
  report.per_layer.set("serve.gen_lag_p99_us", percentile(lag_us, 99), "us");
}

}  // namespace perfbench
