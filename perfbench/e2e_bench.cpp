// End-to-end benchmark of server::MulticastServer: the measuring program.
//
// One process, one thread: the benchmark owns a server::Reactor and a
// MulticastServer, generates session payloads before timing starts, and
// submits sessions from the loop that pumps Reactor::poll_once, so every
// measured CPU cycle is the reactor thread's.  Traffic crosses only the
// loopback interface.  One process runs one trial: set-up, a warm-up, a
// measured window of --seconds, and a drain of the sessions still in
// flight.  It prints one raw JSON record (last line of stdout); run.py
// runs several trials per benchmark run and turns their records into the
// benchmark's metrics (metrics.py holds that arithmetic).  Exit code 1 =
// integrity violation, 2 = usage.
//
//   e2e_bench --workload=bulk --seed=1 --seconds=6 --trial=0 --trace=0
//
// --trace=1 adds the per-layer probes: spans around submit, a
// benchmark-owned periodic reactor timer, thread CPU inside poll_once,
// timed snapshots and, with --probes=1, micro-timings of each layer's
// public functions with the workload's shapes (see README.md).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/integrated.hpp"
#include "analysis/processing.hpp"
#include "core/session_state.hpp"
#include "fec/fec_block.hpp"
#include "fec/packet.hpp"
#include "net/peer_guard.hpp"
#include "net/udp/frame_stream.hpp"
#include "net/udp/udp_transport.hpp"
#include "server/reactor.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using pbl::Rng;
using pbl::server::MulticastServer;
using pbl::server::Reactor;

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  bool open_loop = false;
  std::size_t concurrency = 0;  ///< closed loop: sessions kept in flight
  double rate = 0.0;            ///< open loop: Poisson arrivals per second
  std::size_t receivers = 4;
  std::size_t k = 16;
  std::size_t h = 32;
  std::size_t packet_len = 1024;
  std::size_t tgs = 32;
  double loss = 0.01;
  bool journal = false;
  bool guard = false;
  double snapshot_interval = 0.0;  ///< 0 = no periodic snapshots
  std::size_t pool = 64;           ///< distinct payloads generated at set-up
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// The poll window is short enough that one reactor thread, not the
// protocol's collect timers, bounds throughput on the closed loops.
constexpr double kPollWindow = 0.002;

std::optional<Workload> find_workload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "bulk") {
    w.concurrency = 32;
    w.receivers = 4, w.k = 16, w.h = 32, w.packet_len = 1024, w.tgs = 32;
    w.loss = 0.01;
    w.pool = 48;
  } else if (name == "repair") {
    w.concurrency = 8;
    w.receivers = 16, w.k = 32, w.h = 64, w.packet_len = 1024, w.tgs = 16;
    w.loss = 0.05;
    w.journal = true;
    w.guard = true;
    w.pool = 24;
  } else if (name == "arrivals") {
    w.open_loop = true;
    w.rate = 140.0;
    w.receivers = 4, w.k = 16, w.h = 16, w.packet_len = 64, w.tgs = 4;
    w.loss = 0.01;
    w.snapshot_interval = 0.25;
    w.pool = 256;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---- clocks ----------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user = 0, sys = 0;
};

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec),
          static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec)};
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- raw JSON output -------------------------------------------------------

class Json {
 public:
  void open(const char* key = nullptr) { sep(key), s_ += '{', first_ = true; }
  void close() { s_ += '}', first_ = false; }
  void open_array(const char* key) { sep(key), s_ += '[', first_ = true; }
  void close_array() { s_ += ']', first_ = false; }
  void num(const char* key, double v) {
    sep(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s_ += buf;
  }
  void str(const char* key, std::string_view v) {
    sep(key);
    s_ += '"';
    s_ += v;  // callers pass identifiers only
    s_ += '"';
  }
  void boolean(const char* key, bool v) {
    sep(key), s_ += v ? "true" : "false";
  }
  void nums(const char* key, const std::vector<double>& vs) {
    open_array(key);
    for (const double v : vs) num(nullptr, v);
    close_array();
  }
  const std::string& text() const { return s_; }

 private:
  void sep(const char* key) {
    if (!first_) s_ += ',';
    first_ = false;
    if (key) {
      s_ += '"';
      s_ += key;
      s_ += "\":";
    }
  }
  std::string s_;
  bool first_ = true;
};

// ---- payload pool ----------------------------------------------------------

std::vector<std::vector<pbl::net::TgBytes>> make_pool(const Workload& w,
                                                      Rng rng) {
  std::vector<std::vector<pbl::net::TgBytes>> pool(w.pool);
  for (auto& groups : pool) {
    groups.resize(w.tgs);
    for (auto& tg : groups) {
      tg.resize(w.k);
      for (auto& pkt : tg) {
        pkt.resize(w.packet_len);
        for (std::size_t i = 0; i < pkt.size(); i += 8) {
          const std::uint64_t word = rng();
          for (std::size_t b = 0; b < 8 && i + b < pkt.size(); ++b)
            pkt[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
        }
      }
    }
  }
  return pool;
}

// Guard policing sits far above any honest member's feedback rate (one
// answer per POLL, a few hundred per second at most), so it never drops
// honest traffic; it is on so that every feedback frame pays for it.
pbl::net::PeerGuardConfig guard_config(const Workload& w) {
  pbl::net::PeerGuardConfig g;
  g.enabled = w.guard;
  g.auth = w.guard;
  g.feedback_rate = 5000.0;
  g.feedback_burst = 256.0;
  return g;
}

pbl::server::ServerConfig server_config(const Workload& w,
                                        const std::string& journal_dir) {
  pbl::server::ServerConfig cfg;
  cfg.max_sessions = w.open_loop ? 4096 : w.concurrency;
  cfg.np.k = w.k;
  cfg.np.h = w.h;
  cfg.np.packet_len = w.packet_len;
  cfg.np.poll_window = kPollWindow;
  cfg.np.reliable_control = true;
  cfg.np.guard = guard_config(w);
  cfg.journal_dir = w.journal ? journal_dir : std::string();
  cfg.journal_sync_every = 0;  // OS-buffered
  cfg.snapshot_interval = w.snapshot_interval;
  return cfg;
}

// ---- one trial: set up, warm up, measure, drain ----------------------------

struct Counters {
  double sessions = 0, data_sent = 0, parity_sent = 0, polls_sent = 0,
         naks_received = 0, acks_received = 0, poll_retries = 0,
         tgs_completed = 0, drain_ends = 0, frames_skipped = 0;

  void add(const pbl::obs::MetricsRegistry& m) {
    sessions += 1;
    data_sent += static_cast<double>(m.counter("data_sent"));
    parity_sent += static_cast<double>(m.counter("parity_sent"));
    polls_sent += static_cast<double>(m.counter("polls_sent"));
    naks_received += static_cast<double>(m.counter("naks_received"));
    acks_received += static_cast<double>(m.counter("acks_received"));
    poll_retries += static_cast<double>(m.counter("poll_retries"));
    tgs_completed += static_cast<double>(m.counter("tgs_completed"));
    frames_skipped += static_cast<double>(m.counter("frames_skipped"));
    if (m.text("end_reason") == "drain_timeout") drain_ends += 1;
  }

  void write(Json& j, const char* key) const {
    j.open(key);
    j.num("sessions", sessions);
    j.num("data_sent", data_sent);
    j.num("parity_sent", parity_sent);
    j.num("polls_sent", polls_sent);
    j.num("naks_received", naks_received);
    j.num("acks_received", acks_received);
    j.num("poll_retries", poll_retries);
    j.num("tgs_completed", tgs_completed);
    j.num("drain_ends", drain_ends);
    j.num("frames_skipped", frames_skipped);
    j.close();
  }
};

struct TrialResult {
  double setup_s = 0, wall_s = 0, cpu_s = 0, cpu_sys_s = 0, bytes = 0;
  Counters window;
  std::vector<double> active_series;  ///< active sessions, sampled in window
  // Traced-run extras.
  double busy_cpu_s = 0;
};

struct RunState {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<double> completion_ms;
  std::vector<double> gen_late_us;
  std::vector<double> admit_us;
  std::vector<double> slip_us;
  std::vector<double> snapshot_ms;
};

struct Active {
  std::uint64_t id;
  double due;
};

// One trial per process: set-up runs from process start (`spawned_at`)
// to the first submit, so it covers exec, payload generation and server
// construction.
TrialResult run_trial(const Workload& w, std::uint64_t seed, int trial,
                      double window_s, bool trace, const std::string& workdir,
                      double spawned_at, RunState& run) {
  TrialResult res;
  const Rng trial_rng = Rng(seed).split(static_cast<std::uint64_t>(trial));
  const auto pool = make_pool(w, trial_rng.split(1));
  const std::string journal_dir =
      workdir + "/journal_t" + std::to_string(trial);
  if (w.journal) std::filesystem::create_directories(journal_dir);
  Reactor reactor;
  auto cfg = server_config(w, journal_dir);
  // The traced run drives snapshots itself so it can time each one.
  const double snapshot_interval = cfg.snapshot_interval;
  if (trace) cfg.snapshot_interval = 0.0;
  MulticastServer server(reactor, cfg);

  Rng pick = trial_rng.split(2);
  Rng arrivals = trial_rng.split(3);
  std::uint64_t next_id = 0;
  std::vector<Active> active;
  std::deque<double> freed_at;  // closed loop: when each free slot opened
  std::uint64_t finalized_seen = 0;

  // Probe timer: fires every kProbePeriod on the reactor and records how
  // late it ran; re-armed on its own schedule so a stall shows as slip.
  constexpr double kProbePeriod = 0.005;
  bool probing = false;
  double probe_when = 0.0;
  std::function<void()> probe_fire;
  probe_fire = [&] {
    const double now = reactor.now();
    if (probing) run.slip_us.push_back(1e6 * (now - probe_when));
    probe_when += kProbePeriod;
    while (probe_when < now) probe_when += kProbePeriod;
    reactor.add_timer(probe_when, probe_fire);
  };

  const double t0 = wall_now();
  res.setup_s = t0 - spawned_at;
  const double warmup = w.open_loop ? 0.5 : 1.5;
  const double win_start = t0 + warmup;
  const double win_end = win_start + window_s;
  double next_due = t0;
  if (w.open_loop) next_due += arrivals.exponential(w.rate);
  std::size_t ramped = 0;  // closed loop: sessions started during ramp-up
  double next_sample = win_start;
  double next_snapshot = snapshot_interval > 0 ? t0 + snapshot_interval : 1e300;
  bool in_window = false;
  CpuTimes cpu_at_start;
  const double bytes_per_session =
      static_cast<double>(w.receivers * w.tgs * w.k * w.packet_len);

  if (trace) {
    probe_when = t0 + kProbePeriod;
    reactor.add_timer(probe_when, probe_fire);
  }

  const auto submit = [&](double due) {
    MulticastServer::SessionSpec spec;
    spec.id = next_id++;
    spec.groups = pool[pick.below(pool.size())];
    spec.receivers = w.receivers;
    spec.data_loss = w.loss;
    spec.seed = trial_rng.split(4).split(spec.id)();
    ++run.attempted;
    const double before = trace ? wall_now() : 0.0;
    const bool ok = server.submit(std::move(spec));
    if (trace && in_window) run.admit_us.push_back(1e6 * (wall_now() - before));
    if (!ok) {
      ++run.failed;
      char why[64];
      std::snprintf(why, sizeof(why), "t%d:%llu:refused", trial,
                    static_cast<unsigned long long>(next_id - 1));
      run.violations.push_back(why);
      return;
    }
    active.push_back({next_id - 1, due});
  };

  const auto reap = [&](double now) {
    const std::uint64_t fin =
        server.completed_sessions() + server.failed_sessions();
    if (fin == finalized_seen) return;
    finalized_seen = fin;
    for (std::size_t i = 0; i < active.size();) {
      const auto& m = server.session_metrics(active[i].id);
      const std::string& state = m.text("state");
      if (state == "active") {
        ++i;
        continue;
      }
      const bool ok = state == "completed" &&
                      m.counter("payload_mismatches") == 0 &&
                      m.counter("redelivered_prior") == 0;
      if (!ok) {
        ++run.failed;
        const auto count = [&m](const char* name) {
          return static_cast<unsigned long long>(m.counter(name));
        };
        char why[160];
        std::snprintf(why, sizeof(why),
                      "t%d:%llu:%s:evictions=%llu:unconfirmed=%llu:"
                      "mismatches=%llu:redelivered=%llu",
                      trial, static_cast<unsigned long long>(active[i].id),
                      state.c_str(), count("evictions"),
                      count("tgs_unconfirmed"), count("payload_mismatches"),
                      count("redelivered_prior"));
        run.violations.push_back(why);
      }
      // Closed loop: time the sessions that finalized inside the window.
      // Open loop: time every arrival that was due inside the window,
      // however late it finished, so a stall is charged to the sessions
      // it delayed.  Goodput counts what finalized inside the window.
      if (ok) {
        const bool timed =
            w.open_loop ? active[i].due >= win_start && active[i].due < win_end
                        : in_window;
        if (timed) run.completion_ms.push_back(1e3 * (now - active[i].due));
        if (in_window) {
          res.window.add(m);
          res.bytes += bytes_per_session;
        }
      }
      if (!w.open_loop) freed_at.push_back(now);
      active[i] = active.back();
      active.pop_back();
    }
  };

  for (;;) {
    double now = wall_now();
    if (!in_window && now >= win_start && now < win_end) {
      in_window = true;
      cpu_at_start = process_cpu();
      res.wall_s = now;  // start stamp, turned into a duration below
      if (trace) res.busy_cpu_s = 0.0;
    }
    if (in_window && now >= win_end) {
      in_window = false;
      const CpuTimes cpu = process_cpu();
      res.cpu_sys_s = cpu.sys - cpu_at_start.sys;
      res.cpu_s = cpu.user - cpu_at_start.user + res.cpu_sys_s;
      res.wall_s = now - res.wall_s;
    }
    const bool submitting = now < win_end;
    if (!submitting && active.empty()) break;
    // Receivers give up on a silent sender after 10 s, so by now every
    // session should have finalized; this keeps a run inside its budget.
    if (now > win_end + 20.0) {
      for (const auto& a : active) {
        char why[64];
        std::snprintf(why, sizeof(why), "t%d:%llu:never_finished", trial,
                      static_cast<unsigned long long>(a.id));
        run.violations.push_back(why);
      }
      run.failed += active.size();
      break;
    }

    if (submitting) {
      if (w.open_loop) {
        while (next_due <= now) {
          if (now >= win_start)
            run.gen_late_us.push_back(1e6 * (now - next_due));
          submit(next_due);
          next_due += arrivals.exponential(w.rate);
        }
      } else {
        // Ramp up over the first second so completions do not arrive
        // in lockstep waves, then top up one session per finalization.
        const double ramp = 1.0;
        const double share = std::min(1.0, (now - t0) / ramp);
        const std::size_t target = std::min<std::size_t>(
            w.concurrency,
            1 + static_cast<std::size_t>(
                    share * static_cast<double>(w.concurrency)));
        while (ramped < target) {
          submit(now);
          ++ramped;
        }
        // A top-up is due when its slot opened; how much later it is
        // submitted is the generator's lateness, charged to the session.
        while (ramped >= w.concurrency && active.size() < w.concurrency) {
          const double due = freed_at.empty() ? now : freed_at.front();
          if (!freed_at.empty()) freed_at.pop_front();
          if (in_window) run.gen_late_us.push_back(1e6 * (wall_now() - due));
          submit(due);
        }
      }
    }
    if (in_window && now >= next_sample) {
      res.active_series.push_back(static_cast<double>(active.size()));
      next_sample += 0.1;
    }
    if (trace && now >= next_snapshot) {
      const double before = wall_now();
      server.write_snapshot();
      run.snapshot_ms.push_back(1e3 * (wall_now() - before));
      next_snapshot += snapshot_interval;
    }

    double wait = 0.005;
    if (w.open_loop && submitting) wait = std::min(wait, next_due - now);
    if (wait < 0.0) wait = 0.0;
    probing = trace && in_window;
    if (trace && in_window) {
      const double c0 = thread_cpu_s();
      reactor.poll_once(wait);
      res.busy_cpu_s += thread_cpu_s() - c0;
    } else {
      reactor.poll_once(wait);
    }
    reap(wall_now());
  }
  if (trace && snapshot_interval <= 0.0) {
    // Closed loops run without periodic snapshots; time one render of
    // everything the server holds after the window.
    const double before = wall_now();
    server.write_snapshot();
    run.snapshot_ms.push_back(1e3 * (wall_now() - before));
  }
  if (w.journal) std::filesystem::remove_all(journal_dir);
  return res;
}

// ---- per-layer probes (traced run) -----------------------------------------
//
// Each probe times a layer's public functions from this file, with the
// workload's shapes, in batches; it reports the median ns per call over
// the batches that fit its time budget.

template <class Batch>
double median_ns_per_call(Batch&& batch, double budget_s) {
  std::vector<double> per_call;
  const double end = wall_now() + budget_s;
  do {
    const auto [ns, calls] = batch();
    if (calls > 0) per_call.push_back(ns / static_cast<double>(calls));
  } while (wall_now() < end || per_call.size() < 5);
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  return per_call[per_call.size() / 2];
}

struct Stopwatch {
  std::chrono::steady_clock::time_point t = std::chrono::steady_clock::now();
  double ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t)
        .count();
  }
};

struct Probes {
  double encode_ns_per_parity = 0, decode_ns_per_tg = 0,
         seal_ns_per_frame = 0, parse_ns_per_frame = 0,
         send_ns_per_frame = 0, recv_ns_per_frame = 0,
         frame_decode_ns_per_frame = 0, guard_ns_per_check = 0,
         journal_ns_per_append = 0, timer_ns_per_fire = 0;
};

// Probe results are stored here so the compiler cannot drop the calls.
volatile std::size_t g_sink = 0;
void keep(std::size_t v) { g_sink = v; }

Probes run_probes(const Workload& w, std::uint64_t seed,
                  const std::string& workdir) {
  constexpr double kBudget = 0.4;
  Probes p;
  Rng rng = Rng(seed).split(0xB0B);
  const pbl::fec::RseCode code(w.k, w.k + w.h);
  Workload one = w;
  one.pool = 1;
  const auto groups = make_pool(one, rng.split(1))[0];

  // fec.encode: fresh encoder per TG (construction untimed).
  std::size_t tg_i = 0;
  p.encode_ns_per_parity = median_ns_per_call(
      [&] {
        pbl::fec::TgEncoder enc(static_cast<std::uint32_t>(tg_i), code,
                                groups[tg_i % groups.size()]);
        ++tg_i;
        const std::size_t m = std::min<std::size_t>(w.h, 8);
        Stopwatch sw;
        for (std::size_t j = 0; j < m; ++j)
          keep(enc.parity_packet(j).payload[0]);
        return std::pair{sw.ns(), m};
      },
      kBudget);

  // fec.decode: each TG arrives through the workload's iid loss mask;
  // parities follow until k packets are held, as NP repair delivers them.
  // A fresh decoder per TG, as each receiver holds one per TG.
  std::vector<std::vector<pbl::fec::Packet>> arrivals;
  for (std::size_t t = 0; t < 64; ++t) {
    pbl::fec::TgEncoder enc(static_cast<std::uint32_t>(t), code,
                            groups[t % groups.size()]);
    std::vector<pbl::fec::Packet> seq;
    for (std::size_t i = 0; i < w.k; ++i)
      if (!rng.bernoulli(w.loss)) seq.push_back(enc.data_packet(i));
    for (std::size_t j = 0; seq.size() < w.k && j < w.h; ++j)
      if (!rng.bernoulli(w.loss)) seq.push_back(enc.parity_packet(j));
    arrivals.push_back(std::move(seq));
  }
  std::size_t dec_i = 0;
  p.decode_ns_per_tg = median_ns_per_call(
      [&] {
        double ns = 0;
        for (std::size_t b = 0; b < 8; ++b, ++dec_i) {
          const auto& seq = arrivals[dec_i % arrivals.size()];
          const auto tg = static_cast<std::uint32_t>(dec_i % arrivals.size());
          Stopwatch sw;
          pbl::fec::TgDecoder dec(tg, code, w.packet_len);
          for (const auto& pkt : seq) dec.add(pkt);
          if (dec.decodable()) keep(dec.reconstruct()[0][0]);
          ns += sw.ns();
        }
        return std::pair{ns, std::size_t{8}};
      },
      kBudget);

  // fec.seal / fec.parse on full-size frames.
  std::vector<std::uint8_t> frame(pbl::fec::wire_size(w.packet_len));
  pbl::fec::PacketHeader hdr;
  hdr.type = pbl::fec::PacketType::kData;
  hdr.k = static_cast<std::uint16_t>(w.k);
  hdr.n = static_cast<std::uint16_t>(w.k + w.h);
  hdr.payload_len = static_cast<std::uint32_t>(w.packet_len);
  std::copy(groups[0][0].begin(), groups[0][0].end(),
            frame.begin() + pbl::fec::kHeaderWireSize);
  p.seal_ns_per_frame = median_ns_per_call(
      [&] {
        Stopwatch sw;
        for (std::size_t i = 0; i < 256; ++i) {
          hdr.seq = static_cast<std::uint32_t>(i);
          hdr.index = static_cast<std::uint16_t>(i % w.k);
          pbl::fec::write_header(hdr, frame);
          pbl::fec::seal_frame(frame);
        }
        return std::pair{sw.ns(), std::size_t{256}};
      },
      kBudget);
  p.parse_ns_per_frame = median_ns_per_call(
      [&] {
        Stopwatch sw;
        for (std::size_t i = 0; i < 256; ++i)
          keep(pbl::fec::deserialize_view(frame).payload.size());
        return std::pair{sw.ns(), std::size_t{256}};
      },
      kBudget);

  // net.frame_decode: one stream of a TG's k sealed frames.
  std::vector<std::uint8_t> stream;
  {
    pbl::fec::TgEncoder enc(0, code, groups[0]);
    std::vector<std::uint8_t> f(enc.frame_wire_size());
    for (std::size_t i = 0; i < w.k; ++i) {
      const std::size_t n = enc.write_data_frame(i, 0, f);
      stream.insert(stream.end(), f.begin(), f.begin() + static_cast<long>(n));
    }
  }
  p.frame_decode_ns_per_frame = median_ns_per_call(
      [&] {
        Stopwatch sw;
        pbl::net::FrameStreamDecoder dec;
        dec.feed(stream);
        const auto out = dec.take();
        const double ns = sw.ns();
        keep(out.size());
        return std::pair{ns, out.size()};
      },
      kBudget);

  // net.udp: one TG burst fanned out packet-major/member-minor to the
  // workload's receivers (as SenderSessionDriver stages it), then drained.
  {
    pbl::net::UdpSocket tx;
    std::vector<pbl::net::UdpSocket> rx(w.receivers);
    std::vector<std::vector<std::uint8_t>> frames(w.k);
    pbl::fec::TgEncoder enc(0, code, groups[0]);
    for (std::size_t i = 0; i < w.k; ++i) {
      frames[i].resize(enc.frame_wire_size());
      enc.write_data_frame(i, 0, frames[i]);
    }
    std::vector<pbl::net::FrameRef> refs;
    for (std::size_t i = 0; i < w.k; ++i)
      for (const auto& s : rx) refs.push_back({s.port(), frames[i]});
    std::vector<pbl::fec::Packet> got;
    std::vector<double> send_ns, recv_ns;
    const double end = wall_now() + 2 * kBudget;
    while (wall_now() < end || send_ns.size() < 5) {
      Stopwatch sw;
      const auto r = tx.send_batch(refs);
      const double s_ns = sw.ns();
      if (r.sent == 0) continue;
      send_ns.push_back(s_ns / static_cast<double>(r.sent));
      double r_total = 0;
      std::size_t r_frames = 0;
      for (std::size_t m = 0; m < rx.size(); ++m) {
        auto& s = rx[m];
        // The sent prefix is packet-major, so member m got every R-th frame.
        std::size_t want =
            r.sent / rx.size() + (m < r.sent % rx.size() ? 1 : 0);
        while (want > 0) {
          got.clear();
          Stopwatch rw;
          const std::size_t n = s.receive_batch(got, want, 0.05);
          r_total += rw.ns();
          if (n == 0) break;
          r_frames += n;
          want -= std::min(want, n);
        }
      }
      if (r_frames > 0)
        recv_ns.push_back(r_total / static_cast<double>(r_frames));
    }
    const auto med = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    p.send_ns_per_frame = med(send_ns);
    p.recv_ns_per_frame = recv_ns.empty() ? 0.0 : med(recv_ns);
  }

  // net.guard: authenticated NAK/ACK feedback from every member, spaced
  // on a synthetic clock within the policing rate.
  {
    auto gcfg = guard_config(w);
    gcfg.enabled = true;
    gcfg.auth = true;
    gcfg.auth_key = pbl::net::siphash24(seed, 7, {});
    std::vector<std::uint16_t> members;
    for (std::size_t m = 0; m < w.receivers; ++m)
      members.push_back(static_cast<std::uint16_t>(40000 + m));
    pbl::net::PeerGuard guard(gcfg, members, w.k, w.tgs, 0.0);
    std::vector<std::uint32_t> fbseq(members.size(), 0);
    double now = 0.0;
    std::size_t rejected = 0;
    std::vector<pbl::fec::Packet> batch(256);
    p.guard_ns_per_check = median_ns_per_call(
        [&] {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::size_t m = i % members.size();
            pbl::fec::Packet& fb = batch[i];
            fb = pbl::fec::Packet{};
            fb.header.type = pbl::fec::PacketType::kNak;
            fb.header.tg = static_cast<std::uint32_t>(i % w.tgs);
            fb.header.count = static_cast<std::uint16_t>(i % 3);
            fb.header.index = members[m];
            pbl::net::append_auth_trailer(
                fb, pbl::net::derive_member_key(gcfg.auth_key, members[m]),
                fbseq[m]++);
          }
          Stopwatch sw;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            now += 1.0 / (0.5 * gcfg.feedback_rate);
            if (guard.check(members[i % members.size()], batch[i], now) !=
                pbl::net::PeerVerdict::kAccept)
              ++rejected;
          }
          return std::pair{sw.ns(), batch.size()};
        },
        kBudget);
    if (rejected > 0)
      throw std::runtime_error("guard probe: honest feedback rejected");
  }

  // core.journal: OS-buffered SessionJournal, checkpointing as the server
  // configures it; one parity high-water and one completion per TG.
  {
    const std::string path = workdir + "/probe.journal";
    std::size_t gen = 0;
    p.journal_ns_per_append = median_ns_per_call(
        [&] {
          std::filesystem::remove(path);
          pbl::core::SenderSessionState fresh;
          fresh.session_id = gen++;
          fresh.k = static_cast<std::uint32_t>(w.k);
          fresh.h = static_cast<std::uint32_t>(w.h);
          fresh.packet_len = static_cast<std::uint32_t>(w.packet_len);
          fresh.num_tgs = static_cast<std::uint32_t>(w.tgs);
          fresh.completed.assign(w.tgs, false);
          fresh.parities_sent.assign(w.tgs, 0);
          pbl::core::SessionJournal::Options opt;
          opt.checkpoint_interval = 16;
          opt.sync_every = 0;
          pbl::core::SessionJournal journal(path, fresh, opt);
          Stopwatch sw;
          for (std::size_t t = 0; t < w.tgs; ++t) {
            journal.record_parities_sent(t, 1 + t % 4);
            journal.record_tg_completed(t);
          }
          return std::pair{sw.ns(), 2 * w.tgs};
        },
        kBudget);
    std::filesystem::remove(path);
  }

  // Reactor timer cost (add + fire), for the processing-model fit.
  {
    Reactor reactor;
    p.timer_ns_per_fire = median_ns_per_call(
        [&] {
          std::size_t fired = 0;
          Stopwatch sw;
          const double when = reactor.now();
          for (std::size_t i = 0; i < 256; ++i)
            reactor.add_timer(when, [&fired] { ++fired; });
          reactor.poll_once(0.0);
          return std::pair{sw.ns(), fired};
        },
        kBudget);
  }
  return p;
}

// Paper closure: ProcessingCosts fitted to the probes, fed to the
// paper's NP end-host model (Eqs. 13-16) and the finite-h E[M].
void write_analysis(Json& j, const Workload& w, const Probes& p) {
  const double r = static_cast<double>(w.receivers);
  const double kd = static_cast<double>(w.k);
  pbl::analysis::ProcessingCosts c;
  c.xp = 1e-9 * (p.seal_ns_per_frame + r * p.send_ns_per_frame);
  c.yp = 1e-9 * p.recv_ns_per_frame;
  c.xn = 1e-9 * (p.recv_ns_per_frame + (w.guard ? p.guard_ns_per_check : 0.0));
  c.yn = 1e-9 * (p.seal_ns_per_frame + p.send_ns_per_frame);
  c.yn2 = 0.0;  // receivers never hear each other's unicast feedback
  c.xt = c.yt = 1e-9 * p.timer_ns_per_fire;
  c.ce = 1e-9 * p.encode_ns_per_parity / kd;
  // Eq. 16 charges k*p*cd per packet; match it to the measured per-packet
  // decode cost (the TG decode spread over its k packets).
  c.cd = w.loss > 0 ? 1e-9 * p.decode_ns_per_tg / kd / (kd * w.loss) : 0.0;
  const auto rates = pbl::analysis::np_rates(static_cast<std::int64_t>(w.k),
                                             w.loss, r, c);
  j.open("analysis");
  j.num("np_sender_pps", rates.sender);
  j.num("np_receiver_pps", rates.receiver);
  j.num("np_throughput_pps", rates.throughput);
  j.num("expected_tx_per_pkt",
        pbl::analysis::expected_tx_integrated(static_cast<std::int64_t>(w.k),
                                              static_cast<std::int64_t>(w.h), 0,
                                              w.loss, r));
  j.open("costs_s");
  j.num("xp", c.xp), j.num("yp", c.yp), j.num("xn", c.xn), j.num("yn", c.yn);
  j.num("xt", c.xt), j.num("ce", c.ce), j.num("cd", c.cd);
  j.close();
  j.close();
}

}  // namespace

int main(int argc, char** argv) {
  pbl::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int64("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const int trial = cli.get_int("trial", 0);
  const bool probes = cli.get_int("probes", trace ? 1 : 0) != 0;
  const std::string workdir = cli.get_string("workdir", ".");
  // Process start on the steady clock, as the parent read it just before
  // spawning this process; defaults to entry into main.
  const double spawned_at = cli.get_double("spawned-at", wall_now());
  auto workload = find_workload(name);
  if (!workload || seconds <= 0.0 || trial < 0) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=bulk|repair|arrivals --seed=N "
                 "--seconds=S --trace=0|1 [--trial=T] [--probes=0|1] "
                 "[--spawned-at=T] [--workdir=DIR] [--rate=R]\n");
    return 2;
  }
  Workload& w = *workload;
  // Open-loop rate override, for finding the saturation rate (README.md).
  w.rate = cli.get_double("rate", w.rate);

  // Every session holds 1 + receivers sockets.
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
  std::filesystem::create_directories(workdir);

  RunState run;
  const TrialResult r =
      run_trial(w, seed, trial, seconds, trace, workdir, spawned_at, run);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_peak_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  Json j;
  j.open();
  j.str("workload", w.name);
  j.num("seed", static_cast<double>(seed));
  j.num("trace", trace ? 1 : 0);
  j.open("params");
  j.boolean("open_loop", w.open_loop);
  j.num("concurrency", static_cast<double>(w.concurrency));
  j.num("rate", w.rate);
  j.num("receivers", static_cast<double>(w.receivers));
  j.num("k", static_cast<double>(w.k));
  j.num("h", static_cast<double>(w.h));
  j.num("packet_len", static_cast<double>(w.packet_len));
  j.num("tgs", static_cast<double>(w.tgs));
  j.num("loss", w.loss);
  j.boolean("journal", w.journal);
  j.boolean("guard", w.guard);
  j.num("poll_window", kPollWindow);
  j.close();
  j.num("attempted", static_cast<double>(run.attempted));
  j.num("failed", static_cast<double>(run.failed));
  j.open_array("violations");
  for (const auto& v : run.violations) j.str(nullptr, v);
  j.close_array();
  j.num("rss_peak_mb", rss_peak_mb);
  j.open_array("trials");
  j.open();
  j.num("setup_s", r.setup_s);
  j.num("wall_s", r.wall_s);
  j.num("cpu_s", r.cpu_s);
  j.num("cpu_sys_s", r.cpu_sys_s);
  j.num("bytes", r.bytes);
  j.num("busy_cpu_s", r.busy_cpu_s);
  r.window.write(j, "counters");
  j.nums("active_series", r.active_series);
  j.close();
  j.close_array();
  j.nums("completion_ms", run.completion_ms);
  j.nums("gen_late_us", run.gen_late_us);
  if (trace) {
    j.nums("admit_us", run.admit_us);
    j.nums("slip_us", run.slip_us);
    j.nums("snapshot_ms", run.snapshot_ms);
  }
  if (probes) {
    const Probes p = run_probes(w, seed, workdir);
    j.open("probes");
    j.num("fec.encode_ns_per_parity", p.encode_ns_per_parity);
    j.num("fec.decode_ns_per_tg", p.decode_ns_per_tg);
    j.num("fec.seal_ns_per_frame", p.seal_ns_per_frame);
    j.num("fec.parse_ns_per_frame", p.parse_ns_per_frame);
    j.num("net.udp.send_ns_per_frame", p.send_ns_per_frame);
    j.num("net.udp.recv_ns_per_frame", p.recv_ns_per_frame);
    j.num("net.frame_decode_ns_per_frame", p.frame_decode_ns_per_frame);
    j.num("net.guard_ns_per_check", p.guard_ns_per_check);
    j.num("core.journal_ns_per_append", p.journal_ns_per_append);
    j.num("server.timer_ns_per_fire", p.timer_ns_per_fire);
    j.close();
    write_analysis(j, w, p);
  }
  j.close();
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);

  if (!run.violations.empty()) {
    std::fprintf(stderr, "e2e_bench: %zu integrity violation(s):\n",
                 run.violations.size());
    const std::size_t shown = std::min<std::size_t>(run.violations.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
      std::fprintf(stderr, "  %s\n", run.violations[i].c_str());
    if (shown < run.violations.size())
      std::fprintf(stderr, "  ... and %zu more (all listed in the record)\n",
                   run.violations.size() - shown);
    return 1;
  }
  return 0;
}
