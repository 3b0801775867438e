// hg_perfbench: runs one workload of the simulator benchmark and prints its
// metrics. perfbench/README.md describes the workloads, the metrics and the
// seeds; perfbench/run.py is the entry point that builds this binary, stamps
// its record and prints the final result line.
//
//   hg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
//
// --trace 0: repeats the workload (build, start, run, report) as often as
//   fits in --seconds, at least kMinIterations times, and prints the
//   end-to-end metrics: host times as medians over the repetitions (setup_s
//   over these and extra set-up-only samples), simulated results from the
//   first one. Every repetition must reproduce the first one's simulated
//   results exactly.
// --trace 1: runs the workload once untraced (per-module counters are read
//   from it through the public accessors once the run ends), once traced
//   (run_until in 1-simulated-second slices, one span per call), times
//   fec::WindowCodec directly, prints the per-module metrics and writes the
//   spans to --trace-out.
//
// Output: one "metric <name> <value> <unit>" line per metric, then one
// "record <json>" line. Exit code 0 when every correctness check passes, 1
// when one fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/aggregation_module.hpp"
#include "fec/window_codec.hpp"
#include "gossip/gossip_module.hpp"
#include "membership/directory.hpp"
#include "metrics/percentile.hpp"
#include "net/buffer.hpp"
#include "scenario/deployment.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scale_preset.hpp"
#include "stream/fec_module.hpp"
#include "stream/lag_analyzer.hpp"

namespace {

using namespace hg;
using Clock = std::chrono::steady_clock;
using sim::SimTime;

constexpr std::size_t kMinIterations = 3;
// After each repetition, set-up alone is timed again until these samples
// have taken kSetupShare of the repetition's wall time (at most
// kMaxSetupSamples times). A set-up of a few milliseconds then gets a hundred
// samples spread over a share of every repetition's time, not a handful
// bunched together: the speed of a shared machine drifts by 2x within a
// second, and one sample sees only its moment of that drift.
constexpr double kSetupShare = 0.15;
constexpr std::size_t kMaxSetupSamples = 250;
// Lag beyond which a receiver counts as never jitter-free (the paper's
// largest plotted lag), and the playback lag jitter is judged at (Figs. 5/6).
constexpr double kLagCapSec = 60.0;
constexpr double kJitterLagSec = 10.0;
// The capability classes the gate and the poor-class lag refer to.
constexpr const char* kRichClass = "2Mbps";
constexpr const char* kPoorClass = "256kbps";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  scenario::ExperimentConfig cfg;
};

// Sizes are set so one repetition takes a few host seconds (heap-fec-real:
// about 15) on a 4-core x86-64 box; README.md gives each workload's reason.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "heap-steady-seq") {
    scenario::ExperimentConfig cfg = scenario::ScalePreset::config(1000, core::Mode::kHeap, seed);
    cfg.workers = 0;
    return Workload{"heap-steady-seq", cfg};
  }
  if (name == "std-churn-sharded") {
    scenario::ExperimentConfig cfg =
        scenario::ScalePreset::config(1100, core::Mode::kStandard, seed);
    // One worker: partitions, barriers and exchange run all the same, but no
    // thread waits at a barrier for a worker whose CPU a shared machine has
    // slowed, which slowed 2- and 4-worker runs by up to 2x.
    cfg.workers = 1;
    cfg.partitions = 0;  // auto: 16 from 1,024 nodes up
    const double stream_sec =
        cfg.stream.window_duration_sec() * static_cast<double>(cfg.stream_windows);
    cfg.churn = {{cfg.stream_start + SimTime::sec(stream_sec / 3.0), 0.2}};
    cfg.detection.mean = SimTime::sec(10.0);
    return Workload{"std-churn-sharded", cfg};
  }
  if (name == "heap-fec-real") {
    // The paper's configuration: default ExperimentConfig (HEAP, ref-691,
    // PlanetLab latency, f = 7, 200 ms uncapped aggregation, full players).
    scenario::ExperimentConfig cfg;
    cfg.seed = seed;
    // Not the paper's 270-node testbed: with its 27 receivers in the 2Mbps
    // class, that class's lag p50 exceeds the 256kbps class's at about one
    // seed in thirty (and at 600 receivers at about one in seventy), which
    // fails the class-order check. 1,000 receivers give the class 100. Four
    // windows, not eight, and ScalePreset's 20 s tail, not 65 s, keep a
    // repetition near 15 host seconds; lags beyond ~18 s then read as the
    // 60 s cap, as on the ScalePreset workloads.
    cfg.node_count = 1000;
    cfg.stream_windows = 4;
    cfg.tail = SimTime::sec(20.0);
    cfg.loss_rate = 0.02;
    cfg.stream.real_payloads = true;
    cfg.workers = 0;
    return Workload{"heap-fec-real", cfg};
  }
  return std::nullopt;
}

// Every ExperimentConfig field, in one line, so two configurations that
// differ get different config hashes. The seed is a record field of its own;
// the node factory is the one field that cannot be printed, and every
// workload leaves it null (the preset for `mode`). The code that runs the
// configuration is named by the record's source_sha256.
std::string describe(const Workload& w) {
  const auto& c = w.cfg;
  const auto g = [](double v) { return fmt("%.15g", v); };
  const auto sec = [&g](SimTime t) { return g(t.as_sec()); };
  const auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  std::string s = std::string("workload=") + w.name;
  s += " nodes=" + std::to_string(c.node_count);
  s += std::string(" mode=") + (c.mode == core::Mode::kHeap ? "heap" : "standard");
  s += " fanout=" + g(c.fanout);
  s += " dist=" + c.distribution.name();
  for (const auto& k : c.distribution.classes()) {
    s += " class=" + k.name + ":" + std::to_string(k.capability.bits_per_sec()) + "bps:" +
         g(k.fraction);
  }
  s += " packet_bytes=" + std::to_string(c.stream.packet_bytes);
  s += " data_per_window=" + std::to_string(c.stream.data_per_window);
  s += " parity_per_window=" + std::to_string(c.stream.parity_per_window);
  s += " rate_kbps=" + g(c.stream.payload_rate_kbps);
  s += " real_payloads=" + flag(c.stream.real_payloads);
  s += " stream_virtual_payloads=" + flag(c.stream.virtual_payloads);
  s += " windows=" + std::to_string(c.stream_windows);
  s += " stream_start_s=" + sec(c.stream_start);
  s += " tail_s=" + sec(c.tail);
  s += " source_bps=" + std::to_string(c.source_capability.bits_per_sec());
  s += " loss=" + g(c.loss_rate);
  s += " discipline=" + std::to_string(static_cast<int>(c.discipline));
  if (c.latency) {
    s += " latency=planetlab:" + g(c.latency->log_mean_ms) + ":" + g(c.latency->log_sigma) +
         ":" + g(c.latency->min_ms) + ":" + g(c.latency->max_ms) + ":" +
         g(c.latency->jitter_max_ms);
  } else {
    s += " latency=constant";
  }
  s += " noise_fraction=" + g(c.noise_fraction);
  for (const auto& e : c.churn) s += " crash=" + g(e.fraction) + "@" + sec(e.at);
  s += " detection=" + sec(c.detection.mean) + ":" + g(c.detection.spread) + ":" +
       sec(c.detection.wheel_tick);
  s += " gossip_period_s=" + sec(c.gossip_period);
  s += " retransmit_period_s=" + sec(c.retransmit_period);
  s += " max_retransmits=" + std::to_string(c.max_retransmits);
  s += " gc_horizon=" + std::to_string(c.gc_window_horizon);
  s += " aggregation=" + sec(c.aggregation.period) + ":" +
       std::to_string(c.aggregation.records_per_gossip) + ":" +
       std::to_string(c.aggregation.fanout) + ":" + sec(c.aggregation.record_expiry) + ":" +
       std::to_string(c.aggregation.max_records);
  s += " max_fanout=" + g(c.max_fanout);
  s += " rounding=" + std::to_string(static_cast<int>(c.rounding));
  s += " smart_receivers=" + flag(c.smart_receivers);
  s += " virtual_payloads=" + flag(c.virtual_payloads);
  s += " lean_players=" + flag(c.lean_players);
  s += " workers=" + std::to_string(c.workers);
  s += " partitions=" + std::to_string(c.partitions);
  s += " placement=" + std::to_string(static_cast<int>(c.placement));
  s += " epoch_widening=" + flag(c.epoch_widening);
  return s;
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int class_index(const scenario::ExperimentConfig& cfg, const char* name) {
  const auto& classes = cfg.distribution.classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].name == name) return static_cast<int>(c);
  }
  return -1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- tracing -----------------------------------------------------------------

// Spans kept in memory and written once, at exit, in the Chrome trace-event
// format (chrome://tracing, Perfetto). Each span carries its parent's id and
// any counters attached to it.
class Tracer {
 public:
  std::uint32_t open(std::string name, std::uint32_t parent) {
    spans_.push_back(Span{static_cast<std::uint32_t>(spans_.size() + 1), parent,
                          std::move(name), seconds_since(t0_), 0.0, {}});
    return spans_.back().id;
  }
  // Returns the span's duration in seconds.
  double close(std::uint32_t id) {
    Span& s = spans_[id - 1];
    s.dur_s = seconds_since(t0_) - s.start_s;
    return s.dur_s;
  }
  void attach(std::uint32_t id, std::vector<Metric> counters) {
    spans_[id - 1].counters = std::move(counters);
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u",
                   json_escape(s.name).c_str(), s.start_s * 1e6, s.dur_s * 1e6, s.id, s.parent);
      for (const Metric& m : s.counters) {
        std::fprintf(f, ", \"%s\": %.17g", json_escape(m.name).c_str(), m.value);
      }
      std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::string name;
    double start_s;
    double dur_s;
    std::vector<Metric> counters;
  };
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// --- one repetition of a workload --------------------------------------------

// Simulated results: functions of the seed alone, so every repetition and
// the traced run must reproduce them bit for bit.
struct SimResult {
  double lag_p50 = 0, lag_p99 = 0, lag_p99_poor = 0;
  double lag_p50_rich = 0, lag_p50_poor = 0;
  std::uint64_t pairs = 0;           // surviving receivers x windows
  std::uint64_t jittered_pairs = 0;  // of those, not decodable at kJitterLagSec
  std::uint64_t windows_decoded = 0;
  std::uint64_t stream_packets = 0;  // distinct stream packets delivered to receivers
  std::int64_t uploaded_bytes = 0;   // wire bytes sent by receivers
  std::uint64_t datagrams = 0;       // sent over the fabric (delivered + lost)
  std::uint64_t events = 0;
  std::size_t packet_bytes = 0;

  bool operator==(const SimResult&) const = default;

  [[nodiscard]] double jitter_pct() const {
    return 100.0 * ratio(static_cast<double>(jittered_pairs), static_cast<double>(pairs));
  }
  [[nodiscard]] double wire_bytes_per_stream_byte() const {
    return ratio(static_cast<double>(uploaded_bytes),
                 static_cast<double>(stream_packets * packet_bytes));
  }
  // The quantities the traced run is compared on.
  [[nodiscard]] std::vector<std::pair<const char*, double>> fields() const {
    return {{"lag_p50_s", lag_p50},
            {"lag_p99_s", lag_p99},
            {"lag_p99_poor_s", lag_p99_poor},
            {"jittered_pairs", static_cast<double>(jittered_pairs)},
            {"windows_decoded", static_cast<double>(windows_decoded)},
            {"stream_packets", static_cast<double>(stream_packets)},
            {"uploaded_bytes", static_cast<double>(uploaded_bytes)},
            {"datagrams", static_cast<double>(datagrams)},
            {"events", static_cast<double>(events)}};
  }
};

struct HostTimes {
  double build = 0, start = 0, run = 0, report = 0;
  [[nodiscard]] double setup() const { return build + start; }
  [[nodiscard]] double wall() const { return build + start + run + report; }
};

// Per-module counters, read through the public accessors once a run ends.
struct ClassLink {
  std::string name;
  double queue_delay_ms = 0, queue_delay_max_ms = 0, util_pct = 0;
};
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t fec_windows_decoded = 0, fec_erasures_repaired = 0, fec_decode_failures = 0,
                fec_malformed = 0;
  std::uint64_t epochs_run = 0, epochs_skipped = 0;
  std::uint64_t lost = 0, delivered = 0, local = 0, xpart = 0, filtered_dead = 0,
                xpart_bytes = 0;
  std::vector<ClassLink> classes;
  double pool_hit_pct = 0;
  std::uint64_t proposes = 0, requests = 0, serves = 0, delivered_events = 0;
  std::uint64_t retx_started = 0, retx_cancelled = 0, retx_retries = 0, retx_gave_up = 0;
  double state_bytes_per_node = 0;
  std::uint64_t views_materialized = 0, alive_at_end = 0;
  std::uint64_t agg_gossips = 0, agg_merged = 0;
  double bbar_err_pct = 0;
  std::uint64_t dispatched = 0, unknown_tag = 0;
  // Aggregation datagrams delivered to the source. In a HEAP deployment the
  // standard-mode source mounts no aggregation module, so each of these is
  // also counted as an unknown-tag datagram there.
  std::uint64_t source_aggregation_received = 0;
  std::uint64_t packets_received = 0, duplicates = 0, requests_deferred = 0;
};

Counters read_counters(scenario::Deployment& d, const scenario::ExperimentConfig& cfg,
                       const net::BufferPool::Stats& pool_before) {
  Counters c;
  c.events = d.events_executed();
  if (d.parallel()) {
    c.epochs_run = d.engine().epochs_run();
    c.epochs_skipped = d.engine().epochs_skipped();
  } else {
    // The main thread's pool serves every allocation of a sequential run.
    const auto& now = net::BufferPool::local().stats();
    const double hits = static_cast<double>(now.pool_hits - pool_before.pool_hits);
    const double allocs = static_cast<double>(now.chunk_allocs - pool_before.chunk_allocs);
    c.pool_hit_pct = 100.0 * ratio(hits, hits + allocs);
  }
  c.lost = d.fabric().datagrams_lost();
  c.delivered = d.fabric().datagrams_delivered();
  const auto ss = d.fabric().superstep_counters();
  c.local = ss.local_datagrams;
  c.xpart = ss.xpart_datagrams;
  c.filtered_dead = ss.filtered_dead;
  c.xpart_bytes = ss.xpart_exchange_bytes;

  const auto& classes = cfg.distribution.classes();
  struct LinkSums {
    double delay_us = 0, max_delay_us = 0, sent = 0, util = 0;
    std::size_t nodes = 0;
  };
  std::vector<LinkSums> link(classes.size());
  double live_capability = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    const scenario::ReceiverInfo& info = d.info(i);
    core::NodeRuntime& node = d.node(i);
    if (!info.crashed) {
      live_capability += static_cast<double>(info.capability.bits_per_sec());
      ++live;
      const net::UploadLink& l = d.fabric().link(info.id);
      LinkSums& s = link[static_cast<std::size_t>(info.class_index)];
      s.delay_us += static_cast<double>(l.total_queue_delay().as_us());
      s.max_delay_us = std::max(s.max_delay_us, static_cast<double>(l.max_queue_delay().as_us()));
      s.sent += static_cast<double>(l.sent_count());
      s.util += ratio(static_cast<double>(info.uploaded_bytes_at_stream_end) * 8.0,
                      static_cast<double>(info.actual_capacity.bits_per_sec()) *
                          cfg.stream_end().as_sec());
      ++s.nodes;
    }
    if (const auto* fm = node.find_module<stream::FecModule>()) {
      c.fec_windows_decoded += fm->stats().windows_decoded;
      c.fec_erasures_repaired += fm->stats().erasures_repaired;
      c.fec_decode_failures += fm->stats().decode_failures;
      c.fec_malformed += fm->stats().malformed_packets;
    }
    if (const auto* gm = node.find_module<gossip::GossipModule>()) {
      c.delivered_events += gm->engine().stats().events_delivered;
      c.state_bytes_per_node += static_cast<double>(gm->engine().state_bytes());
    }
    if (node.view().materialized()) ++c.views_materialized;
    if (const auto* am = node.find_module<aggregation::AggregationModule>()) {
      c.agg_gossips += am->aggregator().stats().gossips_sent;
      c.agg_merged += am->aggregator().stats().records_merged;
    }
    const stream::Player& p = d.player(i);
    c.packets_received += p.packets_received();
    c.duplicates += p.duplicates();
    c.requests_deferred += p.requests_deferred();
  }
  c.state_bytes_per_node = ratio(c.state_bytes_per_node, static_cast<double>(d.receivers()));
  c.alive_at_end = d.directory().alive_count();

  // b̄ error: each live HEAP receiver's estimate against the true mean
  // declared capability of the live receivers.
  const double true_bbar = ratio(live_capability, static_cast<double>(live));
  double err_sum = 0;
  std::size_t estimators = 0;
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    if (d.info(i).crashed) continue;
    if (const auto* am = d.node(i).find_module<aggregation::AggregationModule>()) {
      err_sum += std::abs(am->aggregator().average_capability_bps() - true_bbar) / true_bbar;
      ++estimators;
    }
  }
  c.bbar_err_pct = 100.0 * ratio(err_sum, static_cast<double>(estimators));

  // Sends and dispatch are counted on every node, the source included.
  auto add_node = [&c](const core::NodeRuntime& node) {
    c.dispatched += node.stats().datagrams_dispatched;
    c.unknown_tag += node.stats().unknown_tag_datagrams;
    if (const auto* gm = node.find_module<gossip::GossipModule>()) {
      const auto& g = gm->engine().stats();
      c.proposes += g.proposes_sent;
      c.requests += g.requests_sent;
      c.serves += g.serves_sent;
      const auto& r = gm->engine().retransmit_stats();
      c.retx_started += r.timers_started;
      c.retx_cancelled += r.cancelled_by_serve;
      c.retx_retries += r.retries_fired;
      c.retx_gave_up += r.gave_up;
    }
  };
  add_node(d.source_node());
  c.source_aggregation_received =
      d.fabric().meter(NodeId{0}).received(net::MsgClass::kAggregation).msgs;
  for (std::size_t i = 0; i < d.receivers(); ++i) add_node(d.node(i));

  for (std::size_t k = 0; k < classes.size(); ++k) {
    const LinkSums& s = link[k];
    c.classes.push_back(ClassLink{classes[k].name, ratio(s.delay_us, s.sent) / 1e3,
                                  s.max_delay_us / 1e3,
                                  100.0 * ratio(s.util, static_cast<double>(s.nodes))});
  }
  return c;
}

// The per-module counters as metrics: the per-layer output of the traced
// mode, and the samples attached to each run_until slice span.
void counter_metrics(std::vector<Metric>& m, const Counters& c) {
  const double events = static_cast<double>(c.events);
  const double sent = static_cast<double>(c.delivered + c.lost);
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  m.push_back({"fec.windows_decoded", u(c.fec_windows_decoded), "count"});
  m.push_back({"fec.erasures_repaired", u(c.fec_erasures_repaired), "count"});
  m.push_back({"fec.decode_failures", u(c.fec_decode_failures), "count"});
  m.push_back({"fec.malformed_packets", u(c.fec_malformed), "count"});
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.events_per_datagram", ratio(events, sent), "count"});
  m.push_back({"sim.epochs_run", u(c.epochs_run), "count"});
  m.push_back({"sim.epochs_skipped", u(c.epochs_skipped), "count"});
  m.push_back({"sim.events_per_epoch", ratio(events, u(c.epochs_run)), "count"});
  m.push_back({"net.datagrams", sent, "count"});
  m.push_back({"net.loss_pct", 100.0 * ratio(u(c.lost), sent), "%"});
  m.push_back({"net.xpart_fraction",
               ratio(u(c.xpart), u(c.local + c.xpart + c.filtered_dead)), "ratio"});
  m.push_back({"net.xpart_exchange_mb", u(c.xpart_bytes) / (1024.0 * 1024.0), "MB"});
  m.push_back({"net.filtered_dead", u(c.filtered_dead), "count"});
  for (const ClassLink& k : c.classes) {
    m.push_back({"net.upload_queue_delay_ms." + k.name, k.queue_delay_ms, "ms"});
    m.push_back({"net.upload_queue_delay_max_ms." + k.name, k.queue_delay_max_ms, "ms"});
    m.push_back({"net.upload_util_pct." + k.name, k.util_pct, "%"});
  }
  m.push_back({"net.buffer_pool_hit_pct", c.pool_hit_pct, "%"});
  m.push_back({"gossip.proposes_sent", u(c.proposes), "count"});
  m.push_back({"gossip.requests_sent", u(c.requests), "count"});
  m.push_back({"gossip.serves_sent", u(c.serves), "count"});
  m.push_back({"gossip.useful_serve_pct", 100.0 * ratio(u(c.delivered_events), u(c.serves)),
               "%"});
  m.push_back({"gossip.retx_timers_started", u(c.retx_started), "count"});
  m.push_back({"gossip.retx_cancel_pct", 100.0 * ratio(u(c.retx_cancelled), u(c.retx_started)),
               "%"});
  m.push_back({"gossip.retx_retries", u(c.retx_retries), "count"});
  m.push_back({"gossip.retx_gave_up", u(c.retx_gave_up), "count"});
  m.push_back({"gossip.state_bytes_per_node", c.state_bytes_per_node, "B"});
  m.push_back({"membership.views_materialized", u(c.views_materialized), "count"});
  m.push_back({"membership.alive_at_end", u(c.alive_at_end), "count"});
  m.push_back({"aggregation.gossips_sent", u(c.agg_gossips), "count"});
  m.push_back({"aggregation.records_merged", u(c.agg_merged), "count"});
  m.push_back({"aggregation.bbar_err_pct", c.bbar_err_pct, "%"});
  m.push_back({"core.datagrams_dispatched", u(c.dispatched), "count"});
  m.push_back({"core.unknown_tag_datagrams", u(c.unknown_tag), "count"});
  m.push_back({"core.source_aggregation_received", u(c.source_aggregation_received), "count"});
  m.push_back({"stream.packets_received", u(c.packets_received), "count"});
  m.push_back({"stream.duplicate_pct",
               100.0 * ratio(u(c.duplicates), u(c.packets_received + c.duplicates)), "%"});
  m.push_back({"stream.requests_deferred", u(c.requests_deferred), "count"});
}

SimResult report(scenario::Deployment& d, const scenario::ExperimentConfig& cfg) {
  const stream::LagAnalyzer analyzer(d.source());
  const int rich = class_index(cfg, kRichClass);
  const int poor = class_index(cfg, kPoorClass);
  metrics::Samples lag, lag_rich, lag_poor;
  SimResult r;
  r.packet_bytes = cfg.stream.packet_bytes;
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    r.uploaded_bytes += d.meter(i).total_sent_bytes();
    const stream::Player& p = d.player(i);
    r.stream_packets += p.packets_received();
    if (d.info(i).crashed) continue;
    const std::vector<double> lags = analyzer.window_decode_lags(p);
    for (const double l : lags) {
      ++r.pairs;
      if (l > kJitterLagSec) ++r.jittered_pairs;
      if (!std::isinf(l)) ++r.windows_decoded;
    }
    const double to_jitter_free =
        std::min(analyzer.lag_to_jitter_at_most(p, 0.0).value_or(kLagCapSec), kLagCapSec);
    lag.add(to_jitter_free);
    if (d.info(i).class_index == rich) lag_rich.add(to_jitter_free);
    if (d.info(i).class_index == poor) lag_poor.add(to_jitter_free);
  }
  if (!lag.empty()) {
    r.lag_p50 = lag.percentile(50);
    r.lag_p99 = lag.percentile(99);
  }
  if (!lag_rich.empty()) r.lag_p50_rich = lag_rich.percentile(50);
  if (!lag_poor.empty()) {
    r.lag_p50_poor = lag_poor.percentile(50);
    r.lag_p99_poor = lag_poor.percentile(99);
  }
  r.datagrams = d.fabric().datagrams_delivered() + d.fabric().datagrams_lost();
  r.events = d.events_executed();
  return r;
}

// Host time of each simulated phase of a traced run.
struct Phases {
  double stream_s = 0, tail_s = 0, churn_s = 0, slice_max_s = 0;
};

struct Iteration {
  HostTimes t;
  SimResult sim;
  std::optional<Counters> counters;
  Phases phases;
};

std::unique_ptr<scenario::Deployment> build_deployment(const scenario::ExperimentConfig& cfg) {
  return scenario::Deployment::Builder{}
      .seed(cfg.seed)
      .network(cfg.network_plan())
      .population(cfg.population_plan())
      .stream(cfg.stream_plan())
      .churn(cfg.churn_plan())
      .parallel(cfg.parallel_plan())
      .build();
}

void start_deployment(scenario::Deployment& d, const scenario::ExperimentConfig& cfg) {
  d.start();
  // Upload utilisation is taken over the stream interval, as in
  // scenario::Experiment (a barrier control task in sharded mode).
  scenario::Deployment* dp = &d;
  d.schedule_control(cfg.stream_end(), [dp]() {
    for (std::size_t i = 0; i < dp->receivers(); ++i) {
      dp->info(i).uploaded_bytes_at_stream_end = dp->meter(i).total_sent_bytes();
    }
  });
}

// Set-up alone: build() + start(), timed, then the deployment is torn down
// untimed. Returns the set-up seconds.
double time_setup(const scenario::ExperimentConfig& cfg) {
  const auto t0 = Clock::now();
  std::unique_ptr<scenario::Deployment> d = build_deployment(cfg);
  start_deployment(*d, cfg);
  return seconds_since(t0);
}

// One repetition: build, start, run to run_end, report. With a tracer the
// run goes in 1-simulated-second run_until slices, one span each; with
// `want_counters` the per-module counters are read before teardown.
Iteration run_once(const Workload& w, Tracer* tracer, std::uint32_t parent, bool want_counters) {
  const scenario::ExperimentConfig& cfg = w.cfg;
  Iteration it;
  const net::BufferPool::Stats pool_before = net::BufferPool::local().stats();

  auto span = [&](const char* name) { return tracer ? tracer->open(name, parent) : 0u; };

  std::uint32_t s = span("build");
  auto t0 = Clock::now();
  std::unique_ptr<scenario::Deployment> d = build_deployment(cfg);
  it.t.build = seconds_since(t0);
  if (tracer) tracer->close(s);

  s = span("start");
  t0 = Clock::now();
  start_deployment(*d, cfg);
  it.t.start = seconds_since(t0);
  if (tracer) tracer->close(s);

  const SimTime run_end = cfg.run_end();
  t0 = Clock::now();
  if (tracer == nullptr) {
    d->run_until(run_end);
  } else {
    const SimTime crash = cfg.churn.empty() ? SimTime::max() : cfg.churn.front().at;
    const SimTime crash_wake_end =
        cfg.churn.empty() ? SimTime::max() : crash + SimTime::us(2 * cfg.detection.mean.as_us());
    SimTime from = d->now();
    for (std::int64_t k = 1; from < run_end; ++k) {
      const SimTime until = std::min(SimTime::sec(static_cast<double>(k)), run_end);
      const std::uint32_t slice = tracer->open("run_until", parent);
      d->run_until(until);
      const double dur = tracer->close(slice);
      // Counters sampled at the slice boundary, outside the span.
      std::vector<Metric> sample = {{"sim_t", until.as_sec(), "sim_s"}};
      counter_metrics(sample, read_counters(*d, cfg, pool_before));
      tracer->attach(slice, std::move(sample));
      (until <= cfg.stream_end() ? it.phases.stream_s : it.phases.tail_s) += dur;
      if (from >= crash && until <= crash_wake_end) it.phases.churn_s += dur;
      it.phases.slice_max_s = std::max(it.phases.slice_max_s, dur);
      from = until;
    }
  }
  it.t.run = seconds_since(t0);

  s = span("report");
  t0 = Clock::now();
  it.sim = report(*d, cfg);
  it.t.report = seconds_since(t0);
  if (tracer) tracer->close(s);

  if (want_counters) it.counters = read_counters(*d, cfg, pool_before);
  return it;
}

// --- fec::WindowCodec timed directly -----------------------------------------

struct CodecTiming {
  double init_ms = 0, encode_ns_per_byte = 0, decode_ns_per_byte = 0;
  bool roundtrip_ok = true;
};

// Times codec construction, window encode and a decode that rebuilds
// `parity` erased data packets from parity, at the stream's geometry.
CodecTiming time_codec(const stream::StreamConfig& sc, std::uint64_t seed, Tracer& tracer) {
  constexpr int kReps = 15;
  const fec::WindowCodecConfig geometry{sc.data_per_window, sc.parity_per_window,
                                        sc.packet_bytes};
  const std::uint32_t root = tracer.open("fec.window_codec", 0);
  std::vector<double> init, enc, dec;
  std::optional<fec::WindowCodec> codec;
  for (int i = 0; i < kReps; ++i) {
    const std::uint32_t s = tracer.open("WindowCodec()", root);
    codec.emplace(geometry);
    init.push_back(tracer.close(s));
  }

  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::uint8_t>> data(sc.data_per_window,
                                              std::vector<std::uint8_t>(sc.packet_bytes));
  for (auto& packet : data) {
    for (auto& b : packet) b = static_cast<std::uint8_t>(rng());
  }
  std::vector<std::vector<std::uint8_t>> parity;
  for (int i = 0; i < kReps; ++i) {
    const std::uint32_t s = tracer.open("encode_window", root);
    parity = codec->encode_window(data);
    enc.push_back(tracer.close(s));
  }

  // Erase the first `parity` data packets: the decode must rebuild each.
  std::vector<std::optional<std::vector<std::uint8_t>>> received;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i >= sc.parity_per_window) received.emplace_back(data[i]);
    else received.emplace_back(std::nullopt);
  }
  for (const auto& p : parity) received.emplace_back(p);
  CodecTiming t;
  for (int i = 0; i < kReps; ++i) {
    const std::uint32_t s = tracer.open("decode_window", root);
    const auto decoded = codec->decode_window(received);
    dec.push_back(tracer.close(s));
    t.roundtrip_ok = t.roundtrip_ok && decoded.has_value() && *decoded == data;
  }
  tracer.close(root);

  const double window_bytes = static_cast<double>(sc.data_per_window * sc.packet_bytes);
  t.init_ms = median(init) * 1e3;
  t.encode_ns_per_byte = median(enc) * 1e9 / window_bytes;
  t.decode_ns_per_byte = median(dec) * 1e9 / window_bytes;
  return t;
}

// --- output ------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void end_to_end_metrics(std::vector<Metric>& m, const Workload& w,
                        const std::vector<Iteration>& its, const std::vector<double>& setups) {
  std::vector<double> wall, throughput;
  const double node_sim_s =
      static_cast<double>(w.cfg.node_count) * w.cfg.run_end().as_sec();
  for (const Iteration& it : its) {
    wall.push_back(it.t.wall());
    throughput.push_back(node_sim_s / it.t.run);
  }
  const SimResult& r = its.front().sim;
  m.push_back({"wall_s", median(wall), "s"});
  m.push_back({"setup_s", median(setups), "s"});
  m.push_back({"sim_node_s_per_s", median(throughput), "node_sim_s/s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"lag_p50_s", r.lag_p50, "sim_s"});
  m.push_back({"lag_p99_s", r.lag_p99, "sim_s"});
  m.push_back({"lag_p99_poor_s", r.lag_p99_poor, "sim_s"});
  m.push_back({"jitter_pct", r.jitter_pct(), "%"});
  m.push_back({"wire_bytes_per_stream_byte", r.wire_bytes_per_stream_byte(), "B/B"});
}

void per_layer_metrics(std::vector<Metric>& m, const Iteration& plain, const Iteration& traced,
                       const CodecTiming& codec, std::size_t divergent,
                       double datagram_divergence) {
  m.push_back({"scenario.build_s", plain.t.build, "s"});
  m.push_back({"scenario.start_s", plain.t.start, "s"});
  m.push_back({"metrics.report_s", plain.t.report, "s"});
  m.push_back({"fec.codec_init_ms", codec.init_ms, "ms"});
  m.push_back({"fec.encode_ns_per_byte", codec.encode_ns_per_byte, "ns/B"});
  m.push_back({"fec.decode_ns_per_byte", codec.decode_ns_per_byte, "ns/B"});
  counter_metrics(m, *plain.counters);
  m.push_back({"sim.ns_per_event",
               ratio(plain.t.run * 1e9, static_cast<double>(plain.counters->events)), "ns"});
  m.push_back({"stream.jitter_pct", plain.sim.jitter_pct(), "%"});
  m.push_back({"sim.stream_phase_s", traced.phases.stream_s, "s"});
  m.push_back({"sim.tail_phase_s", traced.phases.tail_s, "s"});
  m.push_back({"sim.churn_phase_s", traced.phases.churn_s, "s"});
  m.push_back({"sim.slice_s_max", traced.phases.slice_max_s, "s"});
  m.push_back({"trace.overhead_s", traced.t.wall() - plain.t.wall(), "s"});
  m.push_back({"trace.sim_divergence", static_cast<double>(divergent), "count"});
  m.push_back({"trace.datagram_divergence", datagram_divergence, "count"});
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty() || val[0] == '-') return std::nullopt;
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !have_seed) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: hg_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const std::optional<Workload> w = make_workload(args->workload, args->seed);
  if (!w) {
    std::fprintf(stderr, "hg_perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  std::vector<std::string> failures;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  std::vector<Metric> metrics;
  std::vector<Iteration> its;

  std::vector<double> setups;  // every timed build() + start() of the run
  if (!args->trace) {
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      its.push_back(run_once(*w, nullptr, 0, its.empty()));
      check(its.back().sim == its.front().sim,
            "repetition " + std::to_string(its.size()) +
                " did not reproduce the first repetition's simulated results");
      setups.push_back(its.back().t.setup());
      // Set-up-only samples after each repetition, so that drift in the
      // machine's speed touches them and the repetitions alike. A sample is
      // taken only if one more set-up, as long as the repetition's own,
      // still fits in the budget: a set-up of seconds gets no extra samples.
      const double budget = kSetupShare * its.back().t.wall();
      const double estimate = its.back().t.setup();
      double spent = 0;
      for (std::size_t k = 0; k < kMaxSetupSamples && spent + estimate <= budget; ++k) {
        setups.push_back(time_setup(w->cfg));
        spent += setups.back();
      }
      // Stop when the next repetition would end past --seconds.
      elapsed = seconds_since(t0);
    } while (its.size() < kMinIterations ||
             elapsed * static_cast<double>(its.size() + 1) / static_cast<double>(its.size()) <=
                 args->seconds);
    end_to_end_metrics(metrics, *w, its, setups);
  } else {
    Tracer tracer;
    its.push_back(run_once(*w, nullptr, 0, true));
    const std::uint32_t root = tracer.open("traced_run", 0);
    Iteration traced = run_once(*w, &tracer, root, false);
    tracer.close(root);
    const CodecTiming codec = time_codec(w->cfg.stream, args->seed, tracer);
    check(codec.roundtrip_ok, "fec::WindowCodec decode did not return the encoded data");

    // Divergence of the traced (sliced) run from the untraced one: reported
    // as measured, never a correctness failure.
    std::size_t divergent = 0;
    const auto plain_fields = its.front().sim.fields();
    const auto traced_fields = traced.sim.fields();
    for (std::size_t i = 0; i < plain_fields.size(); ++i) {
      if (plain_fields[i].second == traced_fields[i].second) continue;
      ++divergent;
      std::fprintf(stderr, "[perfbench] traced run diverges: %s %.17g -> %.17g\n",
                   plain_fields[i].first, plain_fields[i].second, traced_fields[i].second);
    }
    const double datagram_divergence = std::abs(static_cast<double>(traced.sim.datagrams) -
                                                static_cast<double>(its.front().sim.datagrams));
    per_layer_metrics(metrics, its.front(), traced, codec, divergent, datagram_divergence);
    if (!args->trace_out.empty() && !tracer.write(args->trace_out)) {
      std::fprintf(stderr, "[perfbench] cannot write trace to %s\n", args->trace_out.c_str());
      return 2;
    }
  }

  const Counters& c = *its.front().counters;
  check(c.fec_decode_failures == 0, "fec.decode_failures is non-zero");
  check(c.fec_malformed == 0, "fec.malformed_packets is non-zero");
  // Known defect, reported rather than gated: the standard-mode source of a
  // HEAP deployment is picked as an aggregation partner but mounts no
  // aggregation module, so it counts those datagrams as unknown-tag. Any
  // unknown-tag datagram beyond them fails the run.
  check(c.unknown_tag <= c.source_aggregation_received,
        "core.unknown_tag_datagrams exceeds the aggregation datagrams the source received");
  if (c.source_aggregation_received > 0) {
    std::fprintf(stderr,
                 "[perfbench] known defect: the source dropped %llu aggregation datagrams as "
                 "unknown-tag (core.unknown_tag_datagrams = %llu)\n",
                 static_cast<unsigned long long>(c.source_aggregation_received),
                 static_cast<unsigned long long>(c.unknown_tag));
  }
  const SimResult& r = its.front().sim;
  check(r.windows_decoded > 0, "no window was delivered");
  if (w->cfg.mode == core::Mode::kHeap) {
    check(r.lag_p50_rich <= r.lag_p50_poor,
          std::string(kRichClass) + " lag_p50 exceeds " + kPoorClass + " lag_p50");
  }

  const std::string config = describe(*w);
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "record {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"config\": \"%s\", \"config_hash\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": [",
      w->name, static_cast<unsigned long long>(args->seed), args->trace ? 1 : 0,
      json_escape(config).c_str(), fnv1a_hex(config).c_str(), HG_BENCH_COMPILER,
      HG_BENCH_BUILD_TYPE, failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(r.pairs),
      static_cast<unsigned long long>(r.jittered_pairs));
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(failures[i]).c_str());
  }
  std::printf("], \"repetition_wall_s\": [");
  for (std::size_t i = 0; i < its.size(); ++i) {
    std::printf("%s%.17g", i ? ", " : "", its[i].t.wall());
  }
  std::printf("], \"setup_samples\": %zu, \"metrics\": {", setups.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  for (const std::string& f : failures) std::fprintf(stderr, "[perfbench] FAILED: %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
