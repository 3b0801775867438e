// Scale ladder: 10k / 50k / 100k-node runs of the HEAP preset.
//
// Not a paper figure — the paper stops at ~700 PlanetLab nodes. This bench
// is the engine's scale regression: it runs scenario::ScalePreset
// populations, reports class-stratified lag/jitter percentiles through
// *streaming* (fixed-memory) metrics, and emits BENCH_bench_fig_scale.json
// with nodes/sec, events/sec, and peak RSS so throughput and footprint are
// tracked across commits.
//
// Usage: bench_fig_scale [nodes...]   (default: 10000 50000 100000)
// HG_SEEDS replicas per population run in parallel on HG_THREADS workers;
// results are bit-deterministic for a given seed regardless of HG_THREADS.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gossip/gossip_module.hpp"
#include "scenario/report.hpp"
#include "scenario/scale_preset.hpp"
#include "scenario/sweep_runner.hpp"

namespace {

using namespace hg;

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct ClassPercentiles {
  std::string name;
  std::size_t nodes = 0;
  double lag_p50 = 0, lag_p90 = 0, lag_p99 = 0;        // s to jitter-free
  double jitter_p50 = 0, jitter_p90 = 0, jitter_p99 = 0;  // % windows jittered
};

struct RunStats {
  std::uint64_t events = 0;
  double gossip_state_bytes_per_node = 0;  // end-of-run mean per receiver
  std::vector<ClassPercentiles> classes;
  // Superstep engine counters (all zero in sequential runs). Functions of
  // (seed, partitions, placement) only — never of the worker count.
  std::uint32_t partitions = 0;
  std::uint64_t epochs_run = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t local_datagrams = 0;
  std::uint64_t xpart_datagrams = 0;
  std::uint64_t filtered_dead = 0;
  std::uint64_t xpart_exchange_bytes = 0;
};

// Lag beyond which a node counts as "never jitter-free" (axis cap, matching
// the paper's largest plotted lag).
constexpr double kLagCapSec = 60.0;
// Jitter is evaluated at a 10 s stream lag (the paper's headline operating
// point, Figs. 5/6).
constexpr double kJitterLagSec = 10.0;

// One replica's per-class percentile set, computed through fixed-memory
// streaming reservoirs — report memory is O(classes * sketch), independent
// of the population size.
RunStats analyze(const scenario::Experiment& e) {
  const auto& classes = e.config().distribution.classes();
  std::vector<metrics::Samples> lag;
  std::vector<metrics::Samples> jitter;
  std::vector<std::size_t> nodes(classes.size(), 0);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    lag.push_back(metrics::Samples::streaming());
    jitter.push_back(metrics::Samples::streaming());
  }
  std::size_t state_bytes = 0;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    const auto c = static_cast<std::size_t>(e.info(i).class_index);
    ++nodes[c];
    const auto to_jitter_free = e.analyzer().lag_to_jitter_at_most(e.player(i), 0.0);
    lag[c].add(std::min(to_jitter_free.value_or(kLagCapSec), kLagCapSec));
    jitter[c].add(100.0 * e.analyzer().jitter_fraction(e.player(i), kJitterLagSec));
    if (const auto* gm = e.node(i).find_module<gossip::GossipModule>()) {
      state_bytes += gm->engine().state_bytes();
    }
  }
  RunStats stats;
  stats.events = 0;  // filled by the caller (simulator is gone after map())
  stats.gossip_state_bytes_per_node =
      e.receivers() > 0 ? static_cast<double>(state_bytes) / static_cast<double>(e.receivers())
                        : 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    ClassPercentiles p;
    p.name = classes[c].name;
    p.nodes = nodes[c];
    if (!lag[c].empty()) {
      p.lag_p50 = lag[c].percentile(50);
      p.lag_p90 = lag[c].percentile(90);
      p.lag_p99 = lag[c].percentile(99);
      p.jitter_p50 = jitter[c].percentile(50);
      p.jitter_p90 = jitter[c].percentile(90);
      p.jitter_p99 = jitter[c].percentile(99);
    }
    stats.classes.push_back(std::move(p));
  }
  return stats;
}

struct LadderRow {
  const char* scenario = "steady";
  std::size_t nodes = 0;
  std::size_t seeds = 0;
  std::size_t workers = 0;     // intra-run workers (0 = sequential engine)
  double wall_sec = 0;
  double speedup_vs_1w = 0;    // wall(1 worker) / wall; 0 when not measured
  std::uint64_t events = 0;
  double rss_mb = 0;
  double gossip_state_bytes_per_node = 0;  // seed-averaged, end-of-run
  std::vector<ClassPercentiles> classes;   // seed-averaged
  // Superstep counters, summed over seeds (zero in sequential runs).
  std::uint32_t partitions = 0;
  std::uint64_t epochs_run = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t local_datagrams = 0;
  std::uint64_t xpart_datagrams = 0;
  std::uint64_t filtered_dead = 0;
  std::uint64_t xpart_exchange_bytes = 0;

  // Share of fabric sends that had to cross a partition boundary (dead-
  // destination drops count as sends: the sender paid for them).
  [[nodiscard]] double xpart_fraction() const {
    const auto total = local_datagrams + xpart_datagrams + filtered_dead;
    return total > 0 ? static_cast<double>(xpart_datagrams) / static_cast<double>(total)
                     : 0.0;
  }
};

// Runs one rung's seed sweep at the given intra-run worker count; returns
// wall-clock seconds and (optionally) the per-seed stats.
double time_rung(const scenario::ExperimentConfig& base, const std::vector<std::uint64_t>& seeds,
                 std::size_t threads, std::size_t workers, std::vector<RunStats>* out) {
  scenario::ExperimentConfig cfg = base;
  cfg.workers = workers;
  const auto t0 = std::chrono::steady_clock::now();
  scenario::SweepRunner runner(
      scenario::SweepOptions{.threads = threads, .workers_per_job = workers});
  auto per_seed = runner.map(scenario::SweepRunner::seed_sweep(std::move(cfg), seeds),
                             [&](scenario::Experiment& e) {
                               RunStats s = analyze(e);
                               s.events = e.events_executed();
                               if (workers > 0) {  // sharded runs, P == 1 included
                                 const auto& eng = e.deployment().engine();
                                 s.partitions = eng.partitions();
                                 s.epochs_run = eng.epochs_run();
                                 s.epochs_skipped = eng.epochs_skipped();
                                 const auto c = e.fabric().superstep_counters();
                                 s.local_datagrams = c.local_datagrams;
                                 s.xpart_datagrams = c.xpart_datagrams;
                                 s.filtered_dead = c.filtered_dead;
                                 s.xpart_exchange_bytes = c.xpart_exchange_bytes;
                               }
                               return s;
                             });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (out != nullptr) *out = std::move(per_seed);
  return wall;
}

// Rung configs. "steady": the HEAP scale preset as-is. "churn": standard
// gossip (event-driven nodes go idle between bursts, so epoch widening has
// phases to skip) plus a 20% mass crash a third of the way into the stream —
// the startup ramp, the crash wake, and the post-stream tail all exercise
// the widening and dead-destination paths.
scenario::ExperimentConfig rung_config(std::size_t n, bool churn) {
  if (!churn) {
    scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n);
    cfg.partitions = env_partitions();  // 0 = auto
    return cfg;
  }
  scenario::ExperimentConfig cfg = scenario::ScalePreset::config(n, core::Mode::kStandard);
  cfg.partitions = env_partitions();
  const double stream_sec =
      cfg.stream.window_duration_sec() * static_cast<double>(cfg.stream_windows);
  cfg.churn = {{sim::SimTime::sec(2.0 + stream_sec / 3.0), 0.2}};
  cfg.detection.mean = sim::SimTime::sec(10.0);
  return cfg;
}

LadderRow run_rung(std::size_t n, std::size_t n_seeds, std::size_t threads,
                   std::size_t workers, bool churn) {
  std::fprintf(stderr, "[bench] scale rung (%s): %zu nodes, %zu seed%s, %zu worker%s...\n",
               churn ? "churn" : "steady", n, n_seeds, n_seeds == 1 ? "" : "s", workers,
               workers == 1 ? "" : "s");
  const scenario::ExperimentConfig base = rung_config(n, churn);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(base.seed + i);

  std::vector<RunStats> per_seed;
  LadderRow row;
  row.scenario = churn ? "churn" : "steady";
  row.nodes = n;
  row.seeds = n_seeds;
  row.workers = workers;
  row.wall_sec = time_rung(base, seeds, threads, workers, &per_seed);
  if (workers > 1) {
    // Speedup reference: the same rung on one intra-run worker (same sharded
    // engine, same partition layout, identical metrics by construction).
    std::fprintf(stderr, "[bench] scale rung: %zu nodes 1-worker reference...\n", n);
    const double ref_wall = time_rung(base, seeds, threads, 1, nullptr);
    row.speedup_vs_1w = row.wall_sec > 0 ? ref_wall / row.wall_sec : 0.0;
  }
  // Deterministic merge: seed-order mean of each class percentile; `nodes`
  // stays the per-run class size (identical across seeds — apportionment is
  // a function of N alone). (map() returns results in config order
  // regardless of worker scheduling.)
  row.classes = per_seed.front().classes;
  for (std::size_t s = 1; s < per_seed.size(); ++s) {
    for (std::size_t c = 0; c < row.classes.size(); ++c) {
      const ClassPercentiles& p = per_seed[s].classes[c];
      row.classes[c].lag_p50 += p.lag_p50;
      row.classes[c].lag_p90 += p.lag_p90;
      row.classes[c].lag_p99 += p.lag_p99;
      row.classes[c].jitter_p50 += p.jitter_p50;
      row.classes[c].jitter_p90 += p.jitter_p90;
      row.classes[c].jitter_p99 += p.jitter_p99;
    }
  }
  const auto ns = static_cast<double>(per_seed.size());
  for (auto& c : row.classes) {
    c.lag_p50 /= ns;
    c.lag_p90 /= ns;
    c.lag_p99 /= ns;
    c.jitter_p50 /= ns;
    c.jitter_p90 /= ns;
    c.jitter_p99 /= ns;
  }
  for (const RunStats& s : per_seed) {
    row.events += s.events;
    row.gossip_state_bytes_per_node += s.gossip_state_bytes_per_node;
    row.partitions = s.partitions;  // identical across seeds (function of N)
    row.epochs_run += s.epochs_run;
    row.epochs_skipped += s.epochs_skipped;
    row.local_datagrams += s.local_datagrams;
    row.xpart_datagrams += s.xpart_datagrams;
    row.filtered_dead += s.filtered_dead;
    row.xpart_exchange_bytes += s.xpart_exchange_bytes;
  }
  row.gossip_state_bytes_per_node /= static_cast<double>(per_seed.size());
  row.rss_mb = peak_rss_mb();
  return row;
}

void print_row(const LadderRow& row) {
  std::printf("--- %zu nodes, %s (%zu seed%s, %zu worker%s) ---\n", row.nodes, row.scenario,
              row.seeds, row.seeds == 1 ? "" : "s", row.workers, row.workers == 1 ? "" : "s");
  std::printf(
      "wall %.1f s | %.0f events/s | %.0f node-runs/s | peak RSS %.0f MB | gossip state "
      "%.0f B/node",
      row.wall_sec, static_cast<double>(row.events) / row.wall_sec,
      static_cast<double>(row.nodes * row.seeds) / row.wall_sec, row.rss_mb,
      row.gossip_state_bytes_per_node);
  if (row.speedup_vs_1w > 0) {
    std::printf(" | %.2fx vs 1 worker", row.speedup_vs_1w);
  }
  std::printf("\n");
  if (row.partitions > 0) {
    std::printf(
        "superstep: %u partitions | %llu epochs (+%llu skipped) | %llu xpart msgs "
        "(%.1f%% of sends) | %.1f MB exchanged\n",
        row.partitions, static_cast<unsigned long long>(row.epochs_run),
        static_cast<unsigned long long>(row.epochs_skipped),
        static_cast<unsigned long long>(row.xpart_datagrams), 100.0 * row.xpart_fraction(),
        static_cast<double>(row.xpart_exchange_bytes) / (1024.0 * 1024.0));
  }
  metrics::Table t({"class", "nodes", "lag p50", "lag p90", "lag p99", "jitter% p50",
                    "jitter% p90", "jitter% p99"});
  for (const auto& c : row.classes) {
    t.add_row({c.name, std::to_string(c.nodes), metrics::Table::num(c.lag_p50),
               metrics::Table::num(c.lag_p90), metrics::Table::num(c.lag_p99),
               metrics::Table::num(c.jitter_p50), metrics::Table::num(c.jitter_p90),
               metrics::Table::num(c.jitter_p99)});
  }
  std::printf("%s\n", t.render().c_str());
}

void write_json(const std::vector<LadderRow>& rows) {
  std::FILE* f = hg::bench::open_bench_json();
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"runs\": [\n",
               hg::bench::bench_binary_name());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LadderRow& r = rows[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"scenario\": \"%s\", \"seeds\": %zu, "
                 "\"workers\": %zu, \"wall_sec\": %.3f, "
                 "\"speedup_vs_1w\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.1f, \"nodes_per_sec\": %.1f, "
                 "\"peak_rss_mb\": %.1f, \"gossip_state_bytes_per_node\": %.1f, "
                 "\"partitions\": %u, \"epochs_run\": %llu, \"epochs_skipped\": %llu, "
                 "\"xpart_datagrams\": %llu, \"xpart_exchange_bytes\": %llu, "
                 "\"xpart_datagram_fraction\": %.6f, "
                 "\"classes\": [",
                 r.nodes, r.scenario, r.seeds, r.workers, r.wall_sec, r.speedup_vs_1w,
                 static_cast<unsigned long long>(r.events),
                 static_cast<double>(r.events) / r.wall_sec,
                 static_cast<double>(r.nodes * r.seeds) / r.wall_sec, r.rss_mb,
                 r.gossip_state_bytes_per_node, r.partitions,
                 static_cast<unsigned long long>(r.epochs_run),
                 static_cast<unsigned long long>(r.epochs_skipped),
                 static_cast<unsigned long long>(r.xpart_datagrams),
                 static_cast<unsigned long long>(r.xpart_exchange_bytes),
                 r.xpart_fraction());
    for (std::size_t c = 0; c < r.classes.size(); ++c) {
      const ClassPercentiles& p = r.classes[c];
      std::fprintf(f,
                   "%s{\"class\": \"%s\", \"nodes\": %zu, \"lag_p50\": %.4f, "
                   "\"lag_p90\": %.4f, \"lag_p99\": %.4f, \"jitter_pct_p50\": %.4f, "
                   "\"jitter_pct_p90\": %.4f, \"jitter_pct_p99\": %.4f}",
                   c == 0 ? "" : ", ", p.name.c_str(), p.nodes, p.lag_p50, p.lag_p90,
                   p.lag_p99, p.jitter_p50, p.jitter_p90, p.jitter_p99);
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hg::bench;

  std::vector<std::size_t> ladder;
  for (int i = 1; i < argc; ++i) {
    ladder.push_back(
        static_cast<std::size_t>(hg::parse_env_int("nodes argument", argv[i], 1, 10'000'000)));
  }
  if (ladder.empty()) ladder = {10'000, 50'000, 100'000};

  print_header("Scale ladder: HEAP at 10k-100k nodes (streaming metrics)",
               "engine scale regression (beyond the paper's 700-node testbed)",
               "class stratification persists at large N; footprint stays bounded");

  const std::size_t workers = workers_from_env();
  hg::warn_if_oversubscribed(workers, threads_from_env() > 0 ? threads_from_env()
                                                             : seeds_from_env());
  std::vector<LadderRow> rows;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    rows.push_back(run_rung(ladder[i], seeds_from_env(), threads_from_env(), workers,
                            /*churn=*/false));
    print_row(rows.back());
    if (i == 0) {
      // Churn rung (smallest population only): standard-mode nodes idle
      // between gossip bursts, so this is where epochs_skipped and the
      // dead-destination filter actually move.
      rows.push_back(run_rung(ladder[i], seeds_from_env(), threads_from_env(), workers,
                              /*churn=*/true));
      print_row(rows.back());
    }
  }
  write_json(rows);
  return 0;
}
