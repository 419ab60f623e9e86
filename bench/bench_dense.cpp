// Dense-deployment experiment: per-round wall time and peak RSS of the
// multi-link NetworkSimulator vs the number of co-channel pairs K and the
// thread count.
//
// The point of the experiment: with PatternAssets shared behind the
// registry, K links pay for K sessions and 2K nodes but ONE pattern
// table, response matrix and norm cache -- so bytes per link must FALL as
// K grows (sub-linear total growth), and the per-round wall time must
// scale with the per-link physical work, not with K copies of the assets.
// A cross-thread check reruns the smallest sweep at several thread counts
// and verifies the selection sequence is bit-identical (the
// substream-per-link determinism contract). Exits 1 on a wrong training
// count or a thread-dependent selection. The printed timings are one
// run's wall clock on whatever host runs it; speed claims belong to
// perfbench/.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/core/css.hpp"
#include "src/sim/network.hpp"
#include "src/sim/scenario.hpp"

using namespace talon;

namespace {

/// Peak resident set size so far [KiB] (high-water mark, monotonic).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

NetworkConfig dense_config(int links, std::size_t rounds, int threads,
                           std::uint64_t seed) {
  NetworkConfig config;
  config.links = links;
  config.rounds = rounds;
  config.trainings_per_second = 10.0;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// The full selection sequence of a run, for exact cross-thread comparison.
std::vector<int> selection_sequence(const NetworkRunResult& result) {
  std::vector<int> out;
  for (const NetworkRound& round : result.rounds) {
    for (const LinkRoundOutcome& link : round.links) {
      out.push_back(link.selected ? link.sector_id : -1);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  bench::print_header("Dense deployment: K-link rounds over shared assets",
                      "Sec. 7 contention regime", run.fidelity);

  const std::size_t rounds = run.fidelity == bench::Fidelity::kFull ? 10 : 5;
  constexpr std::uint64_t kSeed = 7300;

  const CssConfig defaults;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      bench::standard_pattern_table(run.fidelity), defaults.search_grid,
      defaults.domain);
  const auto room = make_conference_room();
  std::printf("shared assets: %.2f MiB (pattern table + response matrix), "
              "%zu rounds per run, %d threads\n\n",
              static_cast<double>(assets->shared_bytes()) / (1024.0 * 1024.0),
              rounds, run.threads);

  // --- K sweep: wall time and memory vs link count --------------------------
  // Memory note: the pattern campaign's transient allocations already
  // raised the high-water mark, so the first rows under-report their
  // deltas; the marginal per-link cost at the larger K steps is the
  // trustworthy figure.
  std::printf("    K | build [ms] | run [ms] | per round [ms] | per link-round [ms] "
              "| peak RSS [MiB] | RSS delta [MiB] | marginal MiB/link\n");
  std::printf("------+------------+----------+----------------+---------------------"
              "+----------------+-----------------+------------------\n");
  const long baseline_kib = peak_rss_kib();
  long previous_kib = baseline_kib;
  int previous_k = 0;
  double marginal_mib_per_link = 0.0;
  long total_delta_kib = 0;
  for (int k : {1, 4, 16, 64}) {
    const auto build_start = std::chrono::steady_clock::now();
    NetworkSimulator sim(dense_config(k, rounds, run.threads, kSeed), *room, assets);
    const auto run_start = std::chrono::steady_clock::now();
    const NetworkRunResult result = sim.run();
    const auto run_end = std::chrono::steady_clock::now();

    const double build_ms =
        std::chrono::duration<double, std::milli>(run_start - build_start).count();
    const double run_ms =
        std::chrono::duration<double, std::milli>(run_end - run_start).count();
    const long rss_kib = peak_rss_kib();
    // Attribute the high-water growth to this K (the sweep is ascending).
    const long delta_kib = rss_kib - previous_kib;
    previous_kib = rss_kib;
    total_delta_kib = rss_kib - baseline_kib;
    marginal_mib_per_link =
        static_cast<double>(delta_kib) / 1024.0 / static_cast<double>(k - previous_k);
    previous_k = k;

    std::printf(
        "%5d | %10.1f | %8.1f | %14.2f | %19.3f | %14.1f | %15.1f | %16.2f\n", k,
        build_ms, run_ms, run_ms / static_cast<double>(rounds),
        run_ms / static_cast<double>(rounds * static_cast<std::size_t>(k)),
        static_cast<double>(rss_kib) / 1024.0, static_cast<double>(delta_kib) / 1024.0,
        marginal_mib_per_link);
    if (result.total_trainings != static_cast<int>(rounds) * k) {
      std::printf("unexpected training count at K=%d\n", k);
      return 1;
    }
  }

  // Sub-linearity: with the registry every link adds only its own nodes,
  // firmware and session (the marginal cost above); without it every link
  // would also carry a private copy of the assets. Compare the measured
  // 64-link footprint against that unshared estimate.
  const double assets_mib = static_cast<double>(assets->shared_bytes()) / (1024.0 * 1024.0);
  const double measured_mib = static_cast<double>(total_delta_kib) / 1024.0;
  const double unshared_mib = 64.0 * (marginal_mib_per_link + assets_mib);
  std::printf("\nmemory at K=64: measured growth %.1f MiB; unshared estimate\n"
              "64 x (%.2f marginal + %.2f assets) = %.1f MiB -> sharing keeps the\n"
              "growth sub-linear in the asset term (%.1f MiB saved, %.0f%%)\n",
              measured_mib, marginal_mib_per_link, assets_mib, unshared_mib,
              unshared_mib - measured_mib,
              (1.0 - measured_mib / unshared_mib) * 100.0);

  // --- thread sweep: same workload, any thread count, same bits -------------
  std::printf("\ncross-thread determinism (K=4, %zu rounds):\n", rounds);
  std::printf("threads | run [ms] | bit-identical to serial\n");
  std::printf("--------+----------+------------------------\n");
  std::vector<int> serial_selections;
  bool identical = true;
  for (int threads : {1, 2, 4, 7}) {
    NetworkSimulator sim(dense_config(4, rounds, threads, kSeed), *room, assets);
    const auto start = std::chrono::steady_clock::now();
    const NetworkRunResult result = sim.run();
    const auto end = std::chrono::steady_clock::now();
    const std::vector<int> selections = selection_sequence(result);
    if (threads == 1) {
      serial_selections = selections;
    } else {
      identical = identical && selections == serial_selections;
    }
    std::printf("%7d | %8.1f | %s\n", threads,
                std::chrono::duration<double, std::milli>(end - start).count(),
                threads == 1 ? "(baseline)"
                             : (selections == serial_selections ? "yes" : "NO"));
  }
  if (!identical) {
    std::printf("\nFAILED: thread count changed the selection sequence\n");
    return 1;
  }
  std::printf("\nall thread counts reproduce the serial selection sequence.\n");
  return 0;
}
