// City-scale mesh experiment: the controller/minion layer on the
// discrete-event core, at a scale the link-accurate dense simulator
// cannot touch (thousands of links, hundreds of APs, aggregated traffic
// for millions of users).
//
// The acceptance bar this driver enforces (exit 1 otherwise): >= 1000
// links simulate FASTER THAN REAL TIME (wall time < simulated horizon),
// and the full MeshRunResult -- every per-link record, every channel
// counter, every double -- is bit-identical at any thread count. The
// printed timings are one run's wall clock; speed claims belong to
// perfbench/.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/sim/mesh.hpp"

using namespace talon;

namespace {

MeshConfig city_config(int aps, int threads) {
  MeshConfig config;
  config.aps = aps;
  config.stas_per_ap = 4;
  config.channels = 8;
  config.trainings_per_second = 10.0;
  config.simulated_seconds = 5.0;
  config.ignition_batch = 64;
  config.churn_probability = 0.002;
  config.seed = 20260807;
  config.threads = threads;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  bench::print_header("Mesh: controller/minion network on the event engine",
                      "Sec. 7 regime at city scale", run.fidelity);

  // --- scale sweep: wall time vs link count, one configured thread count ----
  std::printf("  APs | links | events    | run [ms] | sim [s] | x real time | "
              "ignited | goodput [Gbps]\n");
  std::printf("------+-------+-----------+----------+---------+-------------+"
              "---------+---------------\n");
  const std::vector<int> ap_steps = run.fidelity == bench::Fidelity::kFull
                                        ? std::vector<int>{64, 256, 512, 1024}
                                        : std::vector<int>{64, 256};
  bool realtime_ok = false;
  for (int aps : ap_steps) {
    MeshSimulator sim(city_config(aps, run.threads));
    const auto start = std::chrono::steady_clock::now();
    const MeshRunResult result = sim.run();
    const auto end = std::chrono::steady_clock::now();
    const double run_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    const double speedup = result.simulated_s / (run_ms / 1000.0);
    std::printf("%5d | %5d | %9llu | %8.1f | %7.2f | %11.1f | %7zu | %13.2f\n",
                aps, sim.link_count(),
                static_cast<unsigned long long>(result.events_executed), run_ms,
                result.simulated_s, speedup, result.ignited,
                result.aggregate_goodput_mbps / 1000.0);
    if (sim.link_count() >= 1000 && speedup > 1.0) realtime_ok = true;
  }
  if (run.fidelity == bench::Fidelity::kQuick) {
    // The quick tier stops at 1024 links; run the acceptance point anyway.
    MeshSimulator sim(city_config(256, run.threads));
    const auto start = std::chrono::steady_clock::now();
    const MeshRunResult result = sim.run();
    const auto end = std::chrono::steady_clock::now();
    const double run_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    realtime_ok = sim.link_count() >= 1000 &&
                  result.simulated_s > run_ms / 1000.0;
  }
  if (!realtime_ok) {
    std::printf("\nFAILED: 1000+ links did not run faster than real time\n");
    return 1;
  }
  std::printf("\n1000+ links simulate faster than real time.\n");

  // --- cross-thread determinism: the full result, bit for bit ---------------
  std::printf("\ncross-thread determinism (256 APs, 1024 links):\n");
  std::printf("threads | run [ms] | bit-identical to serial\n");
  std::printf("--------+----------+------------------------\n");
  MeshRunResult serial;
  bool identical = true;
  for (int threads : {1, 2, 4, 7}) {
    MeshSimulator sim(city_config(256, threads));
    const auto start = std::chrono::steady_clock::now();
    const MeshRunResult result = sim.run();
    const auto end = std::chrono::steady_clock::now();
    const bool same = threads == 1 || result == serial;
    if (threads == 1) serial = result;
    identical = identical && same;
    std::printf("%7d | %8.1f | %s\n", threads,
                std::chrono::duration<double, std::milli>(end - start).count(),
                threads == 1 ? "(baseline)" : (same ? "yes" : "NO"));
  }
  if (!identical) {
    std::printf("\nFAILED: thread count changed the mesh result\n");
    return 1;
  }
  std::printf("\nall thread counts reproduce the serial result, bit for bit.\n");
  return 0;
}
