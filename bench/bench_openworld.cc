// Open-world traffic benchmark: sustained swaps/sec at
// millions-of-accounts scale on the simulator's own block-production path.
//
// Each cell builds one core::Environment with two chains (4 miners each,
// at most 512 transactions per block) and drives it with the deterministic
// open-loop workload generator (sim::WorkloadGenerator): Poisson or bursty
// swap arrivals, Zipf-hot participants from an account universe of up to
// millions of lazily-materialized wallets, per-chain fee pressure. The
// whole stream is generated up front; every transaction is scheduled at
// its own arrival and submitted with Environment::SubmitTransaction, so it
// reaches the mempool through the typed message layer. Blocks come only
// from each chain's MiningNetwork. The run goes past the horizon until
// both mempools drain, up to a fixed simulated-time cap. A swap completes
// when both of its legs are on the canonical chains; its inclusion latency
// runs from its arrival to the later leg's block.
//
// Verdict: every offered swap must complete by the cap
// (results.all_swaps_completed) and the peak RSS must stay under the
// declared ceiling; the process exits non-zero otherwise.
//
// Determinism contract: everything under "results" (offered/completed
// swaps, inclusion-latency percentiles in *simulated* ms, block counts,
// per-cell head-hash fingerprints, the completion verdict, the declared
// RSS ceiling) is a pure function of the seeds, at any thread count and on
// every SHA-256 dispatch rung. Wall times, wall swaps/sec and the measured
// peak RSS live under "wall".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/environment.h"
#include "src/crypto/hash256.h"
#include "src/runner/bench_output.h"
#include "src/sim/workload.h"

namespace ac3 {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

constexpr size_t kChains = 2;
constexpr int kMinersPerChain = 4;
/// How often the run loop checks whether the mempools have drained.
constexpr Duration kCheckMs = 200;
/// Past the horizon the run stops draining here; a swap whose legs are
/// not both canonical by then has not completed.
constexpr Duration kDrainCap = Seconds(60);

struct CellConfig {
  double arrivals_per_sec = 0;
  uint64_t accounts = 0;
  sim::ArrivalProcess process = sim::ArrivalProcess::kPoisson;
  Duration horizon_ms = 0;
  uint32_t difficulty_bits = 0;
};

const char* ProcessName(sim::ArrivalProcess process) {
  return process == sim::ArrivalProcess::kPoisson ? "poisson" : "bursty";
}

struct CellResult {
  CellConfig config;
  // Deterministic.
  uint64_t offered_swaps = 0;
  uint64_t completed_swaps = 0;
  uint64_t txs_submitted = 0;
  uint64_t blocks_mined = 0;   ///< Every block the miners produced.
  uint64_t canonical_blocks = 0;
  TimePoint sim_end = 0;       ///< Check tick at which the pools drained.
  double sim_swaps_per_sec = 0;
  TimePoint latency_p50 = 0;   ///< Swap inclusion latency, simulated ms.
  TimePoint latency_p99 = 0;
  TimePoint latency_p999 = 0;
  std::string fingerprint;     ///< Hash over the chains' head hashes.
  // Machine-dependent.
  double wall_ms = 0;
  double wall_swaps_per_sec = 0;
};

TimePoint Percentile(const std::vector<TimePoint>& sorted, int tenths_pct) {
  if (sorted.empty()) return 0;
  size_t index = sorted.size() * static_cast<size_t>(tenths_pct) / 1000;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// Runs one cell end to end on a fresh Environment.
CellResult RunCell(const CellConfig& cell, uint64_t seed) {
  CellResult result;
  result.config = cell;
  const Clock::time_point wall_t0 = Clock::now();

  sim::WorkloadConfig workload;
  workload.chains = kChains;
  workload.accounts = cell.accounts;
  workload.arrivals_per_sec = cell.arrivals_per_sec;
  workload.process = cell.process;
  sim::WorkloadGenerator gen(workload, seed);

  core::Environment env(seed);
  chain::MiningConfig mining;
  mining.miner_count = kMinersPerChain;
  std::vector<chain::ChainId> ids;
  for (size_t c = 0; c < kChains; ++c) {
    chain::ChainParams params = chain::TestChainParams();
    params.name = "open-" + std::to_string(c);
    params.difficulty_bits = cell.difficulty_bits;
    params.max_block_txs = 512;
    ids.push_back(env.AddChain(params, gen.GenesisAllocations(c), mining));
    gen.BindChain(c, ids[c], env.blockchain(ids[c])->genesis_tx());
  }
  const sim::NodeId users = env.AddUserNode("users");

  // The whole stream up front; each transaction is submitted at its own
  // arrival, so arrivals never wait for the backlog.
  const sim::WorkloadBatch stream = gen.NextBatch(cell.horizon_ms);
  for (const sim::GeneratedTx& gtx : stream.txs) {
    const sim::GeneratedTx* g = &gtx;
    const chain::ChainId id = ids[g->chain];
    env.sim()->At(g->arrival, [&env, users, id, g] {
      env.SubmitTransaction(users, id, g->tx);
    });
  }
  result.txs_submitted = stream.txs.size();
  result.offered_swaps = stream.swaps.size();

  // Every submission reaches its mempool within one message latency of
  // its arrival, so an empty pool one check past the horizon means
  // drained.
  env.StartMining();
  const TimePoint cap = cell.horizon_ms + kDrainCap;
  TimePoint now = 0;
  for (;;) {
    now = std::min(now + kCheckMs, cap);
    env.sim()->RunUntil(now);
    size_t pending = 0;
    for (const chain::ChainId id : ids) pending += env.mempool(id)->size();
    if (now >= cell.horizon_ms + kCheckMs && pending == 0) break;
    if (now >= cap) break;
  }
  result.sim_end = now;

  // Swap inclusion latency: the later leg's canonical block minus arrival.
  std::vector<TimePoint> latencies;
  latencies.reserve(stream.swaps.size());
  for (const sim::SwapRecord& swap : stream.swaps) {
    const auto leg_a = env.blockchain(ids[swap.chain_a])->FindTx(swap.leg_a_id);
    const auto leg_b = env.blockchain(ids[swap.chain_b])->FindTx(swap.leg_b_id);
    if (!leg_a.has_value() || !leg_b.has_value()) continue;
    latencies.push_back(
        std::max(leg_a->entry->arrival_time, leg_b->entry->arrival_time) -
        swap.arrival);
  }
  result.completed_swaps = latencies.size();
  std::sort(latencies.begin(), latencies.end());
  result.latency_p50 = Percentile(latencies, 500);
  result.latency_p99 = Percentile(latencies, 990);
  result.latency_p999 = Percentile(latencies, 999);
  result.sim_swaps_per_sec =
      static_cast<double>(result.completed_swaps) /
      (static_cast<double>(result.sim_end) / 1000.0);

  Bytes head_bytes;
  for (const chain::ChainId id : ids) {
    result.blocks_mined += env.miners(id)->blocks_mined();
    const chain::BlockEntry* head = env.blockchain(id)->head();
    result.canonical_blocks += head->height();
    const auto& digest = head->hash.data();
    head_bytes.insert(head_bytes.end(), digest.begin(), digest.end());
  }
  result.fingerprint = crypto::Hash256::Of(head_bytes).ToHex();

  result.wall_ms = ElapsedMs(wall_t0);
  result.wall_swaps_per_sec =
      result.wall_ms > 0 ? static_cast<double>(result.completed_swaps) /
                               (result.wall_ms / 1000.0)
                         : 0;
  return result;
}

}  // namespace
}  // namespace ac3

int main(int argc, char** argv) {
  using namespace ac3;

  bench::Options context = bench::Options::Parse(argc, argv);
  if (context.exit_early) return context.exit_code;
  const uint64_t seed = context.SeedOr(424242);

  // arrival-rate × account-universe × process grid. The 2M-account cells
  // are the "millions of users" claim: the universe costs nothing until
  // Zipf traffic touches an account (lazy wallet materialization).
  std::vector<CellConfig> grid;
  if (context.smoke) {
    grid.push_back(CellConfig{100.0, 10'000, sim::ArrivalProcess::kPoisson,
                              /*horizon_ms=*/2'000, /*difficulty_bits=*/8});
    grid.push_back(CellConfig{100.0, 2'000'000, sim::ArrivalProcess::kBursty,
                              /*horizon_ms=*/2'000, /*difficulty_bits=*/8});
  } else {
    for (double rate : {250.0, 1'000.0}) {
      for (uint64_t accounts : {10'000ull, 2'000'000ull}) {
        for (sim::ArrivalProcess process :
             {sim::ArrivalProcess::kPoisson, sim::ArrivalProcess::kBursty}) {
          grid.push_back(CellConfig{rate, accounts, process,
                                    /*horizon_ms=*/20'000,
                                    /*difficulty_bits=*/12});
        }
      }
    }
  }

  // The committed envelope declares this ceiling; check_bench_floor.py
  // asserts a fresh run's wall.peak_rss_bytes stays under the *committed*
  // results.rss_ceiling_bytes.
  constexpr uint64_t kRssCeilingBytes = 1536ull * 1024 * 1024;

  benchutil::PrintHeader(
      "Open-world traffic — sustained swaps/sec through core::Environment\n"
      "(per-arrival submission, MiningNetwork blocks, canonical inclusion)");

  std::printf("%8s | %9s | %8s | %8s | %9s | %7s | %7s | %8s\n", "rate/s",
              "accounts", "process", "offered", "completed", "p50 ms",
              "p999 ms", "sim sw/s");
  benchutil::PrintRule(84);

  bool all_swaps_completed = true;
  std::vector<CellResult> cells;
  for (const CellConfig& config : grid) {
    CellResult cell = RunCell(config, seed);
    all_swaps_completed =
        all_swaps_completed && cell.completed_swaps == cell.offered_swaps;
    std::printf("%8.0f | %9llu | %8s | %8llu | %9llu | %7lld | %7lld | %8.0f\n",
                cell.config.arrivals_per_sec,
                static_cast<unsigned long long>(cell.config.accounts),
                ProcessName(cell.config.process),
                static_cast<unsigned long long>(cell.offered_swaps),
                static_cast<unsigned long long>(cell.completed_swaps),
                static_cast<long long>(cell.latency_p50),
                static_cast<long long>(cell.latency_p999),
                cell.sim_swaps_per_sec);
    cells.push_back(std::move(cell));
  }

  const size_t peak_rss = benchutil::ReadPeakRssBytes();
  std::printf("\npeak RSS %.1f MiB (declared ceiling %.0f MiB) — "
              "all swaps completed: %s\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0),
              static_cast<double>(kRssCeilingBytes) / (1024.0 * 1024.0),
              all_swaps_completed ? "yes" : "NO");

  if (!all_swaps_completed) {
    std::fprintf(stderr,
                 "openworld: some swaps lack a canonical leg at the drain "
                 "cap\n");
    return 1;
  }
  if (peak_rss > kRssCeilingBytes) {
    std::fprintf(stderr,
                 "openworld: peak RSS %zu exceeds the declared ceiling %llu\n",
                 peak_rss, static_cast<unsigned long long>(kRssCeilingBytes));
    return 1;
  }

  runner::Json result_cells = runner::Json::Array();
  runner::Json wall_cells = runner::Json::Array();
  for (const CellResult& cell : cells) {
    runner::Json entry = runner::Json::Object();
    entry.Set("arrivals_per_sec", cell.config.arrivals_per_sec);
    entry.Set("accounts", cell.config.accounts);
    entry.Set("process", ProcessName(cell.config.process));
    entry.Set("horizon_ms", cell.config.horizon_ms);
    entry.Set("difficulty_bits", cell.config.difficulty_bits);
    entry.Set("offered_swaps", cell.offered_swaps);
    entry.Set("completed_swaps", cell.completed_swaps);
    entry.Set("txs_submitted", cell.txs_submitted);
    entry.Set("blocks_mined", cell.blocks_mined);
    entry.Set("canonical_blocks", cell.canonical_blocks);
    entry.Set("sim_end_ms", cell.sim_end);
    entry.Set("sim_swaps_per_sec", cell.sim_swaps_per_sec);
    entry.Set("latency_p50_ms", cell.latency_p50);
    entry.Set("latency_p99_ms", cell.latency_p99);
    entry.Set("latency_p999_ms", cell.latency_p999);
    entry.Set("fingerprint", cell.fingerprint);
    result_cells.Push(std::move(entry));

    runner::Json wall_entry = runner::Json::Object();
    wall_entry.Set("arrivals_per_sec", cell.config.arrivals_per_sec);
    wall_entry.Set("accounts", cell.config.accounts);
    wall_entry.Set("process", ProcessName(cell.config.process));
    wall_entry.Set("wall_ms", cell.wall_ms);
    wall_entry.Set("wall_swaps_per_sec", cell.wall_swaps_per_sec);
    wall_cells.Push(std::move(wall_entry));
  }

  runner::Json results = runner::Json::Object();
  results.Set("cells", std::move(result_cells));
  results.Set("all_swaps_completed", all_swaps_completed);
  results.Set("rss_ceiling_bytes", kRssCeilingBytes);

  runner::Json wall = runner::Json::Object();
  wall.Set("cells", std::move(wall_cells));
  wall.Set("peak_rss_bytes", peak_rss);

  auto written = runner::WriteBenchJson(context, "openworld",
                                        std::move(results), std::move(wall));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.status().ToString().c_str());
    return 1;
  }
  return 0;
}
