// The open-loop workload, openworld_bursty.
//
// One Environment with two asset chains (TestChainParams: 64 tx/block,
// 100 ms blocks, 4 miners each) takes a bursty swap stream from
// sim::WorkloadGenerator. The whole stream is generated during set-up;
// each transaction is then scheduled at its own arrival instant and
// submitted through Environment::SubmitTransaction, so arrivals never wait
// for the backlog. Blocks come from the real MiningNetwork. The run goes
// past the last arrival until both mempools drain, up to a fixed
// simulated-time cap, and a swap completes when both legs are canonical.
// Its latency runs from its scheduled arrival to the later leg's block.

#include <algorithm>
#include <memory>

#include "ac3bench/bench.h"
#include "src/core/environment.h"
#include "src/sim/workload.h"

namespace ac3bench {
namespace {

using ac3::Duration;
using ac3::Seconds;
using ac3::TimePoint;
using ac3::runner::Json;

constexpr size_t kChains = 2;
/// Past the last arrival, the run stops draining here; a swap that is not
/// canonical by then is a failed operation.
constexpr Duration kDrainCap = Seconds(60);

/// Swaps arrive in on/off bursts with the generator's default shape: on
/// phases of burst_on_mean_ms at burst_multiplier times the average rate,
/// off phases of burst_off_mean_ms with no arrivals. The phases here have
/// exactly those lengths instead of exponential ones: with exponential
/// phases, one 20 s stream took 1.4 s to 16.9 s of host time and had a
/// sim-latency p50 of 1.8 s to 10.6 s over seeds 1-10, so no two seeds
/// measured the same load. The seed still draws every arrival instant
/// inside the on phases (Poisson), every account (Zipf) and every fee.
constexpr double kAverageSwapsPerSec = 250.0;

ac3::sim::WorkloadConfig WorkloadFor() {
  ac3::sim::WorkloadConfig config;
  config.chains = kChains;
  config.accounts = 2'000'000;
  config.zipf_s = 1.1;
  // Generated as a Poisson stream over on-phase time only; Generate()
  // then lays the on phases out on the real clock.
  config.process = ac3::sim::ArrivalProcess::kPoisson;
  config.arrivals_per_sec =
      kAverageSwapsPerSec *
      (config.burst_on_mean_ms + config.burst_off_mean_ms) /
      config.burst_on_mean_ms;
  return config;
}

/// Maps an instant of on-phase time to the real clock: on phase k covers
/// [k * (on + off), k * (on + off) + on).
TimePoint OnPhaseToReal(TimePoint on_time) {
  const ac3::sim::WorkloadConfig shape;
  const auto on = static_cast<TimePoint>(shape.burst_on_mean_ms);
  const auto cycle =
      static_cast<TimePoint>(shape.burst_on_mean_ms + shape.burst_off_mean_ms);
  return on_time / on * cycle + on_time % on;
}

/// The generated inputs: every transaction in arrival order, and the swaps
/// they realise.
struct Stream {
  std::vector<ac3::sim::GeneratedTx> txs;
  std::vector<ac3::sim::SwapRecord> swaps;
  TimePoint last_arrival = 0;
};

struct World {
  explicit World(uint64_t seed) : env(seed) {}
  ac3::core::Environment env;
  std::vector<ac3::chain::ChainId> ids;
  ac3::sim::NodeId users = 0;
};

std::unique_ptr<World> BuildWorld(uint64_t seed,
                                  const ac3::sim::WorkloadGenerator& gen) {
  auto world = std::make_unique<World>(seed);
  ac3::chain::MiningConfig mining;
  mining.miner_count = 4;
  for (size_t c = 0; c < kChains; ++c) {
    ac3::chain::ChainParams params = ac3::chain::TestChainParams();
    params.name = "open-" + std::to_string(c);
    world->ids.push_back(
        world->env.AddChain(params, gen.GenesisAllocations(c), mining));
  }
  world->users = world->env.AddUserNode("users");
  return world;
}

/// Generator, a world to bind it to, and the whole stream of `cycles`
/// on/off cycles.
Stream Generate(uint64_t seed, int cycles, SpanLog* log, double* gen_ms) {
  ac3::sim::WorkloadGenerator gen(WorkloadFor(), seed);
  std::unique_ptr<World> world = BuildWorld(seed, gen);
  for (size_t c = 0; c < kChains; ++c) {
    gen.BindChain(c, world->ids[c],
                  world->env.blockchain(world->ids[c])->genesis_tx());
  }
  const auto on_total =
      static_cast<TimePoint>(cycles * gen.config().burst_on_mean_ms);
  Stream stream;
  for (TimePoint until = Seconds(1);; until += Seconds(1)) {
    until = std::min(until, on_total);
    const double t0 = NowUs();
    ac3::sim::WorkloadBatch batch;
    {
      ScopedSpan span(log, "sim.workload_gen", static_cast<int64_t>(seed));
      batch = gen.NextBatch(until);
    }
    *gen_ms += (NowUs() - t0) / 1000.0;
    for (auto& tx : batch.txs) {
      tx.arrival = OnPhaseToReal(tx.arrival);
      stream.last_arrival = std::max(stream.last_arrival, tx.arrival);
      stream.txs.push_back(std::move(tx));
    }
    for (auto& swap : batch.swaps) {
      swap.arrival = OnPhaseToReal(swap.arrival);
      stream.swaps.push_back(swap);
    }
    if (until >= on_total) break;
  }
  return stream;
}

/// What one run of the stream measured.
struct Run {
  double world_ms = 0;   ///< Build + schedule + run phase.
  double run_ms = 0;     ///< StartMining to drained.
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t one_leg = 0;   ///< Exactly one leg canonical: not all-or-nothing.
  std::vector<double> latency_ms;
  double fees = 0;
  std::string fingerprint;
  LayerCounters layers;  ///< Traced runs only.
};

/// Runs one stream on a fresh world. With a log, the run is traced: spans
/// around each layer call, mempool samples every tick, and the probes.
/// Tracing only reads the world, so both modes execute the same events.
Run RunStream(uint64_t seed, const Stream& stream, SpanLog* log) {
  Run run;
  LayerCounters* layers = &run.layers;
  const double w0 = NowUs();
  // Spans carry the stream seed as their world id.
  const auto world_id = static_cast<int64_t>(seed);
  const int world_span =
      log != nullptr ? log->Begin("openworld.world", world_id) : -1;
  std::unique_ptr<World> world;
  {
    ScopedSpan span(log, "core.world_setup", world_id);
    // The generator only supplies genesis allocations here; the stream
    // was generated against an identical genesis during set-up.
    ac3::sim::WorkloadGenerator gen(WorkloadFor(), seed);
    world = BuildWorld(seed, gen);
  }
  layers->setup_ms = (NowUs() - w0) / 1000.0;
  ac3::core::Environment* env = &world->env;
  ac3::sim::Simulation* sim = env->sim();
  for (const ac3::sim::GeneratedTx& tx : stream.txs) {
    const ac3::sim::GeneratedTx* g = &tx;
    const ac3::chain::ChainId id = world->ids[g->chain];
    const ac3::sim::NodeId users = world->users;
    if (log == nullptr) {
      sim->At(g->arrival, [env, users, id, g] {
        env->SubmitTransaction(users, id, g->tx);
      });
    } else {
      // Timed, but without a span each: a span per transaction would make
      // the trace file tens of megabytes.
      sim->At(g->arrival, [env, users, id, g, layers] {
        const double t0 = NowUs();
        env->SubmitTransaction(users, id, g->tx);
        layers->submit_us += NowUs() - t0;
        ++layers->submits;
      });
    }
  }

  const double r0 = NowUs();
  env->StartMining();
  const TimePoint cap = stream.last_arrival + kDrainCap;
  for (TimePoint tick = 0;;) {
    tick = std::min(tick + kSampleTick, cap);
    {
      ScopedSpan span(log, "sim.run", world_id);
      sim->RunUntil(tick);
    }
    int64_t pending = 0;
    for (ac3::chain::ChainId id : world->ids) {
      pending += static_cast<int64_t>(env->mempool(id)->size());
    }
    if (log != nullptr) layers->SampleMempools(env);
    // Every submission is delivered within a few message latencies of its
    // arrival, so an empty pool past that point means fully drained.
    if (tick >= stream.last_arrival + 2 * kSampleTick && pending == 0) break;
    if (tick >= cap) break;
  }
  run.run_ms = (NowUs() - r0) / 1000.0;

  std::string digest;
  run.offered = static_cast<int64_t>(stream.swaps.size());
  for (const ac3::sim::SwapRecord& swap : stream.swaps) {
    const auto leg_a =
        env->blockchain(world->ids[swap.chain_a])->FindTx(swap.leg_a_id);
    const auto leg_b =
        env->blockchain(world->ids[swap.chain_b])->FindTx(swap.leg_b_id);
    if (leg_a.has_value() && leg_b.has_value()) {
      ++run.completed;
      const TimePoint included =
          std::max(leg_a->entry->arrival_time, leg_b->entry->arrival_time);
      run.latency_ms.push_back(static_cast<double>(included - swap.arrival));
      run.fees += static_cast<double>(
          leg_a->entry->block.txs[leg_a->index].fee +
          leg_b->entry->block.txs[leg_b->index].fee);
      digest += std::to_string(included - swap.arrival) + ",";
    } else {
      if (leg_a.has_value() != leg_b.has_value()) ++run.one_leg;
      digest += "-,";
    }
  }
  for (ac3::chain::ChainId id : world->ids) {
    digest += env->blockchain(id)->head()->hash.ToHex();
  }
  run.fingerprint = Fingerprint(digest + std::to_string(sim->Now()));
  if (log != nullptr) log->End(world_span);
  run.world_ms = (NowUs() - w0) / 1000.0;

  if (log != nullptr) {
    layers->worlds = 1;
    layers->swaps = run.offered;
    layers->run_us = run.run_ms * 1000.0;
    layers->CountFinishedWorld(env, seed, log, world_id);
  }
  return run;
}

void CheckRun(const Run& run, const std::string& label, Result* result) {
  result->Attempt(run.offered);
  for (int64_t i = run.completed; i < run.offered; ++i) {
    result->Fail(label + ": swap not canonical at the drain cap");
  }
}

/// Independent streams per run. Each draws its own arrivals, accounts and
/// block times; the sim-time metrics pool all of them, so one stream's
/// block-time luck moves them little.
constexpr int kStreams = 24;

}  // namespace

bool RunOpenworld(const Args& args, Result* result) {
  if (args.workload != "openworld_bursty") return false;
  // Two cycles per stream: 16 s of arrivals, 4 s of them in bursts.
  const int cycles = args.tiny ? 1 : 2;
  // A traced run runs each stream twice and probes it, so it takes a
  // quarter of the streams (see GridFor in sweeps.cc).
  int streams = args.tiny ? 2 : kStreams;
  if (args.trace) streams = std::max(1, streams / 4);
  SpanLog log;
  SpanLog* trace_log = args.trace ? &log : nullptr;

  // Set-up, once per stream: environment and genesis, then generation of
  // the whole stream.
  std::vector<uint64_t> seeds;
  std::vector<Stream> inputs;
  std::vector<double> setup_s;
  double gen_ms = 0;
  int64_t stream_txs = 0;
  for (int k = 0; k < streams; ++k) {
    seeds.push_back(args.seed * 7919 + static_cast<uint64_t>(k) + 1);
    const double t0 = NowUs();
    inputs.push_back(Generate(seeds.back(), cycles, trace_log, &gen_ms));
    setup_s.push_back((NowUs() - t0) / 1e6);
    stream_txs += static_cast<int64_t>(inputs.back().txs.size());
  }
  result->Metric("setup_s", Median(setup_s), "s");
  result->info().Set("streams", streams);
  result->info().Set("stream_txs", stream_txs);
  result->info().Set("last_arrival_ms",
                     static_cast<int64_t>(inputs.front().last_arrival));

  // Sim-time outcomes pooled over one run of every stream.
  auto outcome_metrics = [&](const std::vector<Run>& runs) {
    std::vector<double> latency;
    int64_t offered = 0, completed = 0, one_leg = 0;
    double fees = 0;
    std::string digest;
    for (const Run& run : runs) {
      latency.insert(latency.end(), run.latency_ms.begin(),
                     run.latency_ms.end());
      offered += run.offered;
      completed += run.completed;
      one_leg += run.one_leg;
      fees += run.fees;
      digest += run.fingerprint;
    }
    const auto n = static_cast<double>(offered);
    result->Metric("swap_latency_sim_p50_ms", Percentile(latency, 0.5), "ms");
    result->Metric("swap_latency_sim_p90_ms", Percentile(latency, 0.9), "ms");
    result->Metric("verdict_frac", static_cast<double>(completed) / n,
                   "ratio");
    result->Metric("atomic_frac", 1.0 - static_cast<double>(one_leg) / n,
                   "ratio");
    result->Metric("fees_per_swap",
                   completed > 0 ? fees / static_cast<double>(completed) : 0,
                   "fee");
    for (const char* name :
         {"swap_latency_sim_p50_ms", "swap_latency_sim_p90_ms",
          "verdict_frac", "atomic_frac", "fees_per_swap"}) {
      result->Deterministic(name);
    }
    result->info().Set("offered_swaps", offered);
    result->info().Set("violation_frac", static_cast<double>(one_leg) / n);
    result->set_fingerprint(Fingerprint(digest));
  };

  // Warm-up run, not measured.
  (void)RunStream(seeds[0], inputs[0], nullptr);

  if (!args.trace) {
    // Streams run round-robin for the window, each at least once; every
    // repeat of a stream must reproduce its first run exactly.
    const double window_us = args.seconds * 1e6;
    const double start = NowUs();
    std::vector<Run> first;
    std::vector<double> world_ms, swap_rate;
    double last_us = 0;
    int runs = 0;
    while (runs < streams || NowUs() - start + last_us <= window_us) {
      const int k = runs % streams;
      const double r0 = NowUs();
      Run run = RunStream(seeds[static_cast<size_t>(k)],
                          inputs[static_cast<size_t>(k)], nullptr);
      last_us = NowUs() - r0;
      ++runs;
      CheckRun(run, "run " + std::to_string(runs), result);
      world_ms.push_back(run.world_ms);
      swap_rate.push_back(static_cast<double>(run.completed) /
                          (run.run_ms / 1000.0));
      if (runs <= streams) {
        first.push_back(std::move(run));
      } else if (run.fingerprint != first[static_cast<size_t>(k)].fingerprint) {
        result->Fail("run " + std::to_string(runs) + " of stream " +
                     std::to_string(k) + " differs from its first run");
      }
    }
    outcome_metrics(first);
    result->Metric("worlds_per_s", 1000.0 / Median(world_ms), "1/s");
    result->Metric("world_ms_p50", Percentile(world_ms, 0.5), "ms");
    result->Metric("world_ms_p90", Percentile(world_ms, 0.9), "ms");
    result->Metric("swaps_per_s", Median(swap_rate), "1/s");
    result->Metric("peak_rss_mb", PeakRssMb(), "MiB");
    result->info().Set("runs", runs);
    return true;
  }

  // ---- traced run ----------------------------------------------------------
  // Each stream runs untraced (the reference), then traced; the two must
  // agree exactly, and the probes run on the traced world.
  std::vector<Run> references;
  LayerCounters total;
  double loop_ms = 0, reference_ms = 0, reference_run_ms = 0;
  double traced_ms = 0, traced_run_ms = 0;
  int64_t reference_completed = 0, traced_completed = 0;
  for (int k = 0; k < streams; ++k) {
    const auto kk = static_cast<size_t>(k);
    const double loop0 = NowUs();
    Run reference = RunStream(seeds[kk], inputs[kk], nullptr);
    loop_ms += (NowUs() - loop0) / 1000.0;
    reference_ms += reference.world_ms;
    reference_run_ms += reference.run_ms;
    reference_completed += reference.completed;
    CheckRun(reference, "stream " + std::to_string(k), result);

    std::fprintf(stderr, "ac3bench: traced pass begins\n");
    std::fflush(stderr);
    const Run traced = RunStream(seeds[kk], inputs[kk], &log);
    std::fprintf(stderr, "ac3bench: traced pass ends\n");
    std::fflush(stderr);
    CheckRun(traced, "traced stream " + std::to_string(k), result);
    if (traced.fingerprint != reference.fingerprint) {
      result->Fail("traced stream " + std::to_string(k) +
                   " differs from its untraced run");
    }
    if (traced.layers.probe.head_mismatches > 0 ||
        traced.layers.probe.rejected_blocks > 0) {
      result->Fail("probe head differs from live head on stream " +
                   std::to_string(k));
    }
    traced_ms += traced.world_ms;
    traced_run_ms += traced.run_ms;
    traced_completed += traced.completed;
    total.Add(traced.layers);
    references.push_back(std::move(reference));
  }
  outcome_metrics(references);
  // One thread runs the streams back to back; its idle share is the time
  // between runs (freeing the finished world), out of the whole loop.
  EmitLayerMetrics(total, 1.0 - reference_ms / loop_ms,
                   gen_ms / static_cast<double>(streams), result);

  // Tracing overhead: traced minus untraced, over the same streams.
  const auto n = static_cast<double>(streams);
  Json overhead = Json::Object();
  overhead.Set("world_ms", (traced_ms - reference_ms) / n);
  overhead.Set("run_ms", (traced_run_ms - reference_run_ms) / n);
  overhead.Set("swaps_per_s",
               static_cast<double>(traced_completed) / (traced_run_ms / 1000.0) -
                   static_cast<double>(reference_completed) /
                       (reference_run_ms / 1000.0));
  overhead.Set("sim_metrics", 0.0);
  result->info().Set("trace_overhead", std::move(overhead));
  if (!args.trace_file.empty() && !WriteChromeTrace(args.trace_file, log)) {
    result->Fail("cannot write trace file " + args.trace_file);
  }
  return true;
}

}  // namespace ac3bench
