// The two closed-loop sweep workloads, swap_sweep and crash_sweep.
//
// Untraced: a fixed pool of SweepRunner workers runs the seed's grid with
// RunGridTimed, round after round for the measurement window; every round
// must reproduce round one's outcomes exactly.
//
// Traced: one untraced round gives the reference outcomes and the worker
// idle share; then every world is rebuilt step by step through the same
// public calls RunSwapReport makes, with spans around each layer call, and
// its reduced outcome must be byte-identical to the reference. The chain
// probes then run on the finished world.

#include <algorithm>
#include <memory>
#include <optional>

#include "ac3bench/bench.h"
#include "src/core/scenario.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"
#include "src/protocols/trent.h"
#include "src/runner/sweep_runner.h"

namespace ac3bench {
namespace {

using ac3::Duration;
using ac3::Seconds;
using ac3::TimePoint;
using ac3::runner::FailureMode;
using ac3::runner::Json;
using ac3::runner::Protocol;
using ac3::runner::RunOutcome;
using ac3::runner::SweepGridConfig;
using ac3::runner::SweepPoint;
using ac3::runner::Topology;

/// The grid of one sweep workload. World seeds derive from the command
/// line seed; nothing else in the grid depends on it.
bool GridFor(const Args& args, SweepGridConfig* grid) {
  grid->protocols = {Protocol::kHerlihy, Protocol::kAc3tw, Protocol::kAc3wn,
                     Protocol::kQuorum};
  // The default 60-minute deadline lets one stuck Herlihy world run for
  // most of a round; 90 s still covers every fault-free commit.
  grid->deadline = Seconds(90);
  int seeds = 0;
  if (args.workload == "swap_sweep") {
    grid->topologies = {Topology::kRing, Topology::kStar,
                        Topology::kRandomFeasible};
    grid->sizes = {2, 4, 8};
    grid->failures = {FailureMode::kNone, FailureMode::kCrashParticipant,
                      FailureMode::kDropMessages,
                      FailureMode::kDuplicateMessages};
    // Worlds that share a seed share their block-time draws, and each
    // Herlihy lost-race world that mines until the deadline costs about as
    // much CPU as 40 average worlds. The seed count, not the cell count,
    // sets how much one seed's luck moves the sim-time percentiles and the
    // host throughput: 48 seeds, 6912 worlds per round (about 13 s on 4
    // cores, so a run stays short when the host is slow).
    seeds = 48;
    if (args.tiny) {
      grid->topologies = {Topology::kRing};
      grid->sizes = {2};
      grid->failures = {FailureMode::kNone, FailureMode::kDropMessages};
      seeds = 1;
    }
  } else if (args.workload == "crash_sweep") {
    // The commit-study settings: the coordinator never recovers.
    grid->topologies = {Topology::kRing};
    grid->sizes = {4};
    grid->failures = {FailureMode::kCrashCoordinatorAtPrepare,
                      FailureMode::kCrashCoordinatorAtCommit};
    grid->coordinator_recovery_deltas = -1;
    seeds = args.tiny ? 1 : 26;  // 208 worlds per round.
  } else {
    return false;
  }
  // A traced run rebuilds, times and probes every world on top of an
  // untraced reference round, so it takes the first quarter of the seeds:
  // per-layer unit costs need no more samples, and the run stays well
  // inside the per-run time limit on a slow host.
  if (args.trace) seeds = std::max(1, seeds / 4);
  grid->seeds.clear();
  for (int i = 0; i < seeds; ++i) {
    grid->seeds.push_back(args.seed * 1000 + static_cast<uint64_t>(i) + 1);
  }
  return true;
}

// ---- the world recipe of RunSwapReport, rebuilt from public calls ---------
// These three mirror helpers private to src/runner/sweep_runner.cc. Any
// drift shows as a traced outcome that differs from the untraced one.

ac3::core::ScenarioOptions WorldOptionsFor(const SweepGridConfig& config,
                                           const SweepPoint& point) {
  ac3::core::ScenarioOptions options;
  options.participants = point.size;
  options.asset_chains = std::min(point.size, config.max_asset_chains);
  options.funding = config.funding;
  options.seed = point.seed;
  options.witness_chain = point.protocol == Protocol::kAc3wn;
  return options;
}

ac3::protocols::CoordinatorCrashPlan CoordinatorPlanFor(
    const SweepGridConfig& config, const SweepPoint& point) {
  ac3::protocols::CoordinatorCrashPlan plan;
  if (point.failure == FailureMode::kCrashCoordinatorAtPrepare) {
    plan.phase = ac3::protocols::CoordinatorCrashPhase::kAtPrepare;
  } else if (point.failure == FailureMode::kCrashCoordinatorAtCommit) {
    plan.phase = ac3::protocols::CoordinatorCrashPhase::kAtCommit;
  } else {
    return plan;
  }
  if (config.coordinator_recovery_deltas >= 0) {
    plan.recover_after = static_cast<Duration>(
        config.coordinator_recovery_deltas *
        static_cast<double>(config.delta));
  }
  return plan;
}

void InjectFailure(const SweepGridConfig& config, const SweepPoint& point,
                   ac3::core::ScenarioWorld* world) {
  if (point.failure == FailureMode::kNone || point.size < 2) return;
  const ac3::sim::NodeId victim = world->participant(1)->node();
  const auto onset = static_cast<TimePoint>(
      config.failure_onset_deltas * static_cast<double>(config.delta));
  const auto length = static_cast<Duration>(
      config.failure_length_deltas * static_cast<double>(config.delta));
  ac3::sim::MessageFaults faults;
  switch (point.failure) {
    case FailureMode::kCrashParticipant:
      world->env()->failures()->CrashFor(victim, onset, length);
      return;
    case FailureMode::kPartitionParticipant:
      world->env()->failures()->SchedulePartition(
          ac3::sim::PartitionWindow{victim, onset, onset + length});
      return;
    case FailureMode::kDropMessages:
      faults.drop_prob = config.message_drop_prob;
      world->env()->network()->set_message_faults(faults);
      return;
    case FailureMode::kDuplicateMessages:
      faults.duplicate_prob = config.message_duplicate_prob;
      world->env()->network()->set_message_faults(faults);
      return;
    default:
      return;  // Coordinator crashes are engine-driven (CoordinatorPlanFor).
  }
}

/// Everything one traced world measured.
struct TracedWorld {
  RunOutcome outcome;
  SpanLog log;
  double world_ms = 0;  ///< Set-up, engine start and run; no probes.
  LayerCounters layers;
};

/// Set-up is a few milliseconds, so it is repeated and the median kept.
constexpr int kSetupReps = 21;

/// Per-chain cap on the post-verdict SubmitTransaction probe.
constexpr int kSubmitProbeTxs = 32;

TracedWorld RunTracedWorld(const SweepGridConfig& config,
                           const SweepPoint& point, int64_t index) {
  TracedWorld t;
  SpanLog* log = &t.log;
  LayerCounters* layers = &t.layers;
  layers->worlds = 1;
  layers->swaps = 1;
  const double world_t0 = NowUs();
  const int world_span = log->Begin("runner.world", index);

  std::optional<ac3::core::ScenarioWorld> world;
  std::optional<ac3::graph::Ac2tGraph> graph;
  double t0 = NowUs();
  {
    ScopedSpan span(log, "core.world_setup", index);
    world.emplace(WorldOptionsFor(config, point));
    InjectFailure(config, point, &*world);
    world->StartMining();
    graph.emplace(ac3::runner::TopologyOverWorld(
        &*world, point.topology, point.size, config.edge_amount, point.seed,
        config.random_chord_prob));
  }
  layers->setup_ms = (NowUs() - t0) / 1000.0;
  ac3::core::Environment* env = world->env();
  ac3::sim::Simulation* sim = env->sim();
  const TimePoint deadline = sim->Now() + config.deadline;

  std::optional<ac3::protocols::TrustedWitness> trent;
  std::unique_ptr<ac3::protocols::SwapEngineBase> engine;
  ac3::Status started;
  t0 = NowUs();
  {
    ScopedSpan span(log, "protocols.engine_start", index);
    const auto plan = CoordinatorPlanFor(config, point);
    switch (point.protocol) {
      case Protocol::kHerlihy: {
        ac3::protocols::HtlcConfig cfg;
        cfg.delta = config.delta;
        cfg.confirm_depth = config.confirm_depth;
        cfg.resubmit_interval = config.resubmit_interval;
        cfg.coordinator_crash = plan;
        engine = std::make_unique<ac3::protocols::HerlihySwapEngine>(
            env, *graph, world->all_participants(), cfg);
        break;
      }
      case Protocol::kAc3tw: {
        ac3::protocols::Ac3twConfig cfg;
        cfg.delta = config.delta;
        cfg.confirm_depth = config.confirm_depth;
        cfg.resubmit_interval = config.resubmit_interval;
        cfg.publish_patience = config.publish_patience;
        cfg.coordinator_crash = plan;
        trent.emplace("Trent", 0x7e27 + point.seed, env,
                      config.confirm_depth);
        engine = std::make_unique<ac3::protocols::Ac3twSwapEngine>(
            env, *graph, world->all_participants(), &*trent, cfg);
        break;
      }
      case Protocol::kAc3wn: {
        ac3::protocols::Ac3wnConfig cfg;
        cfg.delta = config.delta;
        cfg.confirm_depth = config.confirm_depth;
        cfg.witness_depth_d = config.witness_depth_d;
        cfg.resubmit_interval = config.resubmit_interval;
        cfg.publish_patience = config.publish_patience;
        cfg.coordinator_crash = plan;
        engine = std::make_unique<ac3::protocols::Ac3wnSwapEngine>(
            env, *graph, world->all_participants(), world->witness_chain(),
            cfg);
        break;
      }
      case Protocol::kQuorum: {
        ac3::protocols::QuorumConfig cfg;
        cfg.delta = config.delta;
        cfg.confirm_depth = config.confirm_depth;
        cfg.resubmit_interval = config.resubmit_interval;
        cfg.publish_patience = config.publish_patience;
        cfg.takeover_timeout = 2 * config.delta;
        cfg.coordinator_crash = plan;
        engine = std::make_unique<ac3::protocols::QuorumCommitEngine>(
            env, *graph, world->all_participants(), cfg);
        break;
      }
    }
    started = engine->Start();
  }
  layers->start_ms = (NowUs() - t0) / 1000.0;

  if (!started.ok()) {
    t.outcome.point = point;
    t.outcome.error = started.ToString();
    t.outcome.infeasible =
        started.code() == ac3::StatusCode::kFailedPrecondition;
  } else {
    t0 = NowUs();
    ac3::Result<ac3::protocols::SwapReport> report =
        ac3::Status::Internal("not run");
    {
      // Stepping the same predicate tick by tick executes exactly the events
      // one RunUntilCondition call would; the samples between ticks only
      // read the mempools.
      ScopedSpan span(log, "sim.run", index);
      const auto done = [&engine]() { return engine->Done(); };
      for (TimePoint tick = sim->Now();;) {
        tick = std::min(tick + kSampleTick, deadline);
        (void)sim->RunUntilCondition(done, tick);
        layers->SampleMempools(env);
        if (engine->Done() || tick >= deadline) break;
      }
      report = engine->Run(deadline);
    }
    layers->run_us = NowUs() - t0;
    if (report.ok()) {
      t.outcome = ac3::runner::ReduceReport(point, *report);
      t.outcome.sim_events = static_cast<int64_t>(sim->events_executed());
      layers->messages = report->messages_sent;
      layers->bytes = report->message_bytes_sent;
    } else {
      t.outcome.point = point;
      t.outcome.error = report.status().ToString();
    }
  }
  log->End(world_span);
  t.world_ms = (NowUs() - world_t0) / 1000.0;

  // Out-of-context probes on the finished world; the verdict is already
  // reduced, so nothing below can change it.
  layers->CountFinishedWorld(env, point.seed, log, index);
  ScopedSpan span(log, "core.probe_submit", index);
  const ac3::sim::NodeId from = world->participant(0)->node();
  for (ac3::chain::ChainId id = 0; id < env->chain_count(); ++id) {
    const ac3::chain::Blockchain* chain = env->blockchain(id);
    int sent = 0;
    for (const ac3::chain::BlockEntry* walk = chain->head();
         walk != chain->genesis() && sent < kSubmitProbeTxs;
         walk = walk->parent) {
      for (const ac3::chain::Transaction& tx : walk->block.txs) {
        if (tx.type == ac3::chain::TxType::kCoinbase) continue;
        if (sent++ >= kSubmitProbeTxs) break;
        const double s0 = NowUs();
        env->SubmitTransaction(from, id, tx);
        layers->submit_us += NowUs() - s0;
        ++layers->submits;
      }
    }
  }
  return t;
}

std::string OutcomeKey(const RunOutcome& outcome) {
  return ac3::runner::OutcomeToJson(outcome).Serialize() + "m" +
         std::to_string(outcome.messages_sent) + "b" +
         std::to_string(outcome.message_bytes_sent) + "\n";
}

std::string GridFingerprint(const std::vector<RunOutcome>& outcomes) {
  std::string all;
  for (const RunOutcome& outcome : outcomes) all += OutcomeKey(outcome);
  return Fingerprint(all);
}

std::string PointName(const SweepPoint& p) {
  return std::string(ProtocolName(p.protocol)) + "/" +
         TopologyName(p.topology) + "/" + std::to_string(p.size) + "/" +
         FailureModeName(p.failure) + "/" + std::to_string(p.seed);
}

/// Counts the failed operations among one round's outcomes: world errors
/// other than an infeasible graph, and any atomicity violation by an engine
/// that claims atomicity (Herlihy's lost races are results, not failures).
void CheckOutcomes(const std::vector<RunOutcome>& outcomes, Result* result) {
  for (const RunOutcome& o : outcomes) {
    if (!o.ok && !o.infeasible) {
      result->Fail("world error " + PointName(o.point) + ": " + o.error);
    } else if (o.atomicity_violated && o.point.protocol != Protocol::kHerlihy) {
      result->Fail("atomicity violated by " + PointName(o.point));
    }
  }
}

/// The deterministic end-to-end metrics of one round's outcomes.
void OutcomeMetrics(const std::vector<RunOutcome>& outcomes, double delta_ms,
                    Result* result) {
  std::vector<double> latencies;
  int64_t finished = 0, violations = 0, fee_worlds = 0, errors = 0;
  double fees = 0;
  Json by_protocol = Json::Object();
  std::vector<int64_t> protocol_violations(4, 0);
  for (const RunOutcome& o : outcomes) {
    if (!o.ok) {
      if (!o.infeasible) ++errors;
      continue;
    }
    if (o.finished) ++finished;
    if (o.committed && o.latency_ms >= 0) latencies.push_back(o.latency_ms);
    if (o.atomicity_violated) {
      ++violations;
      ++protocol_violations[static_cast<size_t>(o.point.protocol)];
    }
    fees += static_cast<double>(o.total_fees);
    ++fee_worlds;
  }
  const auto n = static_cast<double>(outcomes.size());
  result->Metric("swap_latency_sim_p50_ms", Percentile(latencies, 0.5), "ms");
  result->Metric("swap_latency_sim_p90_ms", Percentile(latencies, 0.9), "ms");
  result->Metric("verdict_frac", static_cast<double>(finished) / n, "ratio");
  result->Metric("atomic_frac", 1.0 - static_cast<double>(violations) / n,
                 "ratio");
  result->Metric("fees_per_swap",
                 fee_worlds > 0 ? fees / static_cast<double>(fee_worlds) : 0,
                 "fee");
  for (const char* name :
       {"swap_latency_sim_p50_ms", "swap_latency_sim_p90_ms", "verdict_frac",
        "atomic_frac", "fees_per_swap"}) {
    result->Deterministic(name);
  }
  for (Protocol p : {Protocol::kHerlihy, Protocol::kAc3tw, Protocol::kAc3wn,
                     Protocol::kQuorum}) {
    by_protocol.Set(ac3::runner::ProtocolName(p),
                    protocol_violations[static_cast<size_t>(p)]);
  }
  Json& info = result->info();
  info.Set("worlds_per_grid", static_cast<int64_t>(outcomes.size()));
  info.Set("violation_frac", static_cast<double>(violations) / n);
  info.Set("violations_by_protocol", std::move(by_protocol));
  info.Set("committed_latency_samples", static_cast<int64_t>(latencies.size()));
  info.Set("world_errors", errors);
  info.Set("delta_ms", delta_ms);
  if (delta_ms > 0) {
    info.Set("swap_latency_sim_p50_deltas",
             Percentile(latencies, 0.5) / delta_ms);
  }
}

}  // namespace

bool RunSweepWorkload(const Args& args, Result* result) {
  SweepGridConfig grid;
  if (!GridFor(args, &grid)) return false;

  // Set-up: runner (its worker pool), the grid, and the measured Δ.
  // Repeated so setup_s is a median, not one cold sample.
  std::unique_ptr<ac3::runner::SweepRunner> runner;
  std::vector<SweepPoint> points;
  double delta_ms = 0;
  std::vector<double> setup_s, grid_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowUs();
    runner.reset();
    runner = std::make_unique<ac3::runner::SweepRunner>(args.workers);
    const double g0 = NowUs();
    points = ac3::runner::GridPoints(grid);
    grid_ms.push_back((NowUs() - g0) / 1000.0);
    // Δ is a property of the chain parameters: it is measured on the fixed
    // world the commit study uses, so set-up cost does not vary by seed.
    ac3::core::ScenarioOptions delta_world;
    delta_world.seed = 999;
    delta_ms = ac3::runner::MeasureDeltaMs(delta_world, grid.confirm_depth);
    setup_s.push_back((NowUs() - t0) / 1e6);
  }
  result->Metric("setup_s", Median(setup_s), "s");
  if (delta_ms <= 0) result->Fail("delta measurement failed");

  // Warm-up: one seed's slice of the grid, not measured.
  {
    SweepGridConfig warm = grid;
    warm.seeds = {grid.seeds.front()};
    (void)runner->RunGrid(warm);
  }

  if (!args.trace) {
    const double window_us = args.seconds * 1e6;
    const double start = NowUs();
    std::vector<double> round_rate, round_swap_rate, world_ms;
    std::vector<RunOutcome> first;
    std::string first_fp;
    double last_round_us = 0;
    int rounds = 0;
    while (rounds == 0 || NowUs() - start + last_round_us <= window_us) {
      const double r0 = NowUs();
      ac3::runner::GridWallStats stats;
      std::vector<RunOutcome> outcomes = runner->RunGridTimed(grid, &stats);
      last_round_us = NowUs() - r0;
      ++rounds;
      result->Attempt(static_cast<int64_t>(outcomes.size()));
      int64_t finished = 0;
      for (const RunOutcome& o : outcomes) {
        world_ms.push_back(o.wall_ms);
        if (o.finished) ++finished;
      }
      round_rate.push_back(stats.worlds_per_sec);
      round_swap_rate.push_back(static_cast<double>(finished) /
                                (stats.wall_ms / 1000.0));
      const std::string fp = GridFingerprint(outcomes);
      if (first.empty()) {
        CheckOutcomes(outcomes, result);
        OutcomeMetrics(outcomes, delta_ms, result);
        first = std::move(outcomes);
        first_fp = fp;
      } else if (fp != first_fp) {
        for (size_t i = 0; i < outcomes.size(); ++i) {
          if (OutcomeKey(outcomes[i]) != OutcomeKey(first[i])) {
            result->Fail("round " + std::to_string(rounds) +
                         " differs from round 1 at " +
                         PointName(outcomes[i].point));
          }
        }
      }
    }
    result->set_fingerprint(first_fp);
    result->Metric("worlds_per_s", Median(round_rate), "1/s");
    result->Metric("world_ms_p50", Percentile(world_ms, 0.5), "ms");
    result->Metric("world_ms_p90", Percentile(world_ms, 0.9), "ms");
    result->Metric("swaps_per_s", Median(round_swap_rate), "1/s");
    result->Metric("peak_rss_mb", PeakRssMb(), "MiB");
    Json& info = result->info();
    info.Set("rounds", rounds);
    info.Set("world_wall_samples", static_cast<int64_t>(world_ms.size()));
    return true;
  }

  // ---- traced run ----------------------------------------------------------
  ac3::runner::GridWallStats stats;
  const std::vector<RunOutcome> reference = runner->RunGridTimed(grid, &stats);
  double busy_ms = 0;
  std::vector<double> reference_ms;
  for (const RunOutcome& o : reference) {
    busy_ms += o.wall_ms;
    reference_ms.push_back(o.wall_ms);
  }
  const double idle_frac =
      1.0 - busy_ms / (runner->threads() * stats.wall_ms);
  result->Attempt(static_cast<int64_t>(reference.size()));
  CheckOutcomes(reference, result);
  OutcomeMetrics(reference, delta_ms, result);
  result->set_fingerprint(GridFingerprint(reference));

  // The stream after this marker holds only the traced pass's warnings.
  std::fprintf(stderr, "ac3bench: traced pass begins\n");
  std::fflush(stderr);
  std::vector<TracedWorld> traced = runner->Map<TracedWorld>(
      static_cast<int>(points.size()), [&](int i) {
        return RunTracedWorld(grid, points[static_cast<size_t>(i)], i);
      });
  std::fprintf(stderr, "ac3bench: traced pass ends\n");
  std::fflush(stderr);

  SpanLog all;
  LayerCounters total;
  std::vector<double> traced_ms;
  for (size_t i = 0; i < traced.size(); ++i) {
    const TracedWorld& t = traced[i];
    result->Attempt(1);
    if (OutcomeKey(t.outcome) != OutcomeKey(reference[i])) {
      result->Fail("traced world differs from untraced at " +
                   PointName(points[i]));
    }
    if (t.layers.probe.head_mismatches > 0 ||
        t.layers.probe.rejected_blocks > 0) {
      result->Fail("probe head differs from live head at " +
                   PointName(points[i]));
    }
    all.Append(t.log);
    traced_ms.push_back(t.world_ms);
    total.Add(t.layers);
  }
  EmitLayerMetrics(total, idle_frac, Median(grid_ms), result);

  // Tracing overhead: traced minus untraced per-world wall (the probes run
  // after each world's span closes, so they are not part of it).
  Json overhead = Json::Object();
  overhead.Set("world_ms_p50", Percentile(traced_ms, 0.5) -
                                   Percentile(reference_ms, 0.5));
  overhead.Set("world_ms_p90", Percentile(traced_ms, 0.9) -
                                   Percentile(reference_ms, 0.9));
  overhead.Set("sim_metrics", 0.0);
  result->info().Set("trace_overhead", std::move(overhead));
  result->info().Set("traced_worlds", static_cast<int64_t>(traced.size()));
  if (!args.trace_file.empty() && !WriteChromeTrace(args.trace_file, all)) {
    result->Fail("cannot write trace file " + args.trace_file);
  }
  return true;
}

}  // namespace ac3bench
