#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "ac3bench/bench.h"
#include "src/chain/pow.h"
#include "src/crypto/hash256.h"

namespace ac3bench {

using ac3::runner::Json;

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Json metric = Json::Object();
  metric.Set("value", value);
  metric.Set("unit", unit);
  metrics_.Set(name, std::move(metric));
}

void Result::Fail(const std::string& reason) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(reason);
}

Json Result::ToJson() const {
  Json out = Json::Object();
  out.Set("attempted", attempted_);
  out.Set("failed", failed_);
  Json failures = Json::Array();
  for (const std::string& reason : failures_) failures.Push(reason);
  out.Set("failures", std::move(failures));
  out.Set("fingerprint", fingerprint_);
  Json deterministic = Json::Array();
  for (const std::string& name : deterministic_) deterministic.Push(name);
  out.Set("deterministic", std::move(deterministic));
  out.Set("metrics", metrics_);
  out.Set("info", info_);
  return out;
}

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

/// The numeric field after `key` in /proc/self/status, or 0.
long ProcStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = key;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcStatusField("VmHWM:")) / 1024.0;
}

int ThreadsNow() { return static_cast<int>(ProcStatusField("Threads:")); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::string Fingerprint(const std::string& text) {
  return ac3::crypto::Hash256::OfString(text).ToHex();
}

// ---- spans ----------------------------------------------------------------

namespace {

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

}  // namespace

int SpanLog::Begin(const char* name, int64_t id) {
  Span span;
  span.name = name;
  span.start_us = NowUs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.tid = ThreadNumber();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

bool WriteChromeTrace(const std::string& path, const SpanLog& log) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string parent =
        s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"span\":%zu,\"parent\":%d,\"parent_name\":\"%s\"}}%s\n",
                 s.name.c_str(),
                 static_cast<int>(s.name.find('.') == std::string::npos
                                      ? s.name.size()
                                      : s.name.find('.')),
                 s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us,
                 static_cast<long long>(s.id), i, s.parent, parent.c_str(),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

// ---- chain probes ---------------------------------------------------------

void ChainProbe::Add(const ChainProbe& other) {
  validate_us += other.validate_us;
  validate_blocks += other.validate_blocks;
  validate_txs += other.validate_txs;
  pow_us += other.pow_us;
  pow_blocks += other.pow_blocks;
  pow_evals += other.pow_evals;
  head_mismatches += other.head_mismatches;
  rejected_blocks += other.rejected_blocks;
}

ChainProbe ProbeChain(const ac3::chain::Blockchain& live, uint64_t seed,
                      SpanLog* log, int64_t id) {
  ChainProbe probe;
  {
    ScopedSpan span(log, "chain.probe_validate", id);
    ac3::chain::Blockchain fresh(live.params(), live.genesis_tx().outputs);
    for (const ac3::chain::BlockEntry* entry : live.arrival_order()) {
      if (entry == live.genesis()) continue;
      const double t0 = NowUs();
      const ac3::Status status =
          fresh.SubmitBlock(entry->block, entry->arrival_time);
      probe.validate_us += NowUs() - t0;
      if (!status.ok()) ++probe.rejected_blocks;
      ++probe.validate_blocks;
      probe.validate_txs += static_cast<int64_t>(entry->block.txs.size());
    }
    if (!(fresh.head()->hash == live.head()->hash)) ++probe.head_mismatches;
  }
  {
    ScopedSpan span(log, "chain.probe_pow", id);
    ac3::Rng rng(seed);
    for (const ac3::chain::BlockEntry* entry : live.arrival_order()) {
      if (entry == live.genesis()) continue;
      ac3::chain::BlockHeader header = entry->block.header;
      const double t0 = NowUs();
      probe.pow_evals += ac3::chain::MineHeader(&header, &rng);
      probe.pow_us += NowUs() - t0;
      ++probe.pow_blocks;
    }
  }
  return probe;
}

void LayerCounters::Add(const LayerCounters& o) {
  worlds += o.worlds;
  swaps += o.swaps;
  setup_ms += o.setup_ms;
  start_ms += o.start_ms;
  run_us += o.run_us;
  submit_us += o.submit_us;
  submits += o.submits;
  messages += o.messages;
  bytes += o.bytes;
  events += o.events;
  delivered += o.delivered;
  dropped += o.dropped;
  blocks_mined += o.blocks_mined;
  stored += o.stored;
  canonical += o.canonical;
  canonical_txs += o.canonical_txs;
  ticks += o.ticks;
  backlog_sum += o.backlog_sum;
  backlog_max = std::max(backlog_max, o.backlog_max);
  candidates_us += o.candidates_us;
  candidate_calls += o.candidate_calls;
  probe.Add(o.probe);
  threads_peak = std::max(threads_peak, o.threads_peak);
}

void LayerCounters::SampleMempools(ac3::core::Environment* env) {
  int64_t pending = 0;
  for (ac3::chain::ChainId id = 0; id < env->chain_count(); ++id) {
    const ac3::chain::Mempool* pool = env->mempool(id);
    pending += static_cast<int64_t>(pool->size());
    const double t0 = NowUs();
    const auto candidates = pool->CandidatePointersAt(
        env->sim()->Now(), ac3::chain::Mempool::TxFilter());
    candidates_us += NowUs() - t0;
    ++candidate_calls;
    (void)candidates;
  }
  ++ticks;
  backlog_sum += pending;
  backlog_max = std::max(backlog_max, pending);
}

void LayerCounters::CountFinishedWorld(ac3::core::Environment* env,
                                       uint64_t seed, SpanLog* log,
                                       int64_t id) {
  events += static_cast<int64_t>(env->sim()->events_executed());
  delivered += static_cast<int64_t>(env->network()->delivered_count());
  dropped += static_cast<int64_t>(env->network()->dropped_count());
  for (ac3::chain::ChainId c = 0; c < env->chain_count(); ++c) {
    const ac3::chain::Blockchain& chain = *env->blockchain(c);
    blocks_mined += static_cast<int64_t>(env->miners(c)->blocks_mined());
    stored += static_cast<int64_t>(chain.block_count()) - 1;
    canonical += static_cast<int64_t>(chain.height());
    for (const ac3::chain::BlockEntry* walk = chain.head();
         walk != chain.genesis(); walk = walk->parent) {
      for (const ac3::chain::Transaction& tx : walk->block.txs) {
        if (tx.type != ac3::chain::TxType::kCoinbase) ++canonical_txs;
      }
    }
    probe.Add(ProbeChain(chain, seed * 31 + c, log, id));
  }
  threads_peak = std::max(threads_peak, ThreadsNow());
}

void EmitLayerMetrics(const LayerCounters& c, double worker_idle_frac,
                      double workload_gen_ms, Result* result) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto worlds = static_cast<double>(c.worlds);
  const auto swaps = static_cast<double>(c.swaps);
  const ChainProbe& p = c.probe;
  const double pow_us_per_block =
      ratio(p.pow_us, static_cast<double>(p.pow_blocks));
  result->Metric("runner.worker_idle_frac", worker_idle_frac, "ratio");
  result->Metric("core.world_setup_ms", ratio(c.setup_ms, worlds), "ms");
  result->Metric("core.submit_us_per_tx",
                 ratio(c.submit_us, static_cast<double>(c.submits)), "us");
  result->Metric("protocols.engine_start_ms", ratio(c.start_ms, worlds),
                 "ms");
  result->Metric("protocols.messages_per_swap",
                 ratio(static_cast<double>(c.messages), swaps), "count");
  result->Metric("protocols.bytes_per_swap",
                 ratio(static_cast<double>(c.bytes), swaps), "bytes");
  result->Metric("sim.run_ms", ratio(c.run_us / 1000.0, worlds), "ms");
  result->Metric("sim.events_per_world",
                 ratio(static_cast<double>(c.events), worlds), "count");
  result->Metric("sim.us_per_event",
                 ratio(c.run_us, static_cast<double>(c.events)), "us");
  result->Metric("sim.workload_gen_ms", workload_gen_ms, "ms");
  result->Metric("sim.net_delivered_per_swap",
                 ratio(static_cast<double>(c.delivered), swaps), "count");
  result->Metric("sim.net_drop_frac",
                 ratio(static_cast<double>(c.dropped),
                       static_cast<double>(c.delivered + c.dropped)),
                 "ratio");
  result->Metric("chain.blocks_per_world",
                 ratio(static_cast<double>(c.blocks_mined), worlds), "count");
  result->Metric("chain.orphan_frac",
                 ratio(static_cast<double>(c.stored - c.canonical),
                       static_cast<double>(c.stored)),
                 "ratio");
  result->Metric("chain.txs_per_block",
                 ratio(static_cast<double>(c.canonical_txs),
                       static_cast<double>(c.canonical)),
                 "count");
  result->Metric("chain.backlog_max", static_cast<double>(c.backlog_max),
                 "count");
  result->Metric("chain.backlog_mean",
                 ratio(static_cast<double>(c.backlog_sum),
                       static_cast<double>(c.ticks)),
                 "count");
  result->Metric("chain.candidates_us",
                 ratio(c.candidates_us, static_cast<double>(c.candidate_calls)),
                 "us");
  result->Metric("chain.candidates_us_per_1k_pending",
                 ratio(c.candidates_us * 1000.0,
                       static_cast<double>(c.backlog_sum)),
                 "us");
  result->Metric("chain.validate_us_per_block",
                 ratio(p.validate_us, static_cast<double>(p.validate_blocks)),
                 "us");
  result->Metric("chain.validate_us_per_tx",
                 ratio(p.validate_us, static_cast<double>(p.validate_txs)),
                 "us");
  result->Metric("chain.pow_us_per_block", pow_us_per_block, "us");
  result->Metric("chain.pow_evals_per_block",
                 ratio(static_cast<double>(p.pow_evals),
                       static_cast<double>(p.pow_blocks)),
                 "count");
  // Probe cost times blocks mined, over the time spent in the sim: an
  // estimate of the PoW share, not a measured one.
  result->Metric("chain.pow_est_share",
                 ratio(static_cast<double>(c.blocks_mined) * pow_us_per_block,
                       c.run_us),
                 "ratio");
  result->Metric("common.threads_peak", std::max(c.threads_peak, ThreadsNow()),
                 "count");
  for (const char* name :
       {"protocols.messages_per_swap", "protocols.bytes_per_swap",
        "sim.events_per_world", "sim.net_delivered_per_swap",
        "sim.net_drop_frac", "chain.blocks_per_world", "chain.orphan_frac",
        "chain.txs_per_block", "chain.backlog_max", "chain.backlog_mean",
        "chain.pow_evals_per_block"}) {
    result->Deterministic(name);
  }
}

}  // namespace ac3bench
