// Shared pieces of the repository benchmark harness: the command line,
// the result record every workload fills, in-memory span tracing, and the
// out-of-context chain probes the traced runs use.
//
// The harness drives the project only through its public APIs and times
// its own calls into each layer; it adds no hooks inside src/.

#ifndef AC3BENCH_BENCH_H_
#define AC3BENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/core/environment.h"
#include "src/runner/json.h"

namespace ac3bench {

/// Parsed command line (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< Self-test size: a few worlds, a short stream.
  int workers = 1;    ///< Sweep workers: min(4, cores).
  std::string trace_file;  ///< Chrome trace output (traced runs only).
};

/// What one invocation reports. Metrics keep insertion order; `info`
/// carries everything that is printed but not a metric.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation; the first few reasons are kept.
  void Fail(const std::string& reason);
  void Attempt(int64_t n) { attempted_ += n; }

  ac3::runner::Json& info() { return info_; }
  void set_fingerprint(std::string fp) { fingerprint_ = std::move(fp); }
  /// Names of metrics that must repeat exactly for a given seed.
  void Deterministic(const std::string& name) { deterministic_.push_back(name); }

  ac3::runner::Json ToJson() const;

 private:
  ac3::runner::Json metrics_ = ac3::runner::Json::Object();
  ac3::runner::Json info_ = ac3::runner::Json::Object();
  std::vector<std::string> failures_;
  std::vector<std::string> deterministic_;
  std::string fingerprint_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- timing and process counters ------------------------------------------

/// Microseconds on the steady clock since the first call in this process.
double NowUs();
/// VmHWM of this process, MiB.
double PeakRssMb();
/// Current `Threads:` of this process.
int ThreadsNow();
/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
/// Median of a sample (nearest rank); 0 if empty.
double Median(std::vector<double> values);
/// Hex SHA-256 of `text`.
std::string Fingerprint(const std::string& text);

// ---- spans ----------------------------------------------------------------

/// One timed interval of the benchmark's own calls into a layer.
struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "core.world_setup".
  double start_us = 0;
  double end_us = 0;
  int parent = -1;    ///< Index of the enclosing span in the same log.
  int64_t id = 0;     ///< World index (sweeps) or swap index (openworld).
  int tid = 0;        ///< Small per-thread number, for the trace viewer.
};

/// Spans of one thread of work, kept in memory until the run ends. A log
/// is owned by one thread at a time; logs are merged after workers join.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int64_t id);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op so untraced code paths share it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id)
      : log_(log), index_(log != nullptr ? log->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Writes `log` as Chrome trace-event JSON (opens offline in Perfetto or
/// chrome://tracing). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const SpanLog& log);

// ---- chain probes (traced runs) --------------------------------------------

/// Unit costs measured out of context on a finished chain. They are not
/// shares of the run: the probe replays work the run already did.
struct ChainProbe {
  double validate_us = 0;     ///< SubmitBlock into a fresh chain, summed.
  int64_t validate_blocks = 0;
  int64_t validate_txs = 0;
  double pow_us = 0;          ///< MineHeader on header copies, summed.
  int64_t pow_blocks = 0;
  uint64_t pow_evals = 0;
  int head_mismatches = 0;    ///< Fresh head differed from the live head.
  int rejected_blocks = 0;    ///< Stored blocks the fresh chain refused.

  void Add(const ChainProbe& other);
};

/// Replays every stored block of `live`, in arrival order, into a fresh
/// Blockchain built from the same params and genesis outputs (timed), then
/// re-mines a copy of every stored header (timed, seeded from `seed`).
ChainProbe ProbeChain(const ac3::chain::Blockchain& live, uint64_t seed,
                      SpanLog* log, int64_t id);

/// Simulated time between two mempool samples of a traced run (one block
/// interval of the test chains).
constexpr ac3::Duration kSampleTick = ac3::Milliseconds(100);

/// Per-layer counters of traced worlds, summed over a workload.
struct LayerCounters {
  int64_t worlds = 0;
  int64_t swaps = 0;
  double setup_ms = 0;   ///< core: world construction.
  double start_ms = 0;   ///< protocols: engine construction + Start().
  double run_us = 0;     ///< sim: the benchmark's RunUntil* calls.
  double submit_us = 0;  ///< core: SubmitTransaction calls.
  int64_t submits = 0;
  int64_t messages = 0;  ///< protocols: SwapReport message counters.
  int64_t bytes = 0;
  int64_t events = 0;
  int64_t delivered = 0;  ///< sim: Network counters.
  int64_t dropped = 0;
  int64_t blocks_mined = 0;
  int64_t stored = 0;         ///< Blocks stored, genesis excluded.
  int64_t canonical = 0;      ///< Canonical blocks (head heights).
  int64_t canonical_txs = 0;  ///< Non-coinbase txs on canonical branches.
  int64_t ticks = 0;          ///< Mempool samples taken.
  int64_t backlog_sum = 0;    ///< Pending txs, all chains, summed over ticks.
  int64_t backlog_max = 0;
  double candidates_us = 0;
  int64_t candidate_calls = 0;
  ChainProbe probe;
  int threads_peak = 0;

  void Add(const LayerCounters& other);
  /// One tick: every mempool's size, and a timed CandidatePointersAt.
  void SampleMempools(ac3::core::Environment* env);
  /// Network and block-store counters of a finished world, then the chain
  /// probes on each of its chains.
  void CountFinishedWorld(ac3::core::Environment* env, uint64_t seed,
                          SpanLog* log, int64_t id);
};

/// Prints every per-layer metric of BENCHMARK.json from `c`.
/// `workload_gen_ms` is the set-up's input generation time.
void EmitLayerMetrics(const LayerCounters& c, double worker_idle_frac,
                      double workload_gen_ms, Result* result);

// ---- workloads ------------------------------------------------------------

/// Each fills `result` and returns false only on a harness error (a bad
/// argument), never on a failed operation — those are counted in `result`.
bool RunSweepWorkload(const Args& args, Result* result);
bool RunOpenworld(const Args& args, Result* result);

}  // namespace ac3bench

#endif  // AC3BENCH_BENCH_H_
