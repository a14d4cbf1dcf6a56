// What the three workloads share: run options, the end-to-end sample
// sets and their metric list, engine counter totals, and the traced
// run's stage-by-stage replay through each layer's public functions.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"
#include "engine/engine.h"
#include "oracle.h"
#include "pattern.h"
#include "util.h"

namespace pb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
};

/// One query shape: a pattern with its endpoints.
struct Request {
  Pat pat;
  std::string text;  // engine syntax
  uint32_t s = 0;
  uint32_t t = 0;
};
Request MakeRequest(Pat pat, uint32_t s, uint32_t t);

/// Minimal JSON object writer; numbers keep every digit (shortest
/// round-trip form).
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }
  static std::string Quote(const std::string& s);
  static std::string Number(double v);

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Samples behind the end-to-end metrics (untraced and traced runs
/// alike; the traced run's copy measures the tracing overhead).
struct Loop {
  // Every round starts with a set-up of its own, so set-up samples
  // span the run.
  std::vector<double> setup_s;
  // Latencies: installs, a request's first page (from the prepare call,
  // where there is one) and every page's pump.
  std::vector<double> install_ms;
  std::vector<double> first_page_ms;
  std::vector<double> page_ms;
  uint64_t answers = 0;
  uint64_t queries = 0;
  double active_s = 0;
  // Per round: rates over the round's active time. The run reports the
  // median round, and latencies are medians over every sample, so a
  // round the host slows moves neither.
  std::vector<double> round_queries_per_s;
  std::vector<double> round_answers_per_s;
  // Per round: the resident set at the round's end, with the engine and
  // every plan and reply of the round still held, after freed heap is
  // returned to the system. The process's lifetime peak is the maximum
  // over rounds of a sum of random plan sizes, which moves by a sixth
  // between seeds; the median round does not.
  std::vector<double> round_rss_mb;

  static double Ms(int64_t start_ns, int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  void AddInstall(int64_t start_ns, int64_t end_ns) {
    install_ms.push_back(Ms(start_ns, end_ns));
  }
  void AddFirstPage(int64_t start_ns, int64_t end_ns) {
    first_page_ms.push_back(Ms(start_ns, end_ns));
  }
  void AddPage(int64_t start_ns, int64_t end_ns) {
    page_ms.push_back(Ms(start_ns, end_ns));
  }
  /// Appends \p o's page latencies (one Loop per client thread).
  void MergeLatencies(const Loop& o);
  /// Closes a round that ran \p secs: answers and queries become the
  /// clients' running totals, and the round's rates and resident set
  /// are recorded.
  void EndRound(const std::vector<Loop>& clients, double secs);
};

/// Every end-to-end metric, in BENCHMARK.json order.
Metrics EndToEnd(const Loop& loop);
/// The p90 latencies, kept in the run record only: on a host whose
/// thread wake-up tail swings from 0.1 to 0.6 ms between runs they do
/// not repeat well enough to gate on.
Metrics LatencyTails(const Loop& loop);

/// Engine counters summed over every engine a run created.
struct EngineTotals {
  uint64_t hits = 0, misses = 0, evictions = 0, waits = 0;
  uint64_t plans_upgraded = 0, sessions_upgraded = 0, sessions_retired = 0;
  uint64_t tier_simple = 0, tier_single_word = 0, tier_general = 0;
  double max_cache_mb = 0;
  std::vector<double> first_answer_us;
  void Add(const dsw::QueryEngine& engine);
};

/// Sizes and work of one plan replayed stage by stage.
struct PlanRecord {
  std::string text;
  uint32_t s = 0, t = 0;
  uint32_t states = 0;
  int32_t lambda = -1;
  uint64_t pairs = 0, slots = 0, candidates = 0;
  uint64_t ann_bytes = 0, trim_bytes = 0, queue_bytes = 0;
  double annotate_ms = 0, trim_ms = 0, queues_ms = 0;
  uint64_t answers = 0;
  double ops_per_answer = 0;
};

struct ReplayOut {
  std::vector<PlanRecord> plans;
  std::vector<double> next_ns;  // per page: time per answer
  uint64_t ops = 0;
  uint64_t answers = 0;
};

/// The traced run's replay of cold requests through the public stage
/// functions — ParseRegex, CompileRegex, ClassifyQuery, Annotate,
/// TrimmedIndex, ResumableIndex over the prebuilt TrimmedIndex, then a
/// ResumableEnumerator with Next per answer and SeekAfter per page —
/// each under its own span. Replayed answers go through the same checks
/// as the engine's; each request is one operation.
void ReplayStages(dsw::Database& db, const dsw::Snapshot& snap,
                  const Graph& g, const std::vector<Request>& reqs,
                  uint64_t max_answers, uint32_t page, Tracer& tracer,
                  Tally& tally, ReplayOut* out);

/// Prepares each request twice through PrepareRegex on a fresh engine
/// with one worker; the first call must miss the plan cache and the
/// second must hit it (read back from EngineStats), giving the spans
/// engine.prepare_miss and engine.prepare_hit.
void ProbePrepare(dsw::Database& db, const dsw::Snapshot& snap,
                  const std::vector<Request>& reqs, Tracer& tracer);

/// Plans kept beside the engine's so each install's repair can be
/// replayed through DeltaAnnotate and DeltaTrim under spans.
class DeltaReplayer {
 public:
  DeltaReplayer(dsw::Database& db, const dsw::Snapshot& snap,
                const std::vector<Request>& reqs);
  /// Repairs every plan from its snapshot to \p next, a later frozen
  /// generation of the same database.
  void Repair(const dsw::Snapshot& next, Tracer& tracer, uint64_t request);

 private:
  struct Plan {
    dsw::Nfa nfa;
    uint32_t s, t;
    dsw::Annotation ann;
    std::optional<dsw::TrimmedIndex> trimmed;
  };
  std::vector<Plan> plans_;
  uint64_t generation_;
};

/// Every per-layer metric, in BENCHMARK.json order.
Metrics LayerMetrics(const Tracer& tracer, const ReplayOut& replay,
                     const EngineTotals& totals);

/// JSON array of the replayed plans' sizes and work counts.
std::string PlansJson(const ReplayOut& replay);

/// What a workload hands back to main.
struct Outcome {
  Loop loop;
  EngineTotals totals;
  ReplayOut replay;
  Json inputs;
};

Outcome RunInteractive(const Options& opt, Tally& tally, Tracer& tracer);
Outcome RunExport(const Options& opt, Tally& tally, Tracer& tracer);
Outcome RunUpdate(const Options& opt, Tally& tally, Tracer& tracer);

/// The process's current resident set (0 where /proc/self/statm is
/// missing).
double ResidentMb();
/// The host's core count (nproc).
uint32_t HostThreads();
/// Client threads beside \p others engine-worker and writer threads: up
/// to \p want, so that all of them fit in nproc, and at least one. When
/// even one does not fit, warns on stderr that the run oversubscribes
/// the host (README.md lists each workload's minimum nproc).
uint32_t ClientThreads(uint32_t others, uint32_t want);

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_
