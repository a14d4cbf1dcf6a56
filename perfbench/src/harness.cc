#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <unistd.h>

#include "automaton/frontend.h"
#include "check.h"
#include "core/delta_annotate.h"
#include "core/query_traits.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "regex/regex_parser.h"

namespace pb {

Request MakeRequest(Pat pat, uint32_t s, uint32_t t) {
  Request r;
  r.text = EngineText(pat);
  r.pat = std::move(pat);
  r.s = s;
  r.t = t;
  return r;
}

uint32_t HostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint32_t ClientThreads(uint32_t others, uint32_t want) {
  const uint32_t nproc = HostThreads();
  if (others + 1 > nproc)
    std::fprintf(stderr,
                 "perfbench: %u threads on %u cores; this workload needs "
                 "nproc >= %u to run without oversubscription\n",
                 others + 1, nproc, others + 1);
  return std::min(want, nproc > others ? nproc - others : 1u);
}

// ------------------------------------------------------------------ JSON

std::string Json::Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Json::Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key) + ": ";
}
Json& Json::Num(const std::string& key, double v) {
  Key(key);
  body_ += Number(v);
  return *this;
}
Json& Json::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += Quote(v);
  return *this;
}
Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

// ------------------------------------------------------------ end to end

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

void Loop::MergeLatencies(const Loop& o) {
  first_page_ms.insert(first_page_ms.end(), o.first_page_ms.begin(),
                       o.first_page_ms.end());
  page_ms.insert(page_ms.end(), o.page_ms.begin(), o.page_ms.end());
}

void Loop::EndRound(const std::vector<Loop>& clients, double secs) {
  uint64_t a = 0, q = 0;
  for (const Loop& c : clients) {
    a += c.answers;
    q += c.queries;
  }
  round_answers_per_s.push_back(static_cast<double>(a - answers) / secs);
  round_queries_per_s.push_back(static_cast<double>(q - queries) / secs);
  answers = a;
  queries = q;
  active_s += secs;
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  round_rss_mb.push_back(ResidentMb());
}

// Rates are the median round's (see Loop), latencies the median of
// every sample.
Metrics EndToEnd(const Loop& loop) {
  return {
      {"setup_s", Quantile(loop.setup_s, 0.5), "s"},
      {"first_page_ms_p50", Quantile(loop.first_page_ms, 0.5), "ms"},
      {"queries_per_s", Quantile(loop.round_queries_per_s, 0.5), "queries/s"},
      {"answers_per_s", Quantile(loop.round_answers_per_s, 0.5), "answers/s"},
      {"page_ms_p50", Quantile(loop.page_ms, 0.5), "ms"},
      {"install_ms_p50", Quantile(loop.install_ms, 0.5), "ms"},
      {"rss_mb", Quantile(loop.round_rss_mb, 0.5), "MB"},
  };
}

Metrics LatencyTails(const Loop& loop) {
  return {
      {"first_page_ms_p90", Quantile(loop.first_page_ms, 0.9), "ms"},
      {"page_ms_p90", Quantile(loop.page_ms, 0.9), "ms"},
  };
}

void EngineTotals::Add(const dsw::QueryEngine& engine) {
  const dsw::EngineStats st = engine.Stats();
  hits += st.plan_cache.hits;
  misses += st.plan_cache.misses;
  evictions += st.plan_cache.evictions;
  waits += st.plan_cache.single_flight_waits;
  plans_upgraded += st.plans_upgraded;
  sessions_upgraded += st.sessions_upgraded;
  sessions_retired += st.sessions_retired;
  tier_simple += st.tier_simple;
  tier_single_word += st.tier_single_word;
  tier_general += st.tier_general;
  max_cache_mb = std::max(
      max_cache_mb, static_cast<double>(st.plan_cache.bytes_used) / (1 << 20));
  for (int64_t ns : engine.FirstAnswerLatenciesNs())
    first_answer_us.push_back(static_cast<double>(ns) / 1e3);
}

// ---------------------------------------------------------------- replay

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

uint64_t AnnotatedPairs(const dsw::Annotation& ann) {
  uint64_t pairs = 0;
  for (const dsw::LevelSets& lvl : ann.levels)
    for (size_t i = 0; i < lvl.size(); ++i) pairs += lvl.states(i).Count();
  return pairs;
}

// Runs ParseRegex + CompileRegex; false when the pattern is rejected.
bool Compile(dsw::Database& db, const std::string& text, dsw::Nfa* nfa) {
  dsw::RegexParseResult parsed = dsw::ParseRegex(text);
  if (!parsed.ok()) return false;
  *nfa = dsw::CompileRegex(*parsed.value(), db.mutable_dict()).nfa;
  return true;
}

}  // namespace

void ReplayStages(dsw::Database& db, const dsw::Snapshot& snap,
                  const Graph& g, const std::vector<Request>& reqs,
                  uint64_t max_answers, uint32_t page, Tracer& tracer,
                  Tally& tally, ReplayOut* out) {
  const Csr csr(g, snap.num_edges());
  uint64_t request = uint64_t{1} << 62;
  for (const Request& req : reqs) {
    ++request;
    tally.Attempt();
    Scope root(tracer, "replay", Tracer::kNone, request);
    PlanRecord rec;
    rec.text = req.text;
    rec.s = req.s;
    rec.t = req.t;

    dsw::RegexParseResult parsed;
    {
      Scope span(tracer, "regex.parse", root.id(), request);
      parsed = dsw::ParseRegex(req.text);
    }
    if (!parsed.ok()) {
      tally.Fail("replay: pattern rejected: " + parsed.error());
      continue;
    }
    dsw::CompiledRegex compiled;
    {
      Scope span(tracer, "automaton.compile", root.id(), request);
      compiled = dsw::CompileRegex(*parsed.value(), db.mutable_dict());
    }
    rec.states = compiled.nfa.num_states();
    {
      Scope span(tracer, "query_traits.classify", root.id(), request);
      (void)dsw::ClassifyQuery(snap, compiled.nfa);
    }
    dsw::Annotation ann;
    int64_t t0 = NowNs();
    {
      Scope span(tracer, "annotate", root.id(), request);
      ann = dsw::Annotate(snap, compiled.nfa, req.s, req.t);
    }
    rec.annotate_ms = MsSince(t0);
    rec.lambda = ann.lambda;
    rec.pairs = AnnotatedPairs(ann);
    rec.ann_bytes = ann.ApproxBytes();
    std::optional<dsw::TrimmedIndex> trimmed;
    t0 = NowNs();
    {
      Scope span(tracer, "trim", root.id(), request);
      trimmed.emplace(snap, ann);
    }
    rec.trim_ms = MsSince(t0);
    rec.slots = trimmed->num_slots();
    rec.trim_bytes = trimmed->ApproxBytes();
    std::optional<dsw::ResumableIndex> index;
    t0 = NowNs();
    {
      Scope span(tracer, "queues", root.id(), request);
      index.emplace(snap, ann, std::move(*trimmed));
    }
    rec.queues_ms = MsSince(t0);
    rec.queue_bytes = index->ApproxBytes() - index->trimmed().ApproxBytes();
    for (uint32_t slot = 0; slot < index->num_queues(); ++slot)
      rec.candidates += index->Queue(slot).size();

    const OracleNfa nfa = Glushkov(req.pat, g.num_labels);
    const int32_t lambda = OracleLambda(csr, nfa, req.s, req.t);
    std::string why;
    if (lambda != ann.lambda)
      why = "lambda " + std::to_string(ann.lambda) + ", oracle " +
            std::to_string(lambda);
    if (why.empty() && ann.reachable() && !index->empty()) {
      WordMatcher matcher(RegexText(req.pat));
      SessionCheck check(g, req.s, req.t, &matcher);
      std::optional<dsw::ResumableEnumerator> en;
      {
        Scope span(tracer, "enumerate.first", root.id(), request);
        en.emplace(ann, *index, req.s, req.t);
      }
      std::vector<dsw::Walk> walks;
      uint64_t total = 0;
      for (;;) {
        walks.clear();
        const int64_t p0 = NowNs();
        while (en->Valid() && walks.size() < page) {
          walks.push_back(en->walk());
          if (walks.size() < page) en->Next();
        }
        if (!walks.empty())
          out->next_ns.push_back(static_cast<double>(NowNs() - p0) /
                                 static_cast<double>(walks.size()));
        total += walks.size();
        why = check.Page(walks, lambda, snap.num_edges());
        if (!why.empty() || !en->Valid() || walks.size() < page ||
            total >= max_answers)
          break;
        Scope span(tracer, "enumerate.seek_after", root.id(), request);
        if (!en->SeekAfter(walks.back())) {
          why = "SeekAfter rejected an answer it produced";
          break;
        }
      }
      if (why.empty()) {
        const bool exhausted = !en->Valid();
        const uint64_t count =
            exhausted ? OracleCount(csr, nfa, req.s, req.t, lambda) : 0;
        why = exhausted ? check.Finish(count, count)
                        : check.Finish(0, kCountCap);
      }
      rec.answers = total;
      rec.ops_per_answer = total ? static_cast<double>(en->stats().total()) /
                                       static_cast<double>(total)
                                 : 0;
      out->ops += en->stats().total();
      out->answers += total;
    }
    if (!why.empty()) tally.Fail("replay '" + req.text + "': " + why);
    out->plans.push_back(rec);
  }
}

void ProbePrepare(dsw::Database& db, const dsw::Snapshot& snap,
                  const std::vector<Request>& reqs, Tracer& tracer) {
  dsw::QueryEngine engine(dsw::EngineOptions{.num_threads = 1});
  engine.InstallSnapshot(snap);
  uint64_t request = uint64_t{3} << 61;
  for (const Request& req : reqs) {
    ++request;
    for (int round = 0; round < 2; ++round) {
      const dsw::PlanCacheStats before = engine.Stats().plan_cache;
      const int64_t t0 = NowNs();
      engine.PrepareRegex(req.text, db.mutable_dict(), req.s, req.t);
      const int64_t t1 = NowNs();
      const dsw::PlanCacheStats after = engine.Stats().plan_cache;
      if (after.misses == before.misses + 1)
        tracer.Record("engine.prepare_miss", t0, t1, Tracer::kNone, request);
      else if (after.hits == before.hits + 1)
        tracer.Record("engine.prepare_hit", t0, t1, Tracer::kNone, request);
    }
  }
}

DeltaReplayer::DeltaReplayer(dsw::Database& db, const dsw::Snapshot& snap,
                             const std::vector<Request>& reqs)
    : generation_(snap.generation()) {
  plans_.reserve(reqs.size());
  for (const Request& req : reqs) {
    Plan p{dsw::Nfa(), req.s, req.t, dsw::Annotation(), std::nullopt};
    if (!Compile(db, req.text, &p.nfa)) continue;
    p.ann = dsw::Annotate(snap, p.nfa, p.s, p.t);
    p.trimmed.emplace(snap, p.ann);
    plans_.push_back(std::move(p));
  }
}

void DeltaReplayer::Repair(const dsw::Snapshot& next, Tracer& tracer,
                           uint64_t request) {
  const dsw::EdgeDelta delta = next.DeltaFrom(generation_);
  generation_ = next.generation();
  const dsw::DeltaContext ctx(next);
  for (Plan& p : plans_) {
    dsw::AnnotationRepair rep;
    if (delta.known) {
      Scope span(tracer, "delta.annotate", Tracer::kNone, request);
      rep = dsw::DeltaAnnotate(next, delta, &p.ann);
    }
    if (!rep.ok) {
      // Unrepairable (unknown delta or no answer before): rebuild, as
      // the engine does on its next Prepare.
      p.ann = dsw::Annotate(next, p.nfa, p.s, p.t);
      p.trimmed.emplace(next, p.ann);
      continue;
    }
    Scope span(tracer, "delta.trim", Tracer::kNone, request);
    dsw::TrimmedIndex repaired =
        dsw::DeltaTrim(next, p.ann, *p.trimmed, rep, delta, ctx);
    p.trimmed.emplace(std::move(repaired));
  }
}

// ------------------------------------------------------------ per layer

Metrics LayerMetrics(const Tracer& tracer, const ReplayOut& replay,
                     const EngineTotals& totals) {
  auto p50us = [&](const char* span) {
    return Quantile(tracer.DurationsUs(span), 0.5);
  };
  auto plan_median = [&](auto field) {
    std::vector<double> v;
    for (const PlanRecord& p : replay.plans)
      v.push_back(static_cast<double>(p.*field));
    return Quantile(v, 0.5);
  };
  std::vector<double> no_answer_ms;
  double min_queue_bytes = 0;
  for (const PlanRecord& p : replay.plans) {
    if (p.lambda < 0) no_answer_ms.push_back(p.annotate_ms);
    // Plans without answers skip the queue layout; the floor every
    // answered plan carries is the O(|V| + |E|) arrays.
    if (p.lambda >= 0 && (min_queue_bytes == 0 || p.queue_bytes < min_queue_bytes))
      min_queue_bytes = static_cast<double>(p.queue_bytes);
  }
  const double prepared =
      static_cast<double>(totals.hits + totals.misses + totals.waits);
  const double seek_us = p50us("enumerate.seek_after");
  const double first_answer_us = Quantile(totals.first_answer_us, 0.5);
  return {
      {"regex.parse_us", p50us("regex.parse"), "us"},
      {"automaton.compile_us", p50us("automaton.compile"), "us"},
      {"automaton.states", plan_median(&PlanRecord::states), "count"},
      {"query_traits.classify_us", p50us("query_traits.classify"), "us"},
      {"query_traits.tier_simple", static_cast<double>(totals.tier_simple), "count"},
      {"query_traits.tier_single_word", static_cast<double>(totals.tier_single_word), "count"},
      {"query_traits.tier_general", static_cast<double>(totals.tier_general), "count"},
      {"database.freeze_ms", p50us("database.freeze") / 1e3, "ms"},
      {"annotate.ms", p50us("annotate") / 1e3, "ms"},
      {"annotate.no_answer_ms", Quantile(no_answer_ms, 0.5), "ms"},
      {"annotate.pairs", plan_median(&PlanRecord::pairs), "count"},
      {"annotate.bytes", plan_median(&PlanRecord::ann_bytes), "bytes"},
      {"trim.ms", p50us("trim") / 1e3, "ms"},
      {"trim.slots", plan_median(&PlanRecord::slots), "count"},
      {"trim.candidates", plan_median(&PlanRecord::candidates), "count"},
      {"trim.bytes", plan_median(&PlanRecord::trim_bytes), "bytes"},
      {"queues.ms", p50us("queues") / 1e3, "ms"},
      {"queues.bytes", plan_median(&PlanRecord::queue_bytes), "bytes"},
      {"queues.min_bytes", min_queue_bytes, "bytes"},
      {"enumerate.first_answer_us", p50us("enumerate.first"), "us"},
      {"enumerate.next_ns", Quantile(replay.next_ns, 0.5), "ns"},
      {"enumerate.seek_after_us", seek_us, "us"},
      {"enumerate.ops_per_answer",
       replay.answers ? static_cast<double>(replay.ops) /
                            static_cast<double>(replay.answers)
                      : 0,
       "count"},
      {"delta.annotate_ms", p50us("delta.annotate") / 1e3, "ms"},
      {"delta.trim_ms", p50us("delta.trim") / 1e3, "ms"},
      {"delta.plans_upgraded", static_cast<double>(totals.plans_upgraded), "count"},
      {"delta.sessions_upgraded", static_cast<double>(totals.sessions_upgraded), "count"},
      {"delta.sessions_retired", static_cast<double>(totals.sessions_retired), "count"},
      {"plan_cache.hit_ratio",
       prepared > 0 ? static_cast<double>(totals.hits) / prepared : 0, "ratio"},
      {"plan_cache.evictions", static_cast<double>(totals.evictions), "count"},
      {"plan_cache.single_flight_waits", static_cast<double>(totals.waits), "count"},
      {"plan_cache.mb", totals.max_cache_mb, "MB"},
      {"engine.prepare_hit_us", p50us("engine.prepare_hit"), "us"},
      {"engine.prepare_miss_ms", p50us("engine.prepare_miss") / 1e3, "ms"},
      {"engine.pump_us", p50us("engine.pump"), "us"},
      {"engine.first_answer_us", first_answer_us, "us"},
      {"engine.queue_wait_us", first_answer_us - seek_us, "us"},
  };
}

std::string PlansJson(const ReplayOut& replay) {
  std::string out = "[";
  for (const PlanRecord& p : replay.plans) {
    if (out.size() > 1) out += ", ";
    Json j;
    j.Str("pattern", p.text)
        .Num("source", p.s)
        .Num("target", p.t)
        .Num("states", p.states)
        .Num("lambda", p.lambda)
        .Num("annotated_pairs", static_cast<double>(p.pairs))
        .Num("useful_slots", static_cast<double>(p.slots))
        .Num("candidates", static_cast<double>(p.candidates))
        .Num("annotation_bytes", static_cast<double>(p.ann_bytes))
        .Num("trimmed_bytes", static_cast<double>(p.trim_bytes))
        .Num("queue_bytes", static_cast<double>(p.queue_bytes))
        .Num("annotate_ms", p.annotate_ms)
        .Num("trim_ms", p.trim_ms)
        .Num("queues_ms", p.queues_ms)
        .Num("answers_enumerated", static_cast<double>(p.answers))
        .Num("ops_per_answer", p.ops_per_answer);
    out += j.str();
  }
  return out + "]";
}

}  // namespace pb
