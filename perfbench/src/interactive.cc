// Workload `interactive`: fresh regex queries with random endpoints,
// cold preprocessing dominating. Clients draw pool items by Zipf
// popularity, send PrepareRegex, then fetch a first page and sometimes
// a second one — a closed loop, each client waiting for its reply.
//
// The data has three parts: a deep layered region where sources (layer
// 0) reach targets (deeper layers) over many parallel, differently
// labelled edges, so trimming the answer DAG dominates; a dead region
// reachable from the sources that never reaches a target, which the
// product BFS must flood; and labels l4/l5 that occur only in the dead
// region, so two of the eight pattern classes have no answer at all.
//
// Every round draws a request trace of its own from the seed and the
// round number: which popularity rank each client requests, in which
// order, which requests read a second page, and which pool item each
// rank names (a bijection of the pool drawn per round). A run of a
// hundred rounds thus samples thousands of requests spread over the
// pool and every pattern class at the head of the Zipf distribution,
// so its medians describe the workload rather than a few items the
// seed picked; the seed picks the graph, each pool item's labels and
// endpoints, and the traces.
//
// The engine keeps every plan it ever handed out alive (its query and
// session tables only grow), so every round of 32 requests per client
// starts from a set-up of its own (database, engine, install), which
// keeps memory bounded and spreads the set-up samples over the run; the
// plan cache starts cold each round.
#include <memory>
#include <optional>
#include <thread>

#include "check.h"
#include "harness.h"

namespace pb {
namespace {

constexpr uint32_t kLayers = 24;
constexpr uint32_t kWidth = 1536;
constexpr uint32_t kDead = 16384;
constexpr uint32_t kLabels = 6;  // l0-l3 everywhere, l4-l5 dead region only
constexpr uint32_t kPool = 1024;
constexpr double kZipfS = 1.0;
constexpr uint32_t kPage = 64;
constexpr uint32_t kRequestsPerRound = 32;  // per client

uint32_t Vertex(uint32_t layer, uint32_t i) { return layer * kWidth + i; }
constexpr uint32_t kDeadFirst = kLayers * kWidth;

Graph MakeGraph(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 11);
  Graph g;
  g.num_labels = kLabels;
  g.num_vertices = kDeadFirst + kDead;
  auto dead = [&] { return kDeadFirst + static_cast<uint32_t>(rng() % kDead); };
  auto add = [&](uint32_t a, uint32_t b) {
    const uint32_t l = static_cast<uint32_t>(rng() % 4);
    g.edges.push_back({a, l, b});
    if (rng() % 4 == 0)  // a parallel edge with another label
      g.edges.push_back({a, (l + 1 + static_cast<uint32_t>(rng() % 3)) % 4, b});
  };
  for (uint32_t k = 0; k + 1 < kLayers; ++k)
    for (uint32_t i = 0; i < kWidth; ++i) {
      add(Vertex(k, i), Vertex(k + 1, i));
      add(Vertex(k, i), Vertex(k + 1, static_cast<uint32_t>(rng() % kWidth)));
      add(Vertex(k, i), Vertex(k + 1, static_cast<uint32_t>(rng() % kWidth)));
      if (k == 0 || rng() % 20 == 0)
        g.edges.push_back({Vertex(k, i), static_cast<uint32_t>(rng() % kLabels),
                           dead()});
    }
  for (uint32_t d = 0; d < kDead; ++d)
    for (int j = 0; j < 3; ++j)
      g.edges.push_back({kDeadFirst + d, static_cast<uint32_t>(rng() % kLabels),
                         dead()});
  return g;
}

// Pool item i has pattern class i % 8; the seed picks labels and
// endpoints.
Request MakePoolItem(uint32_t i, uint64_t seed) {
  std::mt19937_64 rng(seed * 0xbf58476d1ce4e5b9ull + i);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
  std::vector<uint32_t> deep = {0, 1, 2, 3};
  std::shuffle(deep.begin(), deep.end(), rng);
  const std::vector<uint32_t> three(deep.begin(), deep.begin() + 3);
  const std::vector<uint32_t> all4 = {0, 1, 2, 3};
  const uint32_t x = pick(4), y = pick(4);
  Pat pat;
  switch (i % 8) {
    case 0:
      pat = Cat({Star(AnyOf(three)), Atom(x), Star(AnyOf(all4))});
      break;
    case 1:
      pat = Plus(AnyOf(three));
      break;
    case 2:
      pat = Cat({Atom(x), Star(AnyOf(three)), Atom(y), Star(AnyOf(all4))});
      break;
    case 3:
      pat = Cat({Star(AnyOf(all4)), Atom(x), Atom(y)});
      break;
    case 4:
      pat = Cat({Star(Cat({AnyOf({deep[0], deep[1]}), AnyOf({deep[2], deep[3]})})),
                 Opt(AnyOf({deep[0], deep[1]}))});
      break;
    case 5:  // no answer: l5 occurs only in the dead region
      pat = Cat({Star(AnyOf({0, 1, 2, 3, 4, 5})), Atom(5), Star(AnyOf(all4))});
      break;
    case 6:  // no answer: a first l4 edge leads into the dead region
      pat = Cat({Atom(4), Star(AnyOf(three))});
      break;
    default:
      pat = Cat({Star(AnyOf(three)), Atom(x), Star(AnyOf(three)), Atom(x),
                 Star(AnyOf(three))});
      break;
  }
  const uint32_t s = Vertex(0, pick(kWidth));
  const uint32_t t = Vertex(kLayers - 8 + pick(8), pick(kWidth));
  return MakeRequest(std::move(pat), s, t);
}

struct Response {
  uint32_t item = 0;
  std::vector<dsw::PumpResult> pages;
};

// Checks each round's replies after the round's timing ends, on the
// main thread (checker threads would add malloc arenas of their own to
// the peak resident set), so only one round of replies is ever held. The
// oracle's lambda and its exact count (needed once a session runs dry)
// are kept per pool item across rounds; automaton and word matcher live
// for one round.
class Verifier {
 public:
  Verifier(const Graph& g, const std::vector<Request>& pool)
      : g_(g), pool_(pool), csr_(g, g.edges.size()), items_(pool.size()) {}

  /// Checks each client's \p responses; returns how many were to
  /// queries with no answer.
  size_t Check(const std::vector<std::vector<Response>>& responses,
               Tally& tally) {
    std::vector<std::vector<const Response*>> by_item(pool_.size());
    for (const std::vector<Response>& rs : responses)
      for (const Response& r : rs) by_item[r.item].push_back(&r);
    size_t no_answer = 0;
    for (uint32_t i = 0; i < pool_.size(); ++i)
      if (!by_item[i].empty() && CheckItem(i, by_item[i], tally) < 0)
        no_answer += by_item[i].size();
    return no_answer;
  }

 private:
  struct Item {
    std::optional<int32_t> lambda;
    std::optional<uint64_t> count;
  };

  int32_t CheckItem(uint32_t i, const std::vector<const Response*>& replies,
                    Tally& tally) {
    const Request& q = pool_[i];
    Item& it = items_[i];
    const OracleNfa nfa = Glushkov(q.pat, g_.num_labels);
    if (!it.lambda) it.lambda = OracleLambda(csr_, nfa, q.s, q.t);
    const int32_t lambda = *it.lambda;
    WordMatcher matcher(RegexText(q.pat));
    for (const Response* r : replies) {
      SessionCheck check(g_, q.s, q.t, &matcher);
      std::string why;
      for (const dsw::PumpResult& p : r->pages) {
        if (why.empty()) why = check.Page(p.walks, lambda, g_.edges.size());
        if (why.empty() && p.status == dsw::PumpStatus::kOk &&
            p.walks.size() != kPage)
          why = "a page that is not exhausted is not full";
        if (why.empty() && p.status != dsw::PumpStatus::kOk &&
            p.status != dsw::PumpStatus::kExhausted)
          why = "unexpected pump status";
      }
      if (why.empty()) {
        if (r->pages.back().status == dsw::PumpStatus::kExhausted) {
          if (!it.count) it.count = OracleCount(csr_, nfa, q.s, q.t, lambda);
          why = check.Finish(*it.count, *it.count);
        } else {
          why = check.Finish(0, kCountCap);
        }
      }
      if (!why.empty()) tally.Fail("interactive '" + q.text + "': " + why);
    }
    return lambda;
  }

  const Graph& g_;
  const std::vector<Request>& pool_;
  const Csr csr_;
  std::vector<Item> items_;
};

}  // namespace

Outcome RunInteractive(const Options& opt, Tally& tally, Tracer& tracer) {
  const Graph g = MakeGraph(opt.seed);
  std::vector<Request> pool;
  pool.reserve(kPool);
  for (uint32_t i = 0; i < kPool; ++i) pool.push_back(MakePoolItem(i, opt.seed));
  const uint32_t workers = 1;
  const uint32_t clients = ClientThreads(workers, 2);

  Outcome out;
  Loop& loop = out.loop;
  std::unique_ptr<dsw::Database> db;
  dsw::Snapshot snap;
  const Zipf zipf(kPool, kZipfS);
  std::vector<std::vector<Response>> responses(clients);
  std::vector<Loop> client_loops(clients);
  Verifier verifier(g, pool);
  size_t replies = 0, no_answer = 0;
  for (uint64_t round = 0;; ++round) {
    // Set-up: load the database, freeze it, start an engine, install.
    snap = dsw::Snapshot();
    db.reset();
    const int64_t s0 = NowNs();
    db = BuildDatabase(g, g.edges.size());
    const int64_t s1 = NowNs();
    {
      Scope span(tracer, "database.freeze", Tracer::kNone, 0);
      snap = db->Freeze();
    }
    auto engine = std::make_unique<dsw::QueryEngine>(
        dsw::EngineOptions{.num_threads = workers});
    engine->InstallSnapshot(snap);
    const int64_t s2 = NowNs();
    loop.setup_s.push_back(static_cast<double>(s2 - s0) / 1e9);
    loop.AddInstall(s1, s2);

    // Rank r names pool item (r * mul + add) mod kPool, a bijection
    // since kPool is a power of two and mul is odd.
    std::mt19937_64 round_rng(opt.seed * 0xd6e8feb86659fd93ull + round);
    const uint64_t mul = round_rng() | 1, add = round_rng();
    const int64_t r0 = NowNs();
    auto client = [&](uint32_t c) {
      Loop& cl = client_loops[c];
      std::mt19937_64 trace(opt.seed * 0x94d049bb133111ebull +
                            (round << 8) + c);
      for (uint32_t k = 0; k < kRequestsPerRound; ++k) {
        const uint64_t request = (uint64_t{c} << 48) | (round << 16) | k;
        Response resp;
        resp.item = static_cast<uint32_t>((zipf(trace) * mul + add) % kPool);
        const Request& q = pool[resp.item];
        const bool second_page = trace() % 4 == 0;
        tally.Attempt();
        Scope root(tracer, "request", Tracer::kNone, request);
        const int64_t t0 = NowNs();
        dsw::PrepareRegexResult prepared;
        {
          Scope span(tracer, "engine.prepare", root.id(), request);
          prepared = engine->PrepareRegex(q.text, db->mutable_dict(), q.s, q.t);
        }
        if (!prepared.ok) {
          tally.Fail("interactive: pattern rejected: " + prepared.error);
          continue;
        }
        const dsw::SessionId session = engine->OpenSession(prepared.id);
        for (int p = 0; p < (second_page ? 2 : 1); ++p) {
          const int64_t p0 = NowNs();
          dsw::PumpResult page;
          {
            Scope span(tracer, "engine.pump", root.id(), request);
            page = engine->PumpAsync(session, kPage).get();
          }
          const int64_t p1 = NowNs();
          cl.AddPage(p0, p1);
          if (p == 0) cl.AddFirstPage(t0, p1);
          cl.answers += page.walks.size();
          const bool more = page.status == dsw::PumpStatus::kOk;
          resp.pages.push_back(std::move(page));
          if (!more) break;
        }
        ++cl.queries;
        responses[c].push_back(std::move(resp));
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    loop.EndRound(client_loops, static_cast<double>(NowNs() - r0) / 1e9);
    out.totals.Add(*engine);
    engine.reset();
    no_answer += verifier.Check(responses, tally);
    for (std::vector<Response>& rs : responses) {
      replies += rs.size();
      rs.clear();
    }
    if (loop.active_s >= opt.seconds) break;
  }
  for (const Loop& cl : client_loops) loop.MergeLatencies(cl);

  if (tracer.enabled()) {
    // Replay the 40 most popular items (every pattern class five times).
    std::vector<Request> sample(pool.begin(), pool.begin() + 40);
    ReplayStages(*db, snap, g, sample, 4 * kPage, kPage, tracer, tally,
                 &out.replay);
    ProbePrepare(*db, snap, sample, tracer);
  }

  out.inputs.Num("vertices", g.num_vertices)
      .Num("edges", static_cast<double>(g.edges.size()))
      .Num("labels", g.num_labels)
      .Num("workers", workers)
      .Num("clients", clients)
      .Num("deep_layers", kLayers)
      .Num("deep_width", kWidth)
      .Num("dead_vertices", kDead)
      .Num("pool", kPool)
      .Num("zipf_s", kZipfS)
      .Num("page", kPage)
      .Num("second_page_share", 0.25)
      .Num("no_answer_class_share", 0.25)
      .Num("no_answer_share_measured",
           static_cast<double>(no_answer) / static_cast<double>(replies))
      .Num("requests_per_round", kRequestsPerRound * clients);
  return out;
}

}  // namespace pb
