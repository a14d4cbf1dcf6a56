// Workload `export`: a few heavy queries, prepared during set-up and
// warm in the plan cache, drained to exhaustion by many sessions in
// pages of mixed size (a fixed cycle of three sizes). Enumeration dominates; annotate and trim run only
// at set-up, so a preprocessing change should leave this workload flat.
//
// The queries cover the three execution tiers, and every answer count
// has a closed form the oracle is checked against at start-up:
//   simple       single-label 6x36 grid, the deterministic "40 steps"
//                pattern: C(40, 5) = 658008 lattice paths;
//   single-word  a 17-bubble chain under a nondeterministic staircase
//                (C(34, 2) runs per walk): 2^17 walks; and a 4x9 grid
//                whose every edge is doubled with labels l0 and l1,
//                under ((l0|l1)(l0|l1)?)+ (Fibonacci-many runs per
//                walk): C(11, 3) * 2^11 walks;
//   general      an 18-bubble chain under 36 chained (l0|l1) groups
//                (73 automaton states): 2^18 walks.
// Single-label data needs its own database, so two engines (one worker
// each) serve the two databases; a round drains the single-label
// database's query, then the other three, so both clients always share
// one busy worker and never wait on an idle engine's queue. Before each
// drain a client opens four preview sessions that read one page and
// leave. Bubbles past the fourth carry the same labels on both
// branches, which keeps the number of distinct label words small enough
// for std::regex to check every one of them.
#include <memory>
#include <stdexcept>
#include <thread>

#include "check.h"
#include "harness.h"

namespace pb {
namespace {

constexpr uint32_t kPages[] = {256, 1024, 4096};
constexpr uint32_t kPreviews = 4;  // one-page sessions before each drain

struct Heavy {
  int db;  // 0: single-label, 1: multi-label
  Request req;
  int32_t lambda;
  uint64_t count;  // closed form
};

// Relabels vertices by a seeded permutation and shuffles edge order, so
// each seed gets different ids and enumeration orders over the same
// shapes.
void Scramble(Graph* g, std::vector<uint32_t*> endpoints,
              std::mt19937_64& rng) {
  std::vector<uint32_t> perm(g->num_vertices);
  for (uint32_t v = 0; v < g->num_vertices; ++v) perm[v] = v;
  std::shuffle(perm.begin(), perm.end(), rng);
  for (GEdge& e : g->edges) {
    e.src = perm[e.src];
    e.dst = perm[e.dst];
  }
  for (uint32_t* v : endpoints) *v = perm[*v];
  std::shuffle(g->edges.begin(), g->edges.end(), rng);
}

void AddGrid(Graph* g, uint32_t rows, uint32_t cols,
             const std::vector<uint32_t>& labels, uint32_t* s,
             uint32_t* t) {
  const uint32_t base = g->num_vertices;
  g->num_vertices += rows * cols;
  auto id = [&](uint32_t r, uint32_t c) { return base + r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r)
    for (uint32_t c = 0; c < cols; ++c)
      for (uint32_t l : labels) {
        if (c + 1 < cols) g->edges.push_back({id(r, c), l, id(r, c + 1)});
        if (r + 1 < rows) g->edges.push_back({id(r, c), l, id(r + 1, c)});
      }
  *s = id(0, 0);
  *t = id(rows - 1, cols - 1);
}

void AddBubbles(Graph* g, uint32_t k, std::mt19937_64& rng, uint32_t* s,
                uint32_t* t) {
  uint32_t hub = g->num_vertices++;
  *s = hub;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t top = g->num_vertices++, bot = g->num_vertices++;
    const uint32_t next = g->num_vertices++;
    const uint32_t x = static_cast<uint32_t>(rng() % 2);
    const uint32_t y = static_cast<uint32_t>(rng() % 2);
    g->edges.push_back({hub, x, top});
    g->edges.push_back({top, y, next});
    g->edges.push_back({hub, i < 4 ? y : x, bot});
    g->edges.push_back({bot, i < 4 ? x : y, next});
    hub = next;
  }
  *t = hub;
}

// The rest of the database: a random graph no heavy query reaches. It
// gives set-up and installs realistic work; enumeration never sees it.
void AddNoise(Graph* g, std::mt19937_64& rng) {
  const uint32_t base = g->num_vertices, n = 32768;
  g->num_vertices += n;
  for (uint32_t i = 0; i < 3 * n; ++i)
    g->edges.push_back({base + static_cast<uint32_t>(rng() % n),
                        static_cast<uint32_t>(rng() % g->num_labels),
                        base + static_cast<uint32_t>(rng() % n)});
}

Pat Repeat(const Pat& p, uint32_t n) { return Cat(std::vector<Pat>(n, p)); }

}  // namespace

Outcome RunExport(const Options& opt, Tally& tally, Tracer& tracer) {
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 23);
  Graph graphs[2];
  graphs[0].num_labels = 1;
  graphs[1].num_labels = 2;
  uint32_t s[5], t[5];
  AddGrid(&graphs[0], 6, 36, {0}, &s[0], &t[0]);
  AddBubbles(&graphs[1], 17, rng, &s[1], &t[1]);
  AddGrid(&graphs[1], 4, 9, {0, 1}, &s[2], &t[2]);
  AddBubbles(&graphs[1], 18, rng, &s[3], &t[3]);
  AddNoise(&graphs[0], rng);
  AddNoise(&graphs[1], rng);
  Scramble(&graphs[0], {&s[0], &t[0]}, rng);
  Scramble(&graphs[1], {&s[1], &t[1], &s[2], &t[2], &s[3], &t[3]}, rng);

  const Pat any = AnyOf({0, 1});
  std::vector<Heavy> heavy = {
      {0, MakeRequest(Repeat(Atom(0), 40), s[0], t[0]), 40, Binomial(40, 5)},
      {1,
       MakeRequest(Cat({Star(any), any, Star(any), any, Star(any)}), s[1], t[1]),
       34, uint64_t{1} << 17},
      {1, MakeRequest(Plus(Cat({any, Opt(any)})), s[2], t[2]), 11,
       Binomial(11, 3) << 11},
      {1, MakeRequest(Repeat(any, 36), s[3], t[3]), 36, uint64_t{1} << 18},
  };
  for (const Heavy& h : heavy) {
    const Csr csr(graphs[h.db], graphs[h.db].edges.size());
    const OracleNfa nfa = Glushkov(h.req.pat, graphs[h.db].num_labels);
    const int32_t lambda = OracleLambda(csr, nfa, h.req.s, h.req.t);
    const uint64_t count = OracleCount(csr, nfa, h.req.s, h.req.t, lambda);
    if (lambda != h.lambda || count != h.count)
      throw std::runtime_error("export oracle disagrees with the closed form "
                               "for '" + h.req.text + "'");
  }

  const uint32_t workers = 2;  // one per engine
  const uint32_t clients = ClientThreads(workers, 2);
  Outcome out;
  Loop& loop = out.loop;
  // Set-up: load both databases, freeze them, start their engines,
  // install, and prepare the heavy queries. The first set-up serves the
  // whole run: engines started once keep the resident set the same from
  // run to run, where engines restarted every round let it drift by a
  // third. Every round is followed by one more set-up, timed
  // and then dropped, so the set-up samples span the run.
  struct Served {
    std::unique_ptr<dsw::Database> dbs[2];
    dsw::Snapshot snaps[2];
    std::unique_ptr<dsw::QueryEngine> engines[2];
  };
  auto set_up = [&](Served* sv) {
    const int64_t s0 = NowNs();
    double install_ns = 0;
    for (int d = 0; d < 2; ++d) {
      sv->dbs[d] = BuildDatabase(graphs[d], graphs[d].edges.size());
      const int64_t f0 = NowNs();
      {
        Scope span(tracer, "database.freeze", Tracer::kNone, 0);
        sv->snaps[d] = sv->dbs[d]->Freeze();
      }
      sv->engines[d] = std::make_unique<dsw::QueryEngine>(
          dsw::EngineOptions{.num_threads = 1});
      sv->engines[d]->InstallSnapshot(sv->snaps[d]);
      install_ns += static_cast<double>(NowNs() - f0);
    }
    for (const Heavy& h : heavy)
      sv->engines[h.db]->PrepareRegex(
          h.req.text, sv->dbs[h.db]->mutable_dict(), h.req.s, h.req.t);
    loop.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    loop.install_ms.push_back(install_ns / 1e6);
  };
  Served served;
  set_up(&served);
  auto& dbs = served.dbs;
  auto& snaps = served.snaps;
  auto& engines = served.engines;

  // A round: every client drains every heavy query once, database by
  // database, each client starting at a different query.
  std::vector<Loop> client_loops(clients);
  std::vector<uint64_t> drain_pages(clients, 0);
  std::vector<std::vector<std::unique_ptr<WordMatcher>>> matchers(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    for (const Heavy& h : heavy)
      matchers[c].push_back(std::make_unique<WordMatcher>(RegexText(h.req.pat)));
  }
  for (uint64_t round = 0;; ++round) {
    std::vector<size_t> phase;  // the heavy queries of one database
    auto client = [&](uint32_t c) {
      Loop& cl = client_loops[c];
      uint64_t request = (uint64_t{c} << 48) | (round << 8) | (phase[0] << 4);
      for (size_t k = 0; k < phase.size(); ++k) {
        const size_t qi = phase[(k + c) % phase.size()];
        const Heavy& h = heavy[qi];
        dsw::QueryEngine& engine = *engines[h.db];
        // kPreviews sessions read one page and leave, as a client looking
        // at an export before running it; the last one drains.
        for (uint32_t s = 0; s <= kPreviews; ++s) {
          const bool drain = s == kPreviews;
          ++request;
          Scope root(tracer, "request", Tracer::kNone, request);
          const int64_t t0 = NowNs();
          dsw::PrepareRegexResult prepared;
          {
            Scope span(tracer, "engine.prepare", root.id(), request);
            prepared = engine.PrepareRegex(h.req.text, dbs[h.db]->mutable_dict(),
                                           h.req.s, h.req.t);
          }
          const dsw::SessionId session = engine.OpenSession(prepared.id);
          SessionCheck check(graphs[h.db], h.req.s, h.req.t,
                             matchers[c][qi].get());
          std::string why;
          for (bool first = true;; first = false) {
            // Drain pages cycle through the sizes, so each makes up a
            // third of them in every run and the median page stays in
            // the middle size.
            const uint32_t size =
                drain ? kPages[(drain_pages[c]++ + c) % 3] : kPages[0];
            tally.Attempt();
            const int64_t p0 = NowNs();
            dsw::PumpResult page;
            {
              Scope span(tracer, "engine.pump", root.id(), request);
              page = engine.PumpAsync(session, size).get();
            }
            const int64_t p1 = NowNs();
            cl.AddPage(p0, p1);
            if (first) cl.AddFirstPage(t0, p1);
            cl.answers += page.walks.size();
            std::string page_why =
                check.Page(page.walks, h.lambda, graphs[h.db].edges.size());
            if (page_why.empty() && page.status == dsw::PumpStatus::kOk &&
                page.walks.size() != size)
              page_why = "a page that is not exhausted is not full";
            if (page_why.empty() && page.status != dsw::PumpStatus::kOk &&
                page.status != dsw::PumpStatus::kExhausted)
              page_why = "unexpected pump status";
            if (!page_why.empty()) {
              tally.Fail("export '" + h.req.text + "': " + page_why);
              why = page_why;
            }
            if (page.status != dsw::PumpStatus::kOk || !drain) break;
          }
          if (!drain) continue;
          // The drain as a whole is one more operation: distinct answers,
          // exactly the closed-form count.
          tally.Attempt();
          if (why.empty()) why = check.Finish(h.count, h.count);
          else why.clear();  // already counted against its page
          if (!why.empty()) tally.Fail("export '" + h.req.text + "': " + why);
          ++cl.queries;
        }
      }
    };
    const int64_t r0 = NowNs();
    for (int d = 0; d < 2; ++d) {
      phase.clear();
      for (size_t i = 0; i < heavy.size(); ++i)
        if (heavy[i].db == d) phase.push_back(i);
      std::vector<std::thread> threads;
      for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
      for (std::thread& th : threads) th.join();
    }
    loop.EndRound(client_loops, static_cast<double>(NowNs() - r0) / 1e9);
    Served dropped;
    set_up(&dropped);
    if (loop.active_s >= opt.seconds) break;
  }
  for (const Loop& cl : client_loops) loop.MergeLatencies(cl);
  for (int d = 0; d < 2; ++d) out.totals.Add(*engines[d]);
  for (int d = 0; d < 2; ++d) engines[d].reset();

  if (tracer.enabled()) {
    // The heavy queries, plus one with no answer (endpoints in two
    // different components).
    std::vector<Request> multi;
    for (const Heavy& h : heavy)
      if (h.db == 1) multi.push_back(h.req);
    multi.push_back(MakeRequest(heavy[1].req.pat, s[1], t[3]));
    ReplayStages(*dbs[0], snaps[0], graphs[0], {heavy[0].req}, 50000, 256,
                 tracer, tally, &out.replay);
    ReplayStages(*dbs[1], snaps[1], graphs[1], multi, 50000, 256, tracer,
                 tally, &out.replay);
    ProbePrepare(*dbs[0], snaps[0], {heavy[0].req}, tracer);
    ProbePrepare(*dbs[1], snaps[1], multi, tracer);
  }

  out.inputs.Num("vertices", graphs[0].num_vertices + graphs[1].num_vertices)
      .Num("edges",
           static_cast<double>(graphs[0].edges.size() + graphs[1].edges.size()))
      .Num("labels", 2)
      .Num("workers", workers)
      .Num("clients", clients)
      .Num("single_label_db_edges", static_cast<double>(graphs[0].edges.size()))
      .Num("multi_label_db_edges", static_cast<double>(graphs[1].edges.size()))
      .Raw("heavy_answer_counts", "[658008, 131072, 337920, 262144]")
      .Raw("page_sizes", "[256, 1024, 4096]");
  return out;
}

}  // namespace pb
