// Workload `update`: readers page continuously through sessions on a hot
// set of prepared queries (their plans fit the plan cache), each reader
// making one cold prepare per snapshot, while a writer appends batches of
// 0.1% of the edges and freezes and installs each one at a fixed
// cadence. Most batches keep lambda, so parked sessions survive the
// install through delta repair; two batches per round add an edge that
// skips a layer inside one hot query's cone, shortening its lambda, so
// that query's parked sessions retire and are reopened.
//
// The engine's contract is that the database changes only while no
// Prepare or Pump runs, so readers hold a shared gate around each engine
// call and the writer holds it exclusively from the first AddEdge to the
// end of InstallSnapshot; page latency includes any wait at the gate.
//
// Data: a lattice of 24 layers x 2048 vertices on a ring; every vertex
// has a straight and a diagonal edge to the next layer, so a hot query's
// answer count is a binomial coefficient filtered by its pattern, the
// same for every seed until inserts add parallel edges. In the first
// five layers a move's label says which move it is (l0 straight, l1
// diagonal); deeper layers label both moves by layer parity. Patterns
// therefore select on the first moves, and a query's walks share at
// most 32 label words, each checked once under std::regex.
//
// Each round starts from a set-up of its own, the base data with a fresh
// engine (installs grow the database, and the engine keeps every plan a
// session ever used), runs 8 installs 100 ms apart, then stops the
// readers.
#include <memory>
#include <thread>

#include "check.h"
#include "harness.h"

namespace pb {
namespace {

constexpr uint32_t kLayers = 24;
constexpr uint32_t kWidth = 2048;
constexpr uint32_t kHot = 8;
constexpr uint32_t kCold = 16;
constexpr uint32_t kBatches = 8;
constexpr int64_t kCadenceNs = 100'000'000;
// One page size: with two sizes drawn half and half, the median page
// would sit between their two latency modes and jump with the draw.
constexpr uint32_t kPage = 1024;

uint32_t Vertex(uint32_t layer, uint32_t j) {
  return layer * kWidth + j % kWidth;
}

Pat Shape(uint32_t kind) {
  const Pat any = AnyOf({0, 1});
  switch (kind % 4) {
    case 0:
      return Star(any);
    case 1:
      return Cat({Star(Atom(0)), Atom(1), Star(any)});
    case 2:  // two diagonal moves in a row somewhere
      return Cat({Star(any), Atom(1), Atom(1), Star(any)});
    default:  // never two diagonal moves in a row
      return Cat({Star(Alt({Atom(0), Cat({Atom(1), Atom(0)})})), Opt(Atom(1))});
  }
}

struct Inputs {
  Graph g;
  size_t base_edges = 0;
  std::vector<size_t> edges_at;  // generation -> edge count
  std::vector<Request> items;    // kHot hot, then kCold cold
};

Inputs MakeInputs(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 37);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
  Inputs in;
  Graph& g = in.g;
  g.num_labels = 2;
  g.num_vertices = kLayers * kWidth;
  auto move = [&](uint32_t k, uint32_t j, uint32_t diag) {
    g.edges.push_back({Vertex(k, j), k < 5 ? diag : k % 2,
                       Vertex(k + 1, j + diag)});
  };
  for (uint32_t k = 0; k + 1 < kLayers; ++k)
    for (uint32_t j = 0; j < kWidth; ++j)
      for (uint32_t diag = 0; diag < 2; ++diag) move(k, j, diag);
  in.base_edges = g.edges.size();

  struct Cone {
    uint32_t j0, k1, d;
  };
  std::vector<Cone> cones;
  for (uint32_t h = 0; h < kHot; ++h) {
    const Cone c{pick(kWidth), 18 + h % 3, 6 + (h / 2) % 3};
    cones.push_back(c);
    in.items.push_back(
        MakeRequest(Shape(h), Vertex(0, c.j0), Vertex(c.k1, c.j0 + c.d)));
  }
  for (uint32_t c = 0; c < kCold; ++c) {
    const uint32_t k0 = pick(4), j0 = pick(kWidth);
    in.items.push_back(MakeRequest(Shape(pick(4)), Vertex(k0, j0),
                                   Vertex(k0 + 8 + pick(5), j0 + 2 + pick(4))));
  }

  in.edges_at.push_back(g.edges.size());
  const size_t batch = in.base_edges / 1000;
  for (uint32_t b = 0; b < kBatches; ++b) {
    // One parallel edge mid-cone of hot query b, which adds the same
    // share of answers for every seed; the rest land anywhere.
    const Cone& mid = cones[b % kHot];
    move(mid.k1 / 2, mid.j0 + mid.d / 2, 0);
    for (size_t e = 1; e < batch; ++e)
      move(pick(kLayers - 1), pick(kWidth), pick(2));
    if (b == 2 || b == 5) {
      // Skips a layer inside the cone of hot query 0 or 4 (pattern
      // (l0|l1)*), shortening its lambda by one.
      const Cone& c = cones[b == 2 ? 0 : 4];
      g.edges.push_back({Vertex(2, c.j0), 1, Vertex(4, c.j0 + 1)});
    }
    in.edges_at.push_back(g.edges.size());
  }
  return in;
}

}  // namespace

Outcome RunUpdate(const Options& opt, Tally& tally, Tracer& tracer) {
  const Inputs in = MakeInputs(opt.seed);
  const Graph& g = in.g;
  const size_t num_items = in.items.size();
  const size_t gens = in.edges_at.size();
  // Oracle tables per (item, generation), computed before any timing.
  std::vector<std::vector<int32_t>> lam(num_items, std::vector<int32_t>(gens));
  std::vector<std::vector<uint64_t>> cnt(num_items, std::vector<uint64_t>(gens));
  {
    std::vector<OracleNfa> nfas;
    for (const Request& q : in.items) nfas.push_back(Glushkov(q.pat, g.num_labels));
    for (size_t gen = 0; gen < gens; ++gen) {
      const Csr csr(g, in.edges_at[gen]);
      for (size_t i = 0; i < num_items; ++i) {
        const Request& q = in.items[i];
        lam[i][gen] = OracleLambda(csr, nfas[i], q.s, q.t);
        cnt[i][gen] = OracleCount(csr, nfas[i], q.s, q.t, lam[i][gen]);
      }
    }
  }
  const std::vector<Request> hot(in.items.begin(), in.items.begin() + kHot);

  const uint32_t workers = 1;
  const uint32_t readers = ClientThreads(workers + 1, 2);
  Outcome out;
  Loop& loop = out.loop;
  std::vector<Loop> reader_loops(readers);
  std::vector<std::vector<std::unique_ptr<WordMatcher>>> matchers(readers);
  for (uint32_t r = 0; r < readers; ++r) {
    for (const Request& q : in.items)
      matchers[r].push_back(std::make_unique<WordMatcher>(RegexText(q.pat)));
  }
  std::vector<uint64_t> sessions_opened(readers, 0);
  std::vector<uint64_t> cold_opened(readers, 0);
  uint64_t retired_pages = 0;
  std::mutex retired_mu;
  for (uint64_t round = 0;; ++round) {
    // Set-up: load the base data, freeze it, start an engine, install,
    // and prepare the hot queries.
    const int64_t s0 = NowNs();
    std::unique_ptr<dsw::Database> db = BuildDatabase(g, in.base_edges);
    dsw::Snapshot base_snap;
    {
      Scope span(tracer, "database.freeze", Tracer::kNone, 0);
      base_snap = db->Freeze();
    }
    auto engine = std::make_unique<dsw::QueryEngine>(
        dsw::EngineOptions{.num_threads = workers});
    engine->InstallSnapshot(base_snap);
    for (const Request& q : hot)
      engine->PrepareRegex(q.text, db->mutable_dict(), q.s, q.t);
    loop.setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    std::optional<DeltaReplayer> replayer;
    if (tracer.enabled()) replayer.emplace(*db, base_snap, hot);

    RwGate gate;
    std::atomic<size_t> gen{0};
    std::atomic<bool> stop{false};
    const int64_t r0 = NowNs();
    auto reader = [&](uint32_t r) {
      Loop& rl = reader_loops[r];
      size_t reopen = SIZE_MAX;       // a retired session's query
      size_t cold_gen = SIZE_MAX;     // snapshot of the last cold prepare
      uint64_t request = (uint64_t{r} << 48) | (round << 24);
      while (!stop.load()) {
        size_t item;
        if (reopen != SIZE_MAX) {
          item = reopen;
          reopen = SIZE_MAX;
        } else if (gen.load() != cold_gen) {
          cold_gen = gen.load();
          item = kHot + (cold_opened[r]++ + r * 5) % kCold;
        } else {
          item = (sessions_opened[r]++ + r * 3) % kHot;
        }
        const bool cold = item >= kHot;
        const Request& q = in.items[item];
        SessionCheck check(g, q.s, q.t, matchers[r][item].get());
        ++request;
        Scope root(tracer, "request", Tracer::kNone, request);
        std::string why;
        size_t g_first = 0, g_last = 0;
        dsw::SessionId session = 0;
        dsw::PumpStatus status = dsw::PumpStatus::kOk;
        for (bool first = true; !stop.load() || first; first = false) {
          const uint32_t size = kPage;
          tally.Attempt();
          const int64_t p0 = NowNs();
          gate.LockShared();
          const size_t gnow = gen.load();
          if (first) {
            dsw::PrepareRegexResult prepared;
            {
              Scope span(tracer, "engine.prepare", root.id(), request);
              prepared = engine->PrepareRegex(q.text, db->mutable_dict(), q.s, q.t);
            }
            session = engine->OpenSession(prepared.id);
            g_first = gnow;
          }
          const int64_t p1 = NowNs();
          dsw::PumpResult page;
          {
            Scope span(tracer, "engine.pump", root.id(), request);
            page = engine->PumpAsync(session, size).get();
          }
          gate.UnlockShared();
          const int64_t p2 = NowNs();
          status = page.status;
          if (status == dsw::PumpStatus::kRetired && !first) {
            std::lock_guard<std::mutex> lock(retired_mu);
            ++retired_pages;
            reopen = item;
            break;
          }
          rl.AddPage(first ? p1 : p0, p2);
          if (first) rl.AddFirstPage(p0, p2);
          rl.answers += page.walks.size();
          std::string page_why =
              check.Page(page.walks, lam[item][gnow], in.edges_at[gnow]);
          if (page_why.empty() && status == dsw::PumpStatus::kOk &&
              page.walks.size() != size)
            page_why = "a page that is not exhausted is not full";
          if (page_why.empty() && status != dsw::PumpStatus::kOk &&
              status != dsw::PumpStatus::kExhausted)
            page_why = "unexpected pump status";
          if (!page_why.empty()) {
            tally.Fail("update '" + q.text + "': " + page_why);
            why = page_why;
          }
          g_last = gnow;
          if (status != dsw::PumpStatus::kOk || cold) break;
        }
        if (status != dsw::PumpStatus::kExhausted) continue;
        // A finished session is one more operation. Across installs that
        // kept lambda, every answer of the opening snapshot must arrive
        // and none beyond the closing snapshot's answers.
        tally.Attempt();
        if (why.empty()) {
          why = lam[item][g_first] == lam[item][g_last]
                    ? check.Finish(cnt[item][g_first], cnt[item][g_last])
                    : "session survived a change of lambda";
          if (!why.empty()) tally.Fail("update '" + q.text + "': " + why);
        }
        ++rl.queries;
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t r = 0; r < readers; ++r) threads.emplace_back(reader, r);
    for (uint32_t b = 0; b < kBatches; ++b) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(r0 + (b + 1) * kCadenceNs)));
      gate.Lock();
      for (size_t e = in.edges_at[b]; e < in.edges_at[b + 1]; ++e)
        db->AddEdge(g.edges[e].src, g.edges[e].label, g.edges[e].dst);
      const int64_t t0 = NowNs();
      dsw::Snapshot snap;
      {
        Scope span(tracer, "database.freeze", Tracer::kNone, 0);
        snap = db->Freeze();
      }
      {
        Scope span(tracer, "engine.install", Tracer::kNone, 0);
        engine->InstallSnapshot(snap);
      }
      const int64_t t1 = NowNs();
      gen.store(b + 1);
      gate.Unlock();
      loop.AddInstall(t0, t1);
      if (replayer) replayer->Repair(snap, tracer, (uint64_t{7} << 56) | b);
    }
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(r0 + (kBatches + 1) * kCadenceNs)));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    loop.EndRound(reader_loops, static_cast<double>(NowNs() - r0) / 1e9);
    out.totals.Add(*engine);
    replayer.reset();
    engine.reset();
    if (loop.active_s >= opt.seconds) break;
  }
  for (const Loop& rl : reader_loops) loop.MergeLatencies(rl);

  if (tracer.enabled()) {
    std::unique_ptr<dsw::Database> base_db = BuildDatabase(g, in.base_edges);
    const dsw::Snapshot base_snap = base_db->Freeze();
    std::vector<Request> sample = hot;
    for (uint32_t c = 0; c < 4; ++c) sample.push_back(in.items[kHot + c]);
    // No answer: the target lies in an earlier layer than the source.
    sample.push_back(MakeRequest(Shape(0), Vertex(5, 7), Vertex(2, 7)));
    ReplayStages(*base_db, base_snap, g, sample, 4096, 256, tracer, tally,
                 &out.replay);
    ProbePrepare(*base_db, base_snap, sample, tracer);
  }

  out.inputs.Num("vertices", g.num_vertices)
      .Num("edges", static_cast<double>(in.base_edges))
      .Num("labels", g.num_labels)
      .Num("workers", workers)
      .Num("clients", readers + 1)
      .Num("readers", readers)
      .Num("writers", 1)
      .Num("hot_queries", kHot)
      .Num("cold_queries", kCold)
      .Num("cold_prepares_per_snapshot_per_reader", 1)
      .Num("batch_edges", static_cast<double>(in.edges_at[1] - in.edges_at[0]))
      .Num("batches_per_round", kBatches)
      .Num("cadence_ms", static_cast<double>(kCadenceNs) / 1e6)
      .Raw("lambda_shortening_batches", "[2, 5]")
      .Num("page", kPage)
      .Num("retired_pages", static_cast<double>(retired_pages));
  return out;
}

}  // namespace pb
