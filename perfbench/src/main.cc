// perfbench: one end-to-end benchmark of the RPQ serving path.
//
//   perfbench --workload interactive|export|update --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit C] [--source-digest D]
//   perfbench --selftest
//
// Prints a record line with the host, inputs and every sample count,
// writes the same record (and, traced, the span log) under --out-dir,
// and ends stdout with the result line: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics untraced, the per-layer
// metrics traced. "correct" is false, and the exit code 1, when any
// operation failed its checks.
#include <sys/resource.h>
#include <unistd.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "check.h"
#include "harness.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string MetricsJson(const Metrics& metrics) {
  Json j;
  for (const Metric& m : metrics)
    j.Raw(m.name, Json().Num("value", m.value).Str("unit", m.unit).str());
  return j.str();
}

std::string NumberList(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) out += (out.size() > 1 ? ", " : "") + Json::Number(x);
  return out + "]";
}

void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream f(path);
  f << "id,name,start_ns,end_ns,parent,request\n";
  const std::vector<Tracer::Span> spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i)
    f << i << ',' << spans[i].name << ',' << spans[i].start_ns << ','
      << spans[i].end_ns << ',' << spans[i].parent << ',' << spans[i].request
      << '\n';
}

int Usage() {
  std::cerr << "usage: perfbench --workload interactive|export|update "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit C] [--source-digest D] | --selftest\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      selftest_only = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage();
    }
  }
  std::string selftest;
  const bool checks_ok = SelfTest(&selftest);
  if (selftest_only) {
    std::cout << selftest;
    return checks_ok ? 0 : 1;
  }
  if (!checks_ok) {
    std::cerr << "answer-check self-test failed:\n" << selftest;
    return 1;
  }
  if (!args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds"))
    return Usage();
  Options opt;
  opt.workload = args["--workload"];
  opt.seed = std::stoull(args["--seed"]);
  opt.seconds = std::stod(args["--seconds"]);
  opt.trace = args.count("--trace") && args["--trace"] == "1";
  const std::string out_dir = args.count("--out-dir") ? args["--out-dir"] : "";

  Tally tally;
  Tracer tracer(opt.trace);
  Outcome out;
  if (opt.workload == "interactive")
    out = RunInteractive(opt, tally, tracer);
  else if (opt.workload == "export")
    out = RunExport(opt, tally, tracer);
  else if (opt.workload == "update")
    out = RunUpdate(opt, tally, tracer);
  else
    return Usage();

  const Metrics e2e = EndToEnd(out.loop);
  const Metrics layers =
      opt.trace ? LayerMetrics(tracer, out.replay, out.totals) : Metrics{};
  std::string failures = "[";
  for (const std::string& why : tally.reasons())
    failures += (failures.size() > 1 ? ", " : "") + Json::Quote(why);
  failures += "]";

  Json host;
  host.Num("nproc", std::thread::hardware_concurrency())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("commit", args.count("--commit") ? args["--commit"] : "unknown")
      .Str("source_digest",
           args.count("--source-digest") ? args["--source-digest"] : "unknown");
  Json samples;
  samples.Num("set_ups", static_cast<double>(out.loop.setup_s.size()))
      .Num("first_pages", static_cast<double>(out.loop.first_page_ms.size()))
      .Num("pages", static_cast<double>(out.loop.page_ms.size()))
      .Num("installs", static_cast<double>(out.loop.install_ms.size()))
      .Num("active_s", out.loop.active_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Raw("round_queries_per_s", NumberList(out.loop.round_queries_per_s))
      .Raw("round_answers_per_s", NumberList(out.loop.round_answers_per_s))
      .Raw("round_rss_mb", NumberList(out.loop.round_rss_mb));
  Json record;
  record.Str("workload", opt.workload)
      .Num("seed", static_cast<double>(opt.seed))
      .Num("trace", opt.trace ? 1 : 0)
      .Num("seconds", opt.seconds)
      .Raw("host", host.str())
      .Raw("inputs", out.inputs.str())
      .Num("attempted", static_cast<double>(tally.attempted()))
      .Num("failed", static_cast<double>(tally.failed()))
      .Raw("failures", failures)
      .Raw("samples", samples.str())
      .Raw("end_to_end", MetricsJson(e2e))
      .Raw("latency_tails", MetricsJson(LatencyTails(out.loop)));
  if (opt.trace)
    record.Raw("per_layer", MetricsJson(layers))
        .Raw("plans", PlansJson(out.replay));
  std::cout << "record " << record.str() << "\n";

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + opt.workload + "-trace" +
                             (opt.trace ? "1" : "0") + "-seed" +
                             std::to_string(opt.seed) + "-" +
                             std::to_string(getpid());
    std::ofstream(stem + ".json") << record.str() << "\n";
    if (opt.trace) WriteSpans(tracer, stem + ".spans.csv");
  }

  Json result;
  result.Raw("correct", tally.correct() ? "true" : "false")
      .Num("attempted", static_cast<double>(tally.attempted()))
      .Num("failed", static_cast<double>(tally.failed()))
      .Raw("metrics", MetricsJson(opt.trace ? layers : e2e));
  std::cout << result.str() << std::endl;
  if (!tally.correct()) {
    std::cerr << "perfbench: " << tally.failed()
              << " operations failed their checks\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
