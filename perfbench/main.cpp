// perfbench_xbench: the measuring half of the repo benchmark (run.py builds
// it, runs it and reduces its samples to metrics).
//
//   perfbench_xbench prepare --workload W --seed N --dir D
//       writes the workload's generated Bookshelf inputs under D
//   perfbench_xbench measure --workload W --seed N --dir D --seconds S
//                    --trace 0|1 --out result.json
//       runs the workload on those inputs and writes raw samples as JSON
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>

#include "attribution.h"
#include "io/generator.h"

namespace perfbench {

using namespace xplace;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

db::Database demo_design(std::size_t cells, std::uint64_t seed) {
  io::GeneratorSpec spec;
  spec.name = "demo";
  spec.num_cells = cells;
  spec.num_nets = cells + cells / 20;
  spec.seed = seed;
  return io::generate(spec);
}

void write_spans(Json& j, const SpanLog& log) {
  j.begin_array();
  for (const Span& s : log.spans()) {
    j.begin_object()
        .field("name", s.name)
        .field("start_s", s.start_s)
        .field("end_s", s.end_s)
        .field("parent", s.parent)
        .field("request", s.request)
        .end_object();
  }
  j.end_array();
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_xbench prepare|measure --workload W --seed N "
               "--dir D [--seconds S --trace 0|1 --out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opt;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") opt.trace = std::strcmp(v, "0") != 0;
    else if (k == "--dir") opt.dir = v;
    else if (k == "--out") out = v;
    else return usage();
  }
  if (opt.workload.empty() || opt.dir.empty()) return usage();
  const bool serve = opt.workload == "serve_mix";
  xplace::log::set_level(xplace::log::Level::kWarn);
  try {
    if (mode == "prepare") {
      serve ? prepare_serve(opt) : prepare_flow(opt);
      return 0;
    }
    if (mode != "measure" || out.empty()) return usage();
    Json j;
    j.begin_object()
        .field("workload", opt.workload)
        .field("seed", static_cast<std::uint64_t>(opt.seed))
        .field("trace", opt.trace);
    serve ? measure_serve(opt, j) : measure_flow(opt, j);
    j.end_object();
    std::ofstream f(out);
    f << j.str() << "\n";
    if (!f) {
      std::fprintf(stderr, "perfbench_xbench: cannot write %s\n", out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_xbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
