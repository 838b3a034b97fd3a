// vwbench — the repo benchmark's binary (run it through run.py).
//
//   vwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>]
//
// Untraced (--trace 0): repeats rounds of the workload for <s> seconds of
// process CPU time and reports the end-to-end metrics over the rounds.
// Traced (--trace 1): untraced and traced rounds alternate for <s> seconds
// with the same seed; reports the per-layer metrics, the tracing overhead
// (traced minus untraced, per end-to-end metric) and the share of traced
// time no layer span covers, and writes the spans as a Chrome trace.
//
// Human-readable lines go to stdout; the last line is one JSON object that
// run.py checks against the stored digests and turns into the result line.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace vwb {
namespace {

struct Args {
  std::string workload;
  u64 seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--trace-out") a.trace_out = v;
      else return false;
    }
  } catch (const std::exception&) {  // std::stoull/stod: not a number
    return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/// Why this build must not be timed, or empty when it may.
std::string build_problem() {
  std::string why;
#if !defined(__OPTIMIZE__)
  why = "unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why = "sanitizer build";
#endif
#endif
  if (std::strstr(VWB_CXX_FLAGS, "-fsanitize") != nullptr) why = "sanitizer build";
  return why;
}

/// Peak resident set of this process image.  (getrusage's ru_maxrss also
/// counts the parent's footprint inherited across fork and exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Pass {
  std::vector<Round> rounds;
  double rss_mb{0};
};

/// Runs rounds for `seconds` of process CPU time, and at least `min_rounds`
/// of each kind.  With `trace`, untraced and traced rounds alternate, so
/// both see the same state of a shared host; `plain.rss_mb` is then the
/// peak before the first traced round.
void run_rounds(Workload& w, Tracer& tracer, double seconds, bool trace,
                std::size_t min_rounds, Pass& plain, Pass& traced) {
  const double c0 = process_cpu_s();
  for (std::size_t i = 0;; ++i) {
    const bool more = plain.rounds.size() < min_rounds ||
                      (trace && traced.rounds.size() < min_rounds) ||
                      process_cpu_s() - c0 < seconds;
    if (!more) break;
    const bool on = trace && i % 2 == 1;
    Pass& p = on ? traced : plain;
    tracer.set_on(on);
    p.rounds.push_back(w.round());
    tracer.set_on(false);
    if (traced.rounds.empty()) plain.rss_mb = peak_rss_mb();
    if (!p.rounds.back().problems.empty()) break;  // outputs are wrong
  }
  traced.rss_mb = peak_rss_mb();
}

struct Metric {
  const char* name;
  const char* unit;
  double value{0};
  double wall{0};       ///< the same figure on the wall clock
  std::string samples;
  bool guarded{true};   ///< listed in BENCHMARK.json
};

/// Contention from other tenants of a shared host only ever slows work
/// down, and on a noisy host fewer than a quarter of the samples may run
/// unslowed, so timed figures rest on this percentile of their samples.
/// Of the statistics compared in perfbench/README.md it spread least across
/// seeds on three of the four workloads.
constexpr double kFastPercentile = 10;

/// The end-to-end metrics of one pass.  Every round simulates exactly the
/// same work, so rounds differ only in host noise.  Each piece's CPU time
/// is its kFastPercentile over the rounds; the rates divide a round's work
/// by the sum of those, and the per-op percentiles are taken over them.
/// setup_s is the kFastPercentile of all set-up samples.  `spread` gets
/// the relative spread of the samples behind each figure.
std::vector<Metric> end_to_end(const Pass& p, int& tail_p,
                               std::vector<double>& spread) {
  const Round& first = p.rounds.front();
  const std::size_t pieces = first.piece_cpu_s.size();
  tail_p = tail_percentile(pieces);
  double ops = 0, frames = 0, cpu_q = 0, wall_q = 0;
  std::vector<double> op_ms;
  for (std::size_t k = 0; k < pieces; ++k) {
    ops += first.piece_ops[k];
    frames += first.piece_frames[k];
    std::vector<double> xs, ws;
    for (const Round& r : p.rounds) {
      if (k < r.piece_cpu_s.size()) xs.push_back(r.piece_cpu_s[k]);
      if (k < r.piece_wall_s.size()) ws.push_back(r.piece_wall_s[k]);
    }
    const double q = percentile(xs, kFastPercentile);
    cpu_q += q;
    wall_q += percentile(ws, kFastPercentile);
    if (first.piece_ops[k] > 0) op_ms.push_back(q * 1e3 / first.piece_ops[k]);
  }
  std::vector<double> setup, setup_w, cpu;
  for (const Round& r : p.rounds) {
    setup.insert(setup.end(), r.setup_cpu_s.begin(), r.setup_cpu_s.end());
    setup_w.insert(setup_w.end(), r.setup_wall_s.begin(), r.setup_wall_s.end());
    double c = 0;
    for (double x : r.piece_cpu_s) c += x;
    cpu.push_back(c);
  }
  const std::string rounds = std::to_string(p.rounds.size()) + " rounds";
  const std::string samples = rounds + " x " + std::to_string(pieces) + " pieces";
  const double cpu_spread = rel_spread(cpu);
  spread = {rel_spread(setup), cpu_spread, cpu_spread, cpu_spread, cpu_spread, 0};
  return {
      {"setup_s", "s", percentile(setup, kFastPercentile),
       percentile(setup_w, kFastPercentile),
       std::to_string(setup.size()) + " set-ups"},
      {"frames_per_cpu_s", "frames/CPU-s", ratio(frames, cpu_q),
       ratio(frames, wall_q), rounds},
      {"ops_per_cpu_s", "ops/CPU-s", ratio(ops, cpu_q), ratio(ops, wall_q),
       rounds},
      {"op_cpu_ms.p50", "ms", median(op_ms), 0, samples, false},
      {"op_cpu_ms.tail", "ms", percentile(op_ms, tail_p), 0, samples, false},
      {"peak_rss_mb", "MB", p.rss_mb, 0, "1 process"},
  };
}

void print_metrics(const char* label, const std::vector<Metric>& ms,
                   const Workload& w, int tail_p) {
  for (const Metric& m : ms) {
    std::printf("%-8s %-18s %14.6g %-13s n=%s", label, m.name, m.value,
                m.unit, m.samples.c_str());
    if (m.wall != 0) std::printf("  (wall-clock %.6g)", m.wall);
    if (std::strcmp(m.name, "ops_per_cpu_s") == 0) {
      std::printf("  = %s [%s]", w.ops_name(), w.ops_unit());
    }
    if (std::strncmp(m.name, "op_cpu_ms.", 10) == 0 &&
        std::strcmp(w.ops_name(), "trials_per_cpu_s") == 0) {
      std::printf("  = trial_cpu_ms.%s", m.name + 10);
    }
    if (std::strcmp(m.name, "op_cpu_ms.tail") == 0) std::printf("  (p%d)", tail_p);
    std::printf("\n");
  }
}

/// Every per-layer metric BENCHMARK.json names; a workload that does not
/// exercise a layer reports 0 for it.
const char* const kLayerNames[] = {
    "sim.events_per_frame", "sim.peak_pending", "sim.queue_ns_per_event",
    "alloc.per_frame", "alloc.bytes_per_frame", "phy.bytes_per_frame",
    "host.chain_tx_ns", "host.stack_rx_ns", "engine.pkts_per_frame",
    "engine.tuples_per_pkt", "engine.classify_ns", "engine.actions_per_pkt",
    "obs.provenance_per_pkt", "rll.acks_per_data", "rll.retransmits",
    "tcp.segments_per_frame", "tcp.retransmits", "fsl.compile_ms",
    "fsl.lint_ms", "fsl.verify_ms", "fsl.verify_states",
    "api.testbed_build_ms", "api.teardown_ms", "control.arm_ms",
    "chaos.schedule_ms", "obs.report_ms", "obs.report_kb_per_trial",
    "alloc.per_trial", "trace.records_per_frame", "trace.bytes_per_frame",
    "obs.flight_events_per_frame", "rether.token_sends_per_trial",
    "rether.regenerations_per_trial", "chaos.run_schedule_ms",
    "chaos.violating_trials", "chaos.setup_share", "bench.unattributed_share",
};

const char* layer_unit(const std::string& name) {
  auto ends = [&name](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_ns") || ends("_ns_per_event")) return "ns";
  if (ends("_ms")) return "ms";
  if (ends("_share")) return "share";
  if (ends("_kb_per_trial")) return "KB";
  return "count";
}

void print_spans(const Tracer& t) {
  std::printf("# spans (traced rounds and replays): name, calls, total ms, self ms, mean us\n");
  for (int i = 0; i < static_cast<int>(SpanId::kCount); ++i) {
    const SpanId id = static_cast<SpanId>(i);
    const Tracer::Total& s = t.total(id);
    if (s.count == 0) continue;
    std::printf("#   %-32s %9llu %11.3f %11.3f %11.3f%s\n", span_name(id),
                static_cast<unsigned long long>(s.count), s.ns * 1e-6,
                s.self_ns * 1e-6, s.ns * 1e-3 / s.count,
                is_mixed_span(id) ? "  (mixed)" : "");
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace vwb

int main(int argc, char** argv) {
  using namespace vwb;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vwbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  if (const std::string why = build_problem(); !why.empty()) {
    std::fprintf(stderr, "vwbench: refusing to time this build: %s (flags:%s)\n",
                 why.c_str(), VWB_CXX_FLAGS);
    return 3;
  }
  Tracer tracer;
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, tracer);
  if (!w) {
    std::fprintf(stderr, "vwbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("# vwbench %s seed=%llu seconds=%g trace=%d build=%s "
              "compiler=\"%s\" flags=\"%s\"\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, VWB_BUILD_TYPE, VWB_COMPILER,
              VWB_CXX_FLAGS);

  std::vector<std::string> problems;
  Pass plain, traced;
  run_rounds(*w, tracer, args.seconds, args.trace, args.trace ? 2 : 5, plain,
             traced);
  if (plain.rounds.front().problems.empty()) w->check_once(plain.rounds.front());
  int tail_p = 50;
  std::vector<double> spread;
  const std::vector<Metric> e2e = end_to_end(plain, tail_p, spread);
  print_metrics("e2e", e2e, *w, tail_p);

  LayerMetrics layers;
  if (!traced.rounds.empty()) {  // empty when the first round failed
    int traced_tail_p = 50;
    std::vector<double> traced_spread;
    const std::vector<Metric> e2e_t = end_to_end(traced, traced_tail_p, traced_spread);
    print_metrics("traced", e2e_t, *w, traced_tail_p);
    Overheads overhead;
    tracer.set_on(true);
    w->layer_metrics(layers, overhead, problems);
    tracer.set_on(false);
    // Whatever the workload did not measure itself comes from the
    // alternating rounds; peak RSS always covers the whole traced process.
    overhead["peak_rss_mb"] = {peak_rss_mb() - plain.rss_mb, 0, 0};
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const double d = e2e_t[i].value - e2e[i].value;
      overhead.emplace(e2e[i].name, Overhead{d, ratio(d, e2e[i].value), spread[i]});
    }
    std::printf("# tracing overhead: traced minus untraced; unresolved where "
                "its share is within the spread of the untraced samples\n");
    for (const Metric& m : e2e) {
      const Overhead& o = overhead.at(m.name);
      std::printf("overhead %-18s %14.6g %-13s (%+.1f%%, spread %.1f%%)%s\n",
                  m.name, o.diff, m.unit, o.share * 100, o.spread * 100,
                  std::abs(o.share) < o.spread ? "  unresolved" : "");
      if (m.guarded) layers[std::string("overhead.") + m.name] = o.diff;
    }
    print_spans(tracer);
    if (!args.trace_out.empty()) {
      if (tracer.write_chrome(args.trace_out)) {
        std::printf("# wrote %zu spans (%llu more counted, not stored) to %s\n",
                    tracer.stored(),
                    static_cast<unsigned long long>(tracer.unstored()),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "vwbench: cannot write %s\n", args.trace_out.c_str());
      }
    }
  }

  // Correctness: every round's own checks, the replays, and determinism —
  // every round (traced or not) must simulate exactly the same outputs.
  u64 attempted = 0, failed = 0;
  const u64 digest = plain.rounds.front().digest;
  bool deterministic = true;
  for (const Pass* p : {&plain, &traced}) {
    for (const Round& r : p->rounds) {
      attempted += r.attempted;
      if (!r.problems.empty()) failed += r.attempted;
      for (const std::string& s : r.problems) problems.push_back(s);
      deterministic = deterministic && r.digest == digest;
    }
  }
  if (!deterministic) {
    problems.push_back("round digests differ: the run is not deterministic");
  }
  if (!problems.empty()) failed = attempted;
  for (const std::string& s : problems) std::printf("# CHECK FAILED: %s\n", s.c_str());
  std::printf("# fail_ratio %llu/%llu  digest %016llx\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(digest));

  std::string metrics;
  auto add = [&metrics](const std::string& name, double v, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics += (metrics.empty() ? "" : ", ") + json_str(name) +
               ": {\"value\": " + buf + ", \"unit\": " + json_str(unit) + "}";
  };
  if (!args.trace) {
    for (const Metric& m : e2e) {
      if (m.guarded) add(m.name, m.value, m.unit);
    }
  } else {
    for (const char* n : kLayerNames) layers.emplace(n, 0.0);
    std::printf("# per-layer metrics\n");
    for (const auto& [name, v] : layers) {
      const char* unit = name.rfind("overhead.", 0) == 0
                             ? std::find_if(e2e.begin(), e2e.end(),
                                            [&](const Metric& m) {
                                              return name.substr(9) == m.name;
                                            })->unit
                             : layer_unit(name);
      std::printf("layer    %-32s %14.6g %s\n", name.c_str(), v, unit);
      add(name, v, unit);
    }
  }
  std::string probs;
  for (const std::string& s : problems) probs += (probs.empty() ? "" : ", ") + json_str(s);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}, \"digest\": \"%016llx\", \"problems\": [%s], "
              "\"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s}\n",
              problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str(),
              static_cast<unsigned long long>(digest), probs.c_str(),
              json_str(VWB_BUILD_TYPE).c_str(), json_str(VWB_CXX_FLAGS).c_str(),
              json_str(VWB_COMPILER).c_str());
  return 0;
}
