// Clocks, the counting global allocator, statistics, span tracing and
// digests for the benchmark binary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstddef>
#include <cstdlib>
#include <ctime>
#include <new>

#include "bench.hpp"

namespace vwb {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Per-thread so the counting stays a plain increment; the benchmark runs
// one thread.
thread_local u64 t_alloc_calls = 0;
thread_local u64 t_alloc_bytes = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  ++t_alloc_calls;
  t_alloc_bytes += n;
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  return p;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }
i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AllocCount alloc_count() { return {t_alloc_calls, t_alloc_bytes}; }

// --- statistics ----------------------------------------------------------------

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double rel_spread(const std::vector<double>& v) {
  const double m = median(v);
  return m == 0 ? 0.0 : (percentile(v, 75) - percentile(v, 25)) / m;
}

int tail_percentile(std::size_t n, std::size_t beyond) {
  int best = 50;
  for (int p = 51; p <= 99; ++p) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - rank >= static_cast<double>(beyond)) best = p;
  }
  return best;
}

// --- span tracing ----------------------------------------------------------------

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kRound: return "round";
    case SpanId::kRunUntil: return "sim.Simulator::run_until";
    case SpanId::kScenarioRun: return "api.ScenarioRunner::run";
    case SpanId::kDrain: return "chaos.drain";
    case SpanId::kTrialReplica: return "chaos.trial_replica";
    case SpanId::kCampaignRun: return "chaos.Campaign::run";
    case SpanId::kRunSchedule: return "chaos.Campaign::run_schedule";
    case SpanId::kTestbedBuild: return "api.testbed_build";
    case SpanId::kTeardown: return "api.teardown";
    case SpanId::kCheckScriptLint: return "fsl.check_script(lint)";
    case SpanId::kCheckScript: return "fsl.check_script";
    case SpanId::kVerify: return "fsl.mc::verify_tables";
    case SpanId::kArm: return "control.Controller::arm";
    case SpanId::kReport: return "obs.make_report.to_jsonl";
    case SpanId::kChainTx: return "host.chain_tx";
    case SpanId::kStackRx: return "host.stack_rx";
    case SpanId::kCampaignBuild: return "chaos.Campaign()";
    case SpanId::kScheduleFor: return "chaos.Campaign::schedule_for";
    case SpanId::kCount: break;
  }
  return "?";
}

bool is_mixed_span(SpanId id) {
  switch (id) {
    case SpanId::kRound:
    case SpanId::kRunUntil:
    case SpanId::kScenarioRun:
    case SpanId::kDrain:
    case SpanId::kTrialReplica:
    case SpanId::kCampaignRun:
    case SpanId::kRunSchedule:
      return true;
    default:
      return false;
  }
}

void Tracer::open(SpanId id) {
  int stored = -1;
  const i64 t = now_ns();
  if (spans_.size() < kMaxStored) {
    stored = static_cast<int>(spans_.size());
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->stored >= 0) {
        parent = it->stored;
        break;
      }
    }
    spans_.push_back({id, t, 0, 0, parent});
  } else {
    ++unstored_;
  }
  stack_.push_back({id, t, 0, stored});
}

void Tracer::close() {
  const i64 t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const i64 dur = t - f.start;
  const i64 self = dur - f.child;
  Total& tot = totals_[static_cast<int>(f.id)];
  ++tot.count;
  tot.ns += dur;
  tot.self_ns += self;
  if (!stack_.empty()) stack_.back().child += dur;
  if (f.stored >= 0) {
    spans_[f.stored].end = t;
    spans_[f.stored].self = self;
  }
  // Attribution: charge mixed-span self time to every enclosing root kind.
  if (is_mixed_span(f.id)) {
    bool seen[static_cast<int>(SpanId::kCount)]{};
    seen[static_cast<int>(f.id)] = true;
    mixed_ns_[static_cast<int>(f.id)] += self;
    for (const Frame& up : stack_) {
      const int k = static_cast<int>(up.id);
      if (!seen[k]) mixed_ns_[k] += self;
      seen[k] = true;
    }
  }
  root_ns_[static_cast<int>(f.id)] += dur;
}

double Tracer::mean_ms(SpanId id) const {
  const Total& t = total(id);
  return t.count == 0 ? 0.0 : static_cast<double>(t.ns) * 1e-6 / t.count;
}

double Tracer::mean_self_ns(SpanId id) const {
  const Total& t = total(id);
  return t.count == 0 ? 0.0 : static_cast<double>(t.self_ns) / t.count;
}

double Tracer::unattributed_share(SpanId root) const {
  const int k = static_cast<int>(root);
  return root_ns_[k] == 0 ? 0.0
                          : static_cast<double>(mixed_ns_[k]) / root_ns_[k];
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const i64 base = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", span_name(s.id), (s.start - base) * 1e-3,
                 (s.end - s.start) * 1e-3, i, s.parent, s.self * 1e-3);
  }
  std::fprintf(f, "],\"otherData\":{\"unstored_spans\":%llu}}\n",
               static_cast<unsigned long long>(unstored_));
  return std::fclose(f) == 0;
}

// --- digests -------------------------------------------------------------------

void Digest::add(u64 v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view s) {
  add(static_cast<u64>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
}

}  // namespace vwb

// --- counting global allocator ----------------------------------------------------
// Replaces every allocating form of operator new in this binary, so the
// VirtualWire libraries linked into it are counted too.

void* operator new(std::size_t n) {
  if (void* p = vwb::counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return vwb::counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return vwb::counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = vwb::counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return vwb::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return vwb::counted_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
