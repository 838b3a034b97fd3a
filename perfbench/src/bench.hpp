// Shared pieces of the repo benchmark binary: clocks, allocation counters,
// span tracing, digests, and the per-round record every workload returns.
//
// Everything here observes VirtualWire from the outside: spans wrap calls
// into public APIs, counts come from public stats, and allocations are
// counted by the replacement operator new in support.cpp (compiled into the
// benchmark binary only).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace vwb {

using u64 = std::uint64_t;
using i64 = std::int64_t;

// --- clocks ------------------------------------------------------------------

double process_cpu_s();  ///< CPU time of the whole process
double thread_cpu_s();   ///< CPU time of the calling thread
double wall_s();         ///< steady clock, seconds
i64 now_ns();            ///< steady clock, nanoseconds (span timestamps)

// --- allocation counters (support.cpp) -----------------------------------------

struct AllocCount {
  u64 calls{0};
  u64 bytes{0};
};
/// Allocations made by the calling thread since it started.
AllocCount alloc_count();

// --- statistics ----------------------------------------------------------------

/// a / b, or 0 when b is 0.
double ratio(double a, double b);
double median(std::vector<double> v);
/// Percentile (nearest rank on the sorted samples), p in [0, 100].
double percentile(std::vector<double> v, double p);
/// Interquartile range over median: the relative spread of a sample.
double rel_spread(const std::vector<double>& v);
/// The highest whole percentile that leaves at least `beyond` samples above
/// it; 50 when the sample is too small to support a higher one.
int tail_percentile(std::size_t n, std::size_t beyond = 10);

// --- span tracing ----------------------------------------------------------------

/// Every span the benchmark records.  Mixed spans wrap calls that cover
/// several layers (a whole simulation run, a whole trial); their self time is
/// the part of the traced run no layer span explains.
enum class SpanId : int {
  kRound,            // mixed: one measured round
  kRunUntil,         // mixed: sim::Simulator::run_until
  kScenarioRun,      // mixed: ScenarioRunner::run inside a trial replica
  kDrain,            // mixed: post-run conservation drain of a replica
  kTrialReplica,     // mixed: one chaos trial re-run from public pieces
  kCampaignRun,      // mixed: chaos::Campaign::run
  kRunSchedule,      // mixed: chaos::Campaign::run_schedule
  kTestbedBuild,     // api
  kTeardown,         // api
  kCheckScriptLint,  // fsl: check_script with lint
  kCheckScript,      // fsl: check_script, compile only
  kVerify,           // fsl: mc::verify_tables
  kArm,              // control: Controller::arm
  kReport,           // obs: make_report(...).to_jsonl()
  kChainTx,          // host: probe send_down (engine, agent, RLL, NIC)
  kStackRx,          // host: probe receive_up (IP, transport, app)
  kCampaignBuild,    // chaos: Campaign construction
  kScheduleFor,      // chaos: Campaign::schedule_for
  kCount
};
const char* span_name(SpanId id);
bool is_mixed_span(SpanId id);

class Tracer {
 public:
  struct Span {
    SpanId id;
    i64 start{0}, end{0}, self{0};
    int parent{-1};
  };
  struct Total {
    u64 count{0};
    i64 ns{0};
    i64 self_ns{0};
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void open(SpanId id);
  void close();

  const Total& total(SpanId id) const { return totals_[static_cast<int>(id)]; }
  double mean_ms(SpanId id) const;
  double mean_self_ns(SpanId id) const;

  /// Share of the time under `root` spans that only mixed spans cover.
  double unattributed_share(SpanId root) const;
  std::size_t stored() const { return spans_.size(); }
  u64 unstored() const { return unstored_; }
  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  struct Frame {
    SpanId id;
    i64 start;
    i64 child;
    int stored;
  };
  static constexpr std::size_t kMaxStored = 200000;

  bool on_{false};
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  Total totals_[static_cast<int>(SpanId::kCount)]{};
  u64 unstored_{0};
  // Mixed-span self time and root time under each root id, for attribution.
  i64 root_ns_[static_cast<int>(SpanId::kCount)]{};
  i64 mixed_ns_[static_cast<int>(SpanId::kCount)]{};
};

/// RAII span: records only while the tracer is on.
class Scope {
 public:
  Scope(Tracer& t, SpanId id) : t_(t.on() ? &t : nullptr) {
    if (t_) t_->open(id);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// --- digests -------------------------------------------------------------------

/// FNV-1a over the simulated outputs a round produced.
class Digest {
 public:
  void add(u64 v);
  void add(std::string_view s);
  u64 value() const { return h_; }

 private:
  u64 h_{0xcbf29ce484222325ULL};
};

// --- workloads -----------------------------------------------------------------

/// One measured round: set-up, then the timed phase.  Times are CPU time of
/// the process (the benchmark runs one thread); wall time rides beside them.
struct Round {
  /// Set-up samples: one per round on the testbed workloads; on chaos, where
  /// one set-up takes tens of nanoseconds, several batched samples.
  std::vector<double> setup_cpu_s, setup_wall_s;
  /// The timed phase cut into pieces (slices of simulated time, or trials):
  /// the CPU and wall seconds, ops (goodput megabytes, or trials) and
  /// medium frames of each.  Pieces and their ops and frames are the same in
  /// every round.
  std::vector<double> piece_cpu_s, piece_wall_s, piece_ops, piece_frames;
  u64 attempted{0};    ///< operations whose output was checked
  std::vector<std::string> problems;  ///< failed output checks
  u64 digest{0};       ///< simulated outputs; identical every round
};

/// Per-layer metrics of a traced run, by name.
using LayerMetrics = std::map<std::string, double>;

/// Tracing overhead of one end-to-end metric: traced minus untraced, that
/// difference as a share of the untraced value, and the relative spread
/// (interquartile range over median) of the untraced samples it was
/// measured against.  An overhead whose share is below the spread is
/// unresolved.
struct Overhead {
  double diff{0}, share{0}, spread{0};
};
using Overheads = std::map<std::string, Overhead>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one round; with the tracer on, spans and layer counts are kept.
  virtual Round round() = 0;
  /// Output checks too costly for every round (run once per process).
  virtual void check_once(Round& r) { (void)r; }
  /// Per-layer metrics from the traced rounds plus replays of public calls;
  /// replays that contradict the traced rounds add to `problems`.  A
  /// workload whose traced rounds do not carry the instrumentation may
  /// measure overheads itself; main() fills in the rest from the rounds.
  virtual void layer_metrics(LayerMetrics& out, Overheads& overhead,
                             std::vector<std::string>& problems) = 0;
  /// Names of the workload's own end-to-end figures, for the report.
  virtual const char* ops_name() const = 0;
  virtual const char* ops_unit() const = 0;
};

std::unique_ptr<Workload> make_workload(std::string_view name, u64 seed,
                                        Tracer& tracer);

}  // namespace vwb
