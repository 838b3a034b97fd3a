// The benchmark workloads.  Each round rebuilds its system from scratch
// with the same seed, so every round simulates exactly the same thing and
// yields the same digest; only host time varies between rounds.
//
//   tcp_bulk      Fig 7's topology with a light engine (per-byte work)
//   chaos_rether  a chaos campaign on the rether fixture (simulation)
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "vwire/chaos/campaign.hpp"
#include "vwire/core/api/scenario_runner.hpp"
#include "vwire/core/engine/classifier.hpp"
#include "vwire/core/fsl/compiler.hpp"
#include "vwire/core/fsl/verify.hpp"
#include "vwire/obs/report.hpp"
#include "vwire/rether/rether_layer.hpp"
#include "vwire/sim/event_queue.hpp"
#include "vwire/tcp/apps.hpp"
#include "vwire/util/rng.hpp"

namespace vwb {
namespace {

using namespace vwire;

// --- the Fig 7 configuration ---------------------------------------------------
// Kept here rather than shared with bench/ so the benchmark's workloads stay
// fixed while the figure benches evolve.

/// One filter per direction of the bulk TCP flow.
constexpr const char* kTcpFilters =
    "FILTER_TABLE\n"
    "  TCP_fwd: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
    "  TCP_rev: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)\n"
    "END\n";

/// The paper's RLL: a standalone ack for every data frame.
rll::RllParams paper_rll() {
  rll::RllParams p;
  p.piggyback = false;
  p.ack_every = 1;
  return p;
}

constexpr double kBitErrorRate = 1e-7;

// --- outside-in probes ----------------------------------------------------------

struct ProbeLog {
  std::size_t peak_pending{0};
  std::vector<Bytes> frames;  ///< sample for the classifier replay
  static constexpr std::size_t kMaxFrames = 4096;

  void note_pending(std::size_t n) { peak_pending = std::max(peak_pending, n); }
  void note_frame(const Bytes& f) {
    if (frames.size() < kMaxFrames) frames.push_back(f);
  }
};

/// Pass-through layer added with Node::add_layer, which places it directly
/// below IP: its send_down times everything below (engine, agent, RLL, NIC
/// hand-off), its receive_up everything above (IP, transport, application).
class ProbeLayer final : public host::Layer {
 public:
  ProbeLayer(Tracer& t, ProbeLog& log) : t_(t), log_(log) {}
  std::string_view name() const override { return "perfbench-probe"; }

  void send_down(net::Packet pkt) override {
    observe(pkt);
    t_.open(SpanId::kChainTx);
    pass_down(std::move(pkt));
    t_.close();
  }
  void receive_up(net::Packet pkt) override {
    observe(pkt);
    t_.open(SpanId::kStackRx);
    pass_up(std::move(pkt));
    t_.close();
  }

 private:
  void observe(const net::Packet& pkt) {
    log_.note_pending(node_->simulator().pending_events());
    log_.note_frame(pkt.bytes());
  }

  Tracer& t_;
  ProbeLog& log_;
};

void install_probes(Testbed& tb, Tracer& t, ProbeLog& log) {
  for (const std::string& n : tb.node_names()) {
    tb.node(n).add_layer(std::make_unique<ProbeLayer>(t, log));
  }
}

// --- public stats, summed over a testbed ----------------------------------------

struct Counts {
  double frames{0}, bytes{0}, events{0}, allocs{0}, alloc_bytes{0};
  double eng_seen{0}, eng_actions{0}, provenance{0};
  double rll_data{0}, rll_acks{0}, rll_retx{0};
  double flight{0}, tap_records{0}, tap_bytes{0};
  double tcp_segments{0}, tcp_retx{0};
  double token_sends{0}, regenerations{0};

  static constexpr double Counts::*kFields[] = {
      &Counts::frames,      &Counts::bytes,        &Counts::events,
      &Counts::allocs,      &Counts::alloc_bytes,  &Counts::eng_seen,
      &Counts::eng_actions, &Counts::provenance,   &Counts::rll_data,
      &Counts::rll_acks,    &Counts::rll_retx,     &Counts::flight,
      &Counts::tap_records, &Counts::tap_bytes,    &Counts::tcp_segments,
      &Counts::tcp_retx,    &Counts::token_sends,  &Counts::regenerations,
  };

  Counts& operator+=(const Counts& o) {
    for (double Counts::*f : kFields) this->*f += o.*f;
    return *this;
  }
  Counts operator+(const Counts& o) const {
    Counts r = *this;
    return r += o;
  }
  Counts operator-(const Counts& o) const {
    Counts r = *this;
    for (double Counts::*f : kFields) r.*f -= o.*f;
    return r;
  }
};

Counts counts(Testbed& tb) {
  Counts c;
  const phy::MediumStats& m = tb.medium().stats();
  c.frames = static_cast<double>(m.frames_delivered);
  c.bytes = static_cast<double>(m.bytes_delivered);
  c.events = static_cast<double>(tb.simulator().executed_events());
  const AllocCount a = alloc_count();
  c.allocs = static_cast<double>(a.calls);
  c.alloc_bytes = static_cast<double>(a.bytes);
  for (const std::string& n : tb.node_names()) {
    NodeHandles& h = tb.handles(n);
    if (h.engine != nullptr) {
      c.eng_seen += static_cast<double>(h.engine->stats().packets_seen);
      c.eng_actions += static_cast<double>(h.engine->stats().actions_executed);
      c.provenance += static_cast<double>(h.engine->provenance().total());
    }
    if (h.rll != nullptr) {
      const rll::RllStats& r = h.rll->stats();
      c.rll_data += static_cast<double>(r.data_tx);
      c.rll_acks += static_cast<double>(r.acks_tx);
      c.rll_retx += static_cast<double>(r.retransmits);
    }
    if (const obs::FlightRecorder* f = h.node->flight_recorder()) {
      c.flight += static_cast<double>(f->total());
    }
    if (auto* r = dynamic_cast<rether::RetherLayer*>(
            h.node->find_layer("rether"))) {
      c.token_sends += static_cast<double>(r->stats().token_sends);
      c.regenerations += static_cast<double>(r->stats().tokens_regenerated);
    }
  }
  c.tap_records = static_cast<double>(tb.trace().total_recorded());
  for (const trace::TraceRecord& r : tb.trace().records()) {
    c.tap_bytes += static_cast<double>(r.frame.size());
  }
  return c;
}

// --- replays of public calls at the run's own scale ------------------------------

/// core::Classifier::classify over the frames the probes saw.
void classifier_replay(const core::TableSet& tables,
                       const std::vector<Bytes>& frames, LayerMetrics& out) {
  if (frames.empty()) return;
  const core::Classifier cls(tables.filters);
  core::VarStore vars(tables.filters.var_names.size());
  u64 calls = 0, tuples = 0;
  const i64 t0 = now_ns();
  while (calls < 200000) {
    for (const Bytes& f : frames) {
      tuples += cls.classify(f, vars).tuples_compared;
      ++calls;
    }
  }
  const i64 t1 = now_ns();
  out["engine.classify_ns"] = static_cast<double>(t1 - t0) / calls;
  out["engine.tuples_per_pkt"] = static_cast<double>(tuples) / calls;
}

/// A standalone sim::EventQueue held at `depth` pending events: each event
/// reschedules itself a pseudo-random delay ahead, as protocol timers and
/// frame deliveries do.
double queue_replay_ns(std::size_t depth, u64 seed) {
  struct Hop {
    sim::EventQueue* q;
    u64* state;
    i64 at;
    void operator()() const {
      *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
      const i64 next = at + 1000 + static_cast<i64>((*state >> 33) % 1000000);
      q->schedule(TimePoint{next}, Hop{q, state, next});
    }
  };
  sim::EventQueue q;
  u64 state = seed | 1;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const i64 at = static_cast<i64>((state >> 33) % 1000000);
    q.schedule(TimePoint{at}, Hop{&q, &state, at});
  }
  constexpr int kEvents = 300000;
  const i64 t0 = now_ns();
  for (int i = 0; i < kEvents; ++i) q.pop_and_run();
  return static_cast<double>(now_ns() - t0) / kEvents;
}

/// check_script with and without lint in alternating blocks of back-to-back
/// calls: one call of either kind is within noise of the other, so only the
/// difference of the blocks prices the lint passes.
struct FslSplit {
  i64 compile_ns{0}, lint_ns{0};
  int calls{0};  ///< per kind

  void measure(Tracer& t, const std::string& script, const std::string& scenario) {
    constexpr int kBlock = 20;
    fsl::CompileOptions opts;
    opts.scenario = scenario;
    for (int i = 0; i < 4; ++i, calls += kBlock) {
      for (bool second : {false, true}) {
        opts.lint = second == (i % 2 == 0);
        const i64 t0 = now_ns();
        for (int k = 0; k < kBlock; ++k) {
          Scope s(t, opts.lint ? SpanId::kCheckScriptLint : SpanId::kCheckScript);
          fsl::check_script(script, opts);
        }
        (opts.lint ? lint_ns : compile_ns) += now_ns() - t0;
      }
    }
  }
  void report(LayerMetrics& out) const {
    out["fsl.compile_ms"] = ratio(static_cast<double>(compile_ns), calls) * 1e-6;
    out["fsl.lint_ms"] =
        std::max(0.0, ratio(static_cast<double>(lint_ns - compile_ns), calls)) * 1e-6;
  }
};

// --- tcp_bulk ------------------------------------------------------------------

constexpr int kTcpSlices = 150;  // 10 ms of simulated time each

/// One round's system: the testbed, the bulk flow and the FSL script.
class TcpRig {
 public:
  explicit TcpRig(TestbedConfig cfg) : tb_(std::move(cfg)) {
    tb_.add_node("node1");
    tb_.add_node("node2");
    tcp1_ = std::make_unique<tcp::TcpLayer>(tb_.node("node1"));
    tcp2_ = std::make_unique<tcp::TcpLayer>(tb_.node("node2"));
    sink_ = std::make_unique<tcp::BulkSink>(*tcp2_, 16384);
    tcp::BulkSender::Params sp;
    sp.dst_ip = tb_.node("node2").ip();
    sp.dst_port = 16384;
    sp.src_port = 24576;
    sp.total_bytes = 0;  // run until the testbed is torn down
    sp.offered_rate_bps = 100e6;
    sp.chunk = 16 * 1024;
    sender_ = std::make_unique<tcp::BulkSender>(*tcp1_, sp);
  }

  Testbed& testbed() { return tb_; }
  std::string script() {
    return kTcpFilters + tb_.node_table_fsl() +
           "SCENARIO bulk\n"
           "  FWD: (TCP_fwd, node1, node2, RECV)\n"
           "  (TRUE) >> ENABLE_CNTR(FWD);\n"
           "END\n";
  }
  void start() { sender_->start(); }
  /// Goodput so far, in megabytes.
  double ops_done() const {
    return static_cast<double>(sink_->bytes_received()) / 1e6;
  }

  Counts tcp_counts() {
    Counts c;
    auto add = [&c](const tcp::TcpConnection& conn) {
      const tcp::TcpStats& s = conn.stats();
      c.tcp_segments += static_cast<double>(s.segments_sent);
      c.tcp_retx += static_cast<double>(s.rto_retransmits + s.fast_retransmits +
                                        s.syn_retransmits);
    };
    tcp1_->for_each_connection(add);
    tcp2_->for_each_connection(add);
    return c;
  }

  void check(std::vector<std::string>& problems) {
    if (sink_->bytes_received() == 0 || sink_->connections_accepted() != 1) {
      problems.push_back("tcp_bulk: the transfer delivered nothing");
    }
    for (const char* n : {"node1", "node2"}) {
      if (tb_.handles(n).rll->stats().deliver_misorder != 0) {
        problems.push_back(std::string("tcp_bulk: RLL misordered at ") + n);
      }
    }
  }

  /// Simulated outputs.
  void digest(Digest& d) {
    d.add("tcp_bulk");
    d.add(sink_->bytes_received());
    const phy::MediumStats& m = tb_.medium().stats();
    d.add(m.frames_delivered);
    d.add(m.bytes_delivered);
    d.add(m.frames_dropped_error);
    auto add = [&d](const tcp::TcpConnection& conn) {
      const tcp::TcpStats& s = conn.stats();
      d.add(s.segments_sent);
      d.add(s.segments_received);
      d.add(s.bytes_received);
      d.add(s.rto_retransmits + s.fast_retransmits);
    };
    tcp1_->for_each_connection(add);
    tcp2_->for_each_connection(add);
    for (const char* n : {"node1", "node2"}) {
      d.add(tb_.handles(n).rll->stats().retransmits);
    }
  }

 private:
  Testbed tb_;
  std::unique_ptr<tcp::TcpLayer> tcp1_, tcp2_;
  std::unique_ptr<tcp::BulkSink> sink_;
  std::unique_ptr<tcp::BulkSender> sender_;
};

/// A round builds the testbed, compiles the script with lint and arms it
/// (set-up), warms up past slow start, then runs the timed slices.
class TcpBulk final : public Workload {
 public:
  TcpBulk(u64 seed, Tracer& t) : seed_(seed), t_(t) {}

  const char* ops_name() const override { return "goodput_mb_per_cpu_s"; }
  const char* ops_unit() const override { return "MB/CPU-s"; }

  Round round() override {
    Round r;
    Scope round_span(t_, SpanId::kRound);
    const double c0 = process_cpu_s(), w0 = wall_s();
    const u64 a0 = alloc_count().calls;
    std::unique_ptr<TcpRig> rig;
    {
      Scope s(t_, SpanId::kTestbedBuild);
      rig = std::make_unique<TcpRig>(config());
    }
    Testbed& tb = rig->testbed();
    if (t_.on()) install_probes(tb, t_, log_);
    const std::string script = rig->script();
    fsl::CompileResult checked;
    {
      Scope s(t_, SpanId::kCheckScriptLint);
      fsl::CompileOptions opts;
      opts.lint = true;
      checked = fsl::check_script(script, opts);
    }
    if (!checked.ok()) {
      r.problems.push_back("script fails lint");
      return r;
    }
    auto ctrl = std::make_unique<control::Controller>(
        tb.simulator(), tb.managed_nodes(), "node1");
    {
      Scope s(t_, SpanId::kArm);
      control::RunOptions opts;
      opts.heartbeat_period = {};  // no liveness beacons in the measurement
      if (!ctrl->arm(checked.tables, opts).ok) r.problems.push_back("arm failed");
    }
    r.setup_cpu_s.push_back(process_cpu_s() - c0);
    r.setup_wall_s.push_back(wall_s() - w0);
    const u64 setup_allocs = alloc_count().calls - a0;

    sim::Simulator& sim = tb.simulator();
    rig->start();
    {
      Scope s(t_, SpanId::kRunUntil);
      sim.run_until(sim.now() + millis(300));  // slow start
    }
    const Counts before = counts(tb) + rig->tcp_counts();
    double cpu = process_cpu_s(), wall = wall_s(), ops = rig->ops_done();
    double frames = static_cast<double>(tb.medium().stats().frames_delivered);
    for (int i = 0; i < kTcpSlices; ++i) {
      {
        Scope s(t_, SpanId::kRunUntil);
        sim.run_until(sim.now() + millis(10));
      }
      log_.note_pending(sim.pending_events());
      const double cpu1 = process_cpu_s(), wall1 = wall_s();
      const double ops1 = rig->ops_done();
      const double frames1 =
          static_cast<double>(tb.medium().stats().frames_delivered);
      r.piece_cpu_s.push_back(cpu1 - cpu);
      r.piece_wall_s.push_back(wall1 - wall);
      r.piece_ops.push_back(ops1 - ops);
      r.piece_frames.push_back(frames1 - frames);
      cpu = cpu1;
      wall = wall1;
      ops = ops1;
      frames = frames1;
    }
    const Counts timed = counts(tb) + rig->tcp_counts() - before;

    r.attempted = 1;  // one transfer
    rig->check(r.problems);
    Digest d;
    rig->digest(d);
    r.digest = d.value();

    if (t_.on()) {
      timed_ += timed;
      ++traced_rounds_;
      {
        Scope s(t_, SpanId::kVerify);
        verify_states_ = static_cast<double>(
            fsl::mc::verify_tables(checked.tables).states_explored);
      }
      {
        Scope s(t_, SpanId::kReport);
        report_bytes_ = static_cast<double>(make_report(tb, nullptr).to_jsonl().size());
      }
      setup_allocs_ = static_cast<double>(setup_allocs);
      tables_ = checked.tables;
      script_ = script;
    }
    {
      Scope s(t_, SpanId::kTeardown);
      ctrl.reset();
      rig.reset();
    }
    return r;
  }

  void layer_metrics(LayerMetrics& out, Overheads& /*overhead*/,
                     std::vector<std::string>& /*problems*/) override {
    const Counts& c = timed_;
    out["sim.events_per_frame"] = ratio(c.events, c.frames);
    out["sim.peak_pending"] = static_cast<double>(log_.peak_pending);
    out["sim.queue_ns_per_event"] = queue_replay_ns(log_.peak_pending, seed_);
    out["alloc.per_frame"] = ratio(c.allocs, c.frames);
    out["alloc.bytes_per_frame"] = ratio(c.alloc_bytes, c.frames);
    out["phy.bytes_per_frame"] = ratio(c.bytes, c.frames);
    out["host.chain_tx_ns"] = t_.mean_self_ns(SpanId::kChainTx);
    out["host.stack_rx_ns"] = t_.mean_self_ns(SpanId::kStackRx);
    out["engine.pkts_per_frame"] = ratio(c.eng_seen, c.frames);
    classifier_replay(tables_, log_.frames, out);
    out["engine.actions_per_pkt"] = ratio(c.eng_actions, c.eng_seen);
    out["obs.provenance_per_pkt"] = ratio(c.provenance, c.eng_seen);
    out["rll.acks_per_data"] = ratio(c.rll_acks, c.rll_data);
    out["rll.retransmits"] = ratio(c.rll_retx, traced_rounds_);
    out["tcp.segments_per_frame"] = ratio(c.tcp_segments, c.frames);
    out["tcp.retransmits"] = ratio(c.tcp_retx, traced_rounds_);
    FslSplit fsl;
    fsl.measure(t_, script_, "");
    fsl.report(out);
    out["fsl.verify_ms"] = t_.mean_ms(SpanId::kVerify);
    out["fsl.verify_states"] = verify_states_;
    out["api.testbed_build_ms"] = t_.mean_ms(SpanId::kTestbedBuild);
    out["api.teardown_ms"] = t_.mean_ms(SpanId::kTeardown);
    out["control.arm_ms"] = t_.mean_ms(SpanId::kArm);
    out["obs.report_ms"] = t_.mean_ms(SpanId::kReport);
    out["obs.report_kb_per_trial"] = report_bytes_ / 1024.0;
    out["alloc.per_trial"] = setup_allocs_;
    out["trace.records_per_frame"] = ratio(c.tap_records, c.frames);
    out["trace.bytes_per_frame"] = ratio(c.tap_bytes, c.frames);
    out["obs.flight_events_per_frame"] = ratio(c.flight, c.frames);
    out["bench.unattributed_share"] = t_.unattributed_share(SpanId::kRound);
  }

 private:
  TestbedConfig config() const {
    TestbedConfig cfg;
    cfg.install_trace = false;  // as in the Fig 7/8 benches
    cfg.install_rll = true;
    cfg.rll = paper_rll();
    cfg.link.bit_error_rate = kBitErrorRate;
    cfg.seed = seed_;
    return cfg;
  }

  u64 seed_;
  Tracer& t_;
  ProbeLog log_;
  Counts timed_;
  double traced_rounds_{0};
  double verify_states_{0};
  double report_bytes_{0};
  double setup_allocs_{0};
  core::TableSet tables_;
  std::string script_;
};

// --- chaos workloads ----------------------------------------------------------------

/// One Campaign construction takes tens of nanoseconds.  A set-up sample
/// times kSetupRepeats batches of kSetupBatch constructions (about 1 ms of
/// CPU in all) and destroys each batch untimed before the next.
constexpr int kSetupBatch = 2048;
constexpr int kSetupRepeats = 16;
constexpr int kSetupSamples = 5;  // per round

bool infrastructure_failure(const chaos::Violation& v) {
  return v.invariant == "trial-exception" || v.invariant == "trial-timeout" ||
         v.invariant.rfind("generated-script-", 0) == 0;
}

/// Frames and bytes the medium delivered in a trial, from its telemetry.
struct Delivered {
  double frames{0}, bytes{0};
};
Delivered delivered(const chaos::TrialResult& tr,
                    std::vector<std::string>& problems) {
  Delivered out;
  int found = 0;
  if (!tr.telemetry.empty()) {
    for (const obs::MetricsRegistry::Sample& s :
         obs::parse_report_jsonl(tr.telemetry).metrics) {
      if (s.name == "phy.medium.frames_delivered") out.frames = s.value, ++found;
      if (s.name == "phy.medium.bytes_delivered") out.bytes = s.value, ++found;
    }
  }
  if (found != 2) {
    problems.push_back("trial " + std::to_string(tr.trial_index) +
                       ": telemetry lacks phy.medium.{frames,bytes}_delivered");
  }
  return out;
}

class ChaosWorkload final : public Workload {
 public:
  /// Trials the traced run re-runs through run_schedule and the replica.
  static constexpr u64 kReplicas = 40;

  ChaosWorkload(std::string fixture, std::size_t trials, u64 seed, Tracer& t)
      : fixture_(std::move(fixture)), trials_(trials), seed_(seed), t_(t) {}

  const char* ops_name() const override { return "trials_per_cpu_s"; }
  const char* ops_unit() const override { return "trials/CPU-s"; }

  Round round() override {
    Round r;
    Scope round_span(t_, SpanId::kRound);
    // Per-trial CPU is read in the on_trial hook; the hook's own work is
    // excluded by restarting the trial clocks as it returns.
    double mark = 0, mark_wall = 0;
    AllocCount hook_allocs;
    Digest d;
    std::vector<std::string> telemetry(trials_);
    chaos::CampaignConfig cfg;
    cfg.fixture = fixture_;
    cfg.seed = seed_;
    cfg.trials = trials_;
    cfg.workers = 1;
    cfg.minimize = false;  // ddmin time depends on which trial fails first
    std::size_t violating = 0;
    cfg.on_trial = [&](const chaos::TrialResult& tr) {
      const double enter = thread_cpu_s();
      r.piece_wall_s.push_back(wall_s() - mark_wall);
      const AllocCount a0 = alloc_count();
      r.piece_cpu_s.push_back(enter - mark);
      r.piece_ops.push_back(1);
      d.add(tr.trial_index);
      d.add(tr.ran ? 1 : 0);
      d.add(tr.firings);
      d.add(tr.link_events);
      if (!tr.violations.empty()) ++violating;
      for (const chaos::Violation& v : tr.violations) {
        d.add(v.invariant);
        if (infrastructure_failure(v)) {
          r.problems.push_back("trial " + std::to_string(tr.trial_index) +
                               ": " + v.invariant + ": " + v.detail);
        }
      }
      const Delivered del = delivered(tr, r.problems);
      d.add(static_cast<u64>(del.frames));
      d.add(static_cast<u64>(del.bytes));
      r.piece_frames.push_back(del.frames);
      if (kept(tr.trial_index)) telemetry[tr.trial_index] = tr.telemetry;
      hook_allocs.calls += alloc_count().calls - a0.calls;
      hook_allocs.bytes += alloc_count().bytes - a0.bytes;
      mark = thread_cpu_s();
      mark_wall = wall_s();
    };

    std::vector<chaos::Campaign> built;
    built.reserve(kSetupBatch);
    for (int sample = 0; sample < kSetupSamples; ++sample) {
      double cpu = 0, wall = 0;
      for (int b = 0; b < kSetupRepeats; ++b) {
        built.clear();
        const double c0 = thread_cpu_s(), w0 = wall_s();
        {
          Scope s(t_, SpanId::kCampaignBuild);
          for (int i = 0; i < kSetupBatch; ++i) built.emplace_back(cfg);
        }
        cpu += thread_cpu_s() - c0;
        wall += wall_s() - w0;
      }
      r.setup_cpu_s.push_back(cpu / (kSetupBatch * kSetupRepeats));
      r.setup_wall_s.push_back(wall / (kSetupBatch * kSetupRepeats));
    }
    chaos::Campaign& campaign = built.front();

    const AllocCount a0 = alloc_count();
    mark = thread_cpu_s();
    mark_wall = wall_s();
    chaos::CampaignSummary summary;
    {
      Scope s(t_, SpanId::kCampaignRun);
      summary = campaign.run();
    }
    const AllocCount a1 = alloc_count();
    r.attempted = trials_;
    if (summary.trials_run != trials_) {
      r.problems.push_back("campaign ran " + std::to_string(summary.trials_run) +
                           " of " + std::to_string(trials_) + " trials");
    }
    r.digest = d.value();
    telemetry_ = std::move(telemetry);
    if (t_.on()) {
      traced_allocs_ += static_cast<double>(a1.calls - a0.calls - hook_allocs.calls);
      traced_alloc_bytes_ +=
          static_cast<double>(a1.bytes - a0.bytes - hook_allocs.bytes);
      for (double f : r.piece_frames) traced_frames_ += f;
      traced_trials_ += static_cast<double>(summary.trials_run);
      violating_ = static_cast<double>(violating);
    }
    return r;
  }

  /// Trials whose telemetry a round keeps: the replay sample and the
  /// trials the traced run re-runs.
  bool kept(u64 i) const {
    return i < kReplicas || i == trials_ / 2 || i + 1 == trials_;
  }

  /// Re-runs a sample of trials through Campaign::run_trial and compares
  /// their telemetry with the campaign's, byte for byte.
  void check_once(Round& r) override {
    chaos::CampaignConfig cfg;
    cfg.fixture = fixture_;
    cfg.seed = seed_;
    const chaos::Campaign campaign(cfg);
    for (std::size_t i : {std::size_t{0}, trials_ / 2, trials_ - 1}) {
      if (campaign.run_trial(i).telemetry != telemetry_[i]) {
        r.problems.push_back("trial " + std::to_string(i) +
                             " does not replay byte for byte");
      }
    }
  }

  /// The traced campaign rounds carry no probes: those sit in the
  /// replicas.  So the overhead of the trial figures compares each replica
  /// with the same trial's run_schedule, run just before it.
  void layer_metrics(LayerMetrics& out, Overheads& overhead,
                     std::vector<std::string>& problems) override {
    chaos::CampaignConfig cfg;
    cfg.fixture = fixture_;
    cfg.seed = seed_;
    const chaos::Campaign campaign(cfg);
    Counts c;
    FslSplit fsl;
    double states = 0, report_bytes = 0, lint_ns = 0;
    core::TableSet tables;
    const std::size_t replicas = std::min<std::size_t>(trials_, kReplicas);
    std::vector<double> plain_ms, probed_ms, ratios;
    for (std::size_t i = 0; i < replicas; ++i) {
      chaos::TrialResult rerun;
      const double c0 = thread_cpu_s();
      {
        Scope s(t_, SpanId::kRunSchedule);
        rerun = campaign.run_schedule(campaign.schedule_for(i));
      }
      const double c1 = thread_cpu_s();
      if (rerun.telemetry != telemetry_[i]) {
        problems.push_back("trial " + std::to_string(i) +
                           ": run_schedule does not reproduce its telemetry");
      }
      const Replica rep = replica(campaign, i);
      plain_ms.push_back((c1 - c0) * 1e3);
      probed_ms.push_back((thread_cpu_s() - c1) * 1e3);
      ratios.push_back(probed_ms.back() / plain_ms.back());
      c += rep.counts;
      states += rep.verify_states;
      lint_ns += rep.lint_ns;
      report_bytes += static_cast<double>(rep.telemetry.size());
      if (rep.telemetry != telemetry_[i]) {
        problems.push_back("trial " + std::to_string(i) +
                           ": the probed replica diverges from the campaign");
      }
      fsl.measure(t_, rep.script, rep.scenario);
      tables = rep.tables;
    }
    const double n = static_cast<double>(replicas);
    out["sim.events_per_frame"] = ratio(c.events, c.frames);
    out["sim.peak_pending"] = static_cast<double>(log_.peak_pending);
    out["sim.queue_ns_per_event"] = queue_replay_ns(log_.peak_pending, seed_);
    out["alloc.per_frame"] = ratio(traced_allocs_, traced_frames_);
    out["alloc.bytes_per_frame"] = ratio(traced_alloc_bytes_, traced_frames_);
    out["phy.bytes_per_frame"] = ratio(c.bytes, c.frames);
    out["host.chain_tx_ns"] = t_.mean_self_ns(SpanId::kChainTx);
    out["host.stack_rx_ns"] = t_.mean_self_ns(SpanId::kStackRx);
    out["engine.pkts_per_frame"] = ratio(c.eng_seen, c.frames);
    classifier_replay(tables, tap_frames_.frames, out);
    out["engine.actions_per_pkt"] = ratio(c.eng_actions, c.eng_seen);
    out["obs.provenance_per_pkt"] = ratio(c.provenance, c.eng_seen);
    out["rll.acks_per_data"] = ratio(c.rll_acks, c.rll_data);
    out["rll.retransmits"] = c.rll_retx / n;
    fsl.report(out);
    out["fsl.verify_ms"] = t_.mean_ms(SpanId::kVerify);
    out["fsl.verify_states"] = states / n;
    out["api.testbed_build_ms"] = t_.mean_ms(SpanId::kTestbedBuild);
    out["api.teardown_ms"] = t_.mean_ms(SpanId::kTeardown);
    out["chaos.schedule_ms"] = t_.mean_ms(SpanId::kScheduleFor);
    out["obs.report_ms"] = t_.mean_ms(SpanId::kReport);
    out["obs.report_kb_per_trial"] = report_bytes / n / 1024.0;
    out["alloc.per_trial"] = ratio(traced_allocs_, traced_trials_);
    out["trace.records_per_frame"] = ratio(c.tap_records, c.frames);
    out["trace.bytes_per_frame"] = ratio(c.tap_bytes, c.frames);
    out["obs.flight_events_per_frame"] = ratio(c.flight, c.frames);
    out["rether.token_sends_per_trial"] = c.token_sends / n;
    out["rether.regenerations_per_trial"] = c.regenerations / n;
    out["chaos.run_schedule_ms"] = t_.mean_ms(SpanId::kRunSchedule);
    out["chaos.violating_trials"] = violating_;
    const double setup_ms =
        t_.mean_ms(SpanId::kScheduleFor) + t_.mean_ms(SpanId::kTestbedBuild) +
        lint_ns / n * 1e-6 + t_.mean_ms(SpanId::kVerify) +
        t_.mean_ms(SpanId::kReport) + t_.mean_ms(SpanId::kTeardown);
    out["chaos.setup_share"] = ratio(setup_ms, t_.mean_ms(SpanId::kTrialReplica));
    out["bench.unattributed_share"] = t_.unattributed_share(SpanId::kTrialReplica);

    double plain_total = 0, probed_total = 0;
    for (std::size_t i = 0; i < replicas; ++i) {
      plain_total += plain_ms[i] * 1e-3;
      probed_total += probed_ms[i] * 1e-3;
    }
    const double spread = rel_spread(ratios);
    auto set = [&](const char* name, double plain, double probed) {
      overhead[name] = {probed - plain, ratio(probed - plain, plain), spread};
    };
    set("frames_per_cpu_s", c.frames / plain_total, c.frames / probed_total);
    set("ops_per_cpu_s", n / plain_total, n / probed_total);
    set("op_cpu_ms.p50", median(plain_ms), median(probed_ms));
    const int tail_p = tail_percentile(replicas);
    set("op_cpu_ms.tail", percentile(plain_ms, tail_p),
        percentile(probed_ms, tail_p));
  }

 private:
  struct Replica {
    Counts counts;
    double verify_states{0};
    std::string telemetry;
    std::string script, scenario;
    double lint_ns{0};  ///< the trial's own check_script(lint) call
    core::TableSet tables;
  };

  /// Trial `i` rebuilt from the public pieces Campaign::run_schedule uses,
  /// with probes installed and a span around each call.
  Replica replica(const chaos::Campaign& campaign, u64 i) {
    Replica out;
    Scope root(t_, SpanId::kTrialReplica);
    chaos::FaultSchedule sched;
    {
      Scope s(t_, SpanId::kScheduleFor);
      sched = campaign.schedule_for(i);
    }
    std::unique_ptr<chaos::TrialHarness> h;
    {
      Scope s(t_, SpanId::kTestbedBuild);
      h = chaos::make_harness(
          fixture_, derive_seed(sched.campaign_seed, "trial.workload",
                                sched.trial_index));
    }
    Testbed& tb = h->testbed();
    sim::Simulator& sim = tb.simulator();
    install_probes(tb, t_, log_);
    ScenarioSpec spec = h->make_spec(chaos::fsl_rules(sched, h->fsl_site()));
    spec.seed = derive_seed(sched.campaign_seed, "trial.medium",
                            sched.trial_index);
    fsl::CompileResult checked;
    {
      Scope s(t_, SpanId::kCheckScriptLint);
      fsl::CompileOptions opts;
      opts.scenario = spec.scenario;
      opts.lint = true;
      const i64 t0 = now_ns();
      checked = fsl::check_script(spec.script, opts);
      out.lint_ns = static_cast<double>(now_ns() - t0);
    }
    {
      Scope s(t_, SpanId::kVerify);
      out.verify_states = static_cast<double>(
          fsl::mc::verify_tables(checked.tables).states_explored);
    }
    for (const chaos::FaultEvent& e : sched.events) {
      LinkFaultSpec f;
      f.node = e.node;
      f.at = e.at;
      f.until = e.until;
      switch (e.kind) {
        case chaos::FaultKind::kCrash:
          spec.crashes.push_back({e.node, e.at, e.until});
          break;
        case chaos::FaultKind::kLinkCut:
          f.kind = LinkFaultSpec::Kind::kCut;
          spec.link_faults.push_back(f);
          break;
        case chaos::FaultKind::kLinkFlap:
          f.kind = LinkFaultSpec::Kind::kFlap;
          f.flap_up = e.flap_up;
          f.flap_down = e.flap_down;
          spec.link_faults.push_back(f);
          break;
        case chaos::FaultKind::kLinkDegrade:
          f.kind = LinkFaultSpec::Kind::kDegrade;
          f.loss_tx = e.loss_tx;
          f.loss_rx = e.loss_rx;
          f.extra_latency = e.extra_latency;
          spec.link_faults.push_back(f);
          break;
        default:
          break;  // FSL faults are in the script; the fixtures draw no others
      }
    }
    chaos::InvariantSet inv;
    h->register_invariants(inv);
    spec.probe = [this, &inv, &sim] {
      log_.note_pending(sim.pending_events());
      inv.run_probes(sim.now());
    };
    spec.probe_period = campaign.config().probe_period;
    ScenarioRunner runner(tb);
    control::ScenarioResult result;
    {
      Scope s(t_, SpanId::kScenarioRun);
      result = runner.run(spec);
    }
    {
      Scope s(t_, SpanId::kDrain);
      h->quiesce();
      phy::Medium& medium = tb.medium();
      for (std::size_t p = 0; p < medium.port_count(); ++p) {
        medium.clear_link_fault(static_cast<phy::PortId>(p));
      }
      const TimePoint cap = sim.now() + campaign.config().drain_grace;
      while (sim.now() < cap &&
             chaos::check_conservation(medium.stats()).has_value()) {
        if (!sim.step()) break;
      }
    }
    out.counts = counts(tb);
    // The trace tap sits below the engine and sees every frame it
    // classifies, including traffic (rether tokens) that never reaches IP.
    for (const trace::TraceRecord& rec : tb.trace().records()) {
      tap_frames_.note_frame(rec.frame);
    }
    {
      Scope s(t_, SpanId::kReport);
      out.telemetry = make_report(tb, &result).to_jsonl();
    }
    out.tables = checked.tables;
    out.script = spec.script;
    out.scenario = spec.scenario;
    {
      Scope s(t_, SpanId::kTeardown);
      h.reset();
    }
    return out;
  }

  std::string fixture_;
  std::size_t trials_;
  u64 seed_;
  Tracer& t_;
  std::vector<std::string> telemetry_;  ///< last round's, by trial index
  ProbeLog log_;
  ProbeLog tap_frames_;
  double traced_allocs_{0}, traced_alloc_bytes_{0};
  double traced_frames_{0}, traced_trials_{0};
  double violating_{0};
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, u64 seed,
                                        Tracer& tracer) {
  if (name == "tcp_bulk") return std::make_unique<TcpBulk>(seed, tracer);
  if (name == "chaos_rether") {
    return std::make_unique<ChaosWorkload>("rether", 400, seed, tracer);
  }
  return nullptr;
}

}  // namespace vwb
